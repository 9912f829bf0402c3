#include "util/file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <system_error>
#include <vector>

namespace slim {

namespace {

constexpr size_t kUnsizedChunk = 64 * 1024;

std::string ErrnoText(int err) { return std::generic_category().message(err); }

// read(2) that retries on EINTR.
ssize_t ReadSome(int fd, char* buf, size_t len) {
  while (true) {
    ssize_t n = ::read(fd, buf, len);
    if (n >= 0 || errno != EINTR) return n;
  }
}

// The directory holding `path`.
std::string ParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? "."
         : slash == 0               ? "/"
                                    : path.substr(0, slash);
}

// fsyncs `dir`, so a rename into it survives a crash. A file system that
// cannot sync a directory (EINVAL) has nothing to flush.
Status SyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("cannot open directory '" + dir +
                           "': " + ErrnoText(errno));
  }
  int rc = ::fsync(fd);
  int err = errno;
  ::close(fd);
  if (rc != 0 && err != EINVAL) {
    return Status::IoError("fsync failed for directory '" + dir +
                           "': " + ErrnoText(err));
  }
  return Status::OK();
}

}  // namespace

Result<std::string> ReadFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IoError("cannot open '" + path + "' for reading");
  struct stat st {};
  bool sized = ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0;
  std::string out;
  out.resize(sized ? static_cast<size_t>(st.st_size) : kUnsizedChunk);
  size_t used = 0;
  while (true) {
    if (used == out.size()) {
      // Full: probe for more before growing, so a file that is exactly its
      // reported size is read without a second allocation.
      char probe[4096];
      ssize_t n = ReadSome(fd, probe, sizeof(probe));
      if (n < 0) break;
      if (n == 0) {
        ::close(fd);
        return out;
      }
      out.resize(std::max(out.size() * 2, used + static_cast<size_t>(n)));
      std::memcpy(out.data() + used, probe, static_cast<size_t>(n));
      used += static_cast<size_t>(n);
      continue;
    }
    ssize_t n = ReadSome(fd, out.data() + used, out.size() - used);
    if (n < 0) break;
    if (n == 0) {
      ::close(fd);
      out.resize(used);
      return out;
    }
    used += static_cast<size_t>(n);
  }
  int err = errno;
  ::close(fd);
  return Status::IoError("read failed for '" + path + "': " + ErrnoText(err));
}

FileReplacer::FileReplacer(std::string path)
    : path_(std::move(path)), tmp_path_(path_ + ".tmp") {
  fd_ = ::open(tmp_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
               0666);
  if (fd_ < 0) {
    status_ = Status::IoError("cannot open '" + tmp_path_ +
                              "' for writing: " + ErrnoText(errno));
    return;
  }
  tmp_exists_ = true;
  buffer_.reserve(2 * kChunkBytes);
}

FileReplacer::~FileReplacer() {
  if (fd_ >= 0) ::close(fd_);
  if (tmp_exists_) ::unlink(tmp_path_.c_str());
}

void FileReplacer::Fail(const std::string& what) {
  int err = errno;
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  if (tmp_exists_) ::unlink(tmp_path_.c_str());
  tmp_exists_ = false;
  status_ = Status::IoError(what + ": " + ErrnoText(err));
}

void FileReplacer::WriteBuffer() {
  std::string_view rest = buffer_;
  while (status_.ok() && !rest.empty()) {
    ssize_t n = ::write(fd_, rest.data(), rest.size());
    if (n < 0) {
      if (errno != EINTR) Fail("write failed for '" + tmp_path_ + "'");
      continue;
    }
    rest.remove_prefix(static_cast<size_t>(n));
  }
  buffer_.clear();
}

void FileReplacer::WriteIfFull() {
  if (buffer_.size() >= kChunkBytes) WriteBuffer();
}

Status FileReplacer::Sync() {
  WriteBuffer();
  if (!status_.ok()) return status_;
  if (::fsync(fd_) != 0) {
    Fail("fsync failed for '" + tmp_path_ + "'");
    return status_;
  }
  int rc = ::close(fd_);
  fd_ = -1;
  if (rc != 0) Fail("close failed for '" + tmp_path_ + "'");
  return status_;
}

Status FileReplacer::Commit() { return CommitAll({this}); }

Status FileReplacer::CommitAll(std::initializer_list<FileReplacer*> files) {
  for (FileReplacer* file : files) SLIM_RETURN_NOT_OK(file->Sync());
  std::vector<std::string> dirs;
  for (FileReplacer* file : files) {
    if (std::rename(file->tmp_path_.c_str(), file->path_.c_str()) != 0) {
      file->Fail("cannot rename '" + file->tmp_path_ + "' to '" +
                 file->path_ + "'");
      return file->status_;
    }
    file->tmp_exists_ = false;
    std::string dir = ParentDir(file->path_);
    if (std::find(dirs.begin(), dirs.end(), dir) == dirs.end()) {
      dirs.push_back(std::move(dir));
    }
  }
  for (const std::string& dir : dirs) SLIM_RETURN_NOT_OK(SyncDir(dir));
  return Status::OK();
}

}  // namespace slim
