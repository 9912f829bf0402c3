#ifndef SLIM_UTIL_FILE_H_
#define SLIM_UTIL_FILE_H_

/// \file file.h
/// \brief Whole-file reads and crash-safe whole-file replacement.

#include <initializer_list>
#include <string>

#include "util/result.h"

namespace slim {

/// Reads the whole file at `path` into one string. A regular file's size
/// sizes the string up front, so the bytes are read once into their final
/// buffer; pipes and other unsized files are read until end of file.
/// IoError ("cannot open '<path>' for reading") when the file cannot be
/// opened, and IoError when a read fails.
Result<std::string> ReadFile(const std::string& path);

/// \brief Replaces a file so that a crash never leaves it half written.
///
/// The constructor creates `<path>.tmp`. Callers append bytes to buffer()
/// and call WriteIfFull() now and then, so the file goes out in chunks of
/// about kChunkBytes; Commit() writes the rest, fsyncs the temp file,
/// renames it over `path` and fsyncs the directory holding `path`, so a
/// crash after a successful Commit() cannot bring the old file back. Until
/// the rename the old file is untouched. On any failure before it, and
/// when the replacer is destroyed uncommitted, the temp file is removed.
class FileReplacer {
 public:
  /// WriteIfFull() writes once the buffer holds this many bytes.
  static constexpr size_t kChunkBytes = 64 * 1024;

  explicit FileReplacer(std::string path);
  ~FileReplacer();
  FileReplacer(const FileReplacer&) = delete;
  FileReplacer& operator=(const FileReplacer&) = delete;

  /// Bytes appended here are written to the temp file.
  std::string* buffer() { return &buffer_; }
  /// Writes the buffer out once it holds kChunkBytes or more. A failure is
  /// kept and returned by Commit().
  void WriteIfFull();
  /// Writes the rest of the buffer, fsyncs the temp file, renames it over
  /// the target and fsyncs the target's directory. IoError on any failure:
  /// with the old file untouched when the rename has not happened, and
  /// with the new file in place but perhaps not durable when only the
  /// directory fsync failed. CommitAll({this}).
  Status Commit();
  /// Commits `files` together: writes and fsyncs every temp file first,
  /// and only when all of them are durable renames each over its target,
  /// in order, then fsyncs each target directory once. A failure before
  /// the renames leaves every old file untouched; a failed rename stops
  /// the ones after it.
  static Status CommitAll(std::initializer_list<FileReplacer*> files);

 private:
  void WriteBuffer();
  /// Writes the rest of the buffer, fsyncs and closes the temp file.
  Status Sync();
  void Fail(const std::string& what);

  std::string path_;
  std::string tmp_path_;
  int fd_ = -1;             ///< Open temp file; -1 once failed or synced.
  bool tmp_exists_ = false;  ///< The temp file is there, not yet renamed.
  Status status_;
  std::string buffer_;
};

}  // namespace slim

#endif  // SLIM_UTIL_FILE_H_
