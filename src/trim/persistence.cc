#include "trim/persistence.h"

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "doc/xml/reader.h"
#include "doc/xml/writer.h"
#include "obs/obs.h"
#include "util/file.h"

namespace slim::trim {

namespace xml = slim::doc::xml;

namespace {

constexpr std::string_view kStoreTag = "trim:store";
constexpr std::string_view kStatementTag = "trim:statement";
constexpr std::string_view kResourceTag = "trim:resource";
constexpr std::string_view kLiteralTag = "trim:literal";

// The binary form (persistence.h): no XML text can begin with byte 0x89.
constexpr std::string_view kMagic("\x89SLIMPAD", 8);
constexpr uint32_t kVersion = 1;
constexpr size_t kHeaderBytes = kMagic.size() + 4 + 8;
constexpr size_t kRecordBytes = 3 * 4 + 1;

using ImageStatement = TripleStore::ImageStatement;

// Store persistence failures are exactly what the flight recorder exists
// for: log the event, snapshot a diagnostics bundle (when configured) and
// hand the status back unchanged.
Status NotePersistenceFailure(Status st, [[maybe_unused]] const char* op,
                              [[maybe_unused]] const std::string& path) {
  SLIM_OBS_LOG(kError, "trim", "store persistence failed",
               {{"op", op}, {"path", path}, {"status", st.ToString()}});
  SLIM_OBS_DUMP_ON_ERROR("trim.persistence");
  return st;
}

// Appends the store's XML to *out.
void WriteStore(const TripleStore& store, std::string* out) {
  xml::Writer w(out);
  w.Declaration();
  w.Start(kStoreTag, /*block=*/true);
  w.Attribute("xmlns:trim", "http://slim.ogi.edu/trim");
  store.ForEach([&](const Triple& t) {
    w.Start(kStatementTag, /*block=*/true);
    w.Attribute("subject", t.subject);
    w.Attribute("property", t.property);
    w.Start(t.object.is_resource() ? kResourceTag : kLiteralTag,
            /*block=*/false);
    if (!t.object.text.empty()) w.Text(t.object.text);
    w.End();
    w.End();
  });
  w.End();
}

char* PutLE(char* at, uint64_t value, size_t bytes) {
  for (size_t i = 0; i < bytes; ++i) at[i] = static_cast<char>(value >> (8 * i));
  return at + bytes;
}

uint64_t GetLE(const char* at, size_t bytes) {
  uint64_t value = 0;
  for (size_t i = 0; i < bytes; ++i) {
    value |= uint64_t{static_cast<unsigned char>(at[i])} << (8 * i);
  }
  return value;
}

// FNV-1a over little-endian 64-bit words, seeded with the length. A step
// is a bijection of the running value and of the word, so a change
// confined to one word (any single-byte change) changes the result.
uint64_t Checksum(std::string_view body) {
  constexpr uint64_t kPrime = 1099511628211ull;
  uint64_t h = 1469598103934665603ull ^ body.size();
  size_t at = 0;
  for (; at + 8 <= body.size(); at += 8) {
    h = (h ^ GetLE(body.data() + at, 8)) * kPrime;
  }
  if (at < body.size()) {
    h = (h ^ GetLE(body.data() + at, body.size() - at)) * kPrime;
  }
  return h;
}

// Appends the store's binary form to *out, written in place at its final
// size.
void WriteBinary(const TripleStore& store, std::string* out) {
  store.ExportImage([out](const std::vector<std::string_view>& strings,
                          const std::vector<ImageStatement>& statements) {
    size_t bytes = kHeaderBytes + 4 + 4 * strings.size() + 4 +
                   kRecordBytes * statements.size();
    for (std::string_view s : strings) bytes += s.size();
    const size_t start = out->size();
    out->resize(start + bytes);
    char* header = out->data() + start;
    char* at = PutLE(header + kHeaderBytes, strings.size(), 4);
    for (std::string_view s : strings) {
      at = PutLE(at, s.size(), 4);
      std::memcpy(at, s.data(), s.size());
      at += s.size();
    }
    at = PutLE(at, statements.size(), 4);
    for (const ImageStatement& st : statements) {
      at = PutLE(at, st.subject, 4);
      at = PutLE(at, st.property, 4);
      at = PutLE(at, st.object, 4);
      *at++ = st.kind == ObjectKind::kResource ? 1 : 0;
    }
    std::memcpy(header, kMagic.data(), kMagic.size());
    PutLE(header + kMagic.size(), kVersion, 4);
    PutLE(header + kMagic.size() + 4,
          Checksum(std::string_view(header + kHeaderBytes, bytes - kHeaderBytes)),
          8);
  });
}

Status Corrupt(const std::string& what) {
  return Status::ParseError("store file: " + what);
}

// Decodes the binary form in `bytes`, which `image` holds: its strings are
// views of them. Every count and length is checked against the bytes left
// before anything is reserved or read.
Status ReadBinary(std::string_view bytes, TripleStore::Image* image) {
  if (bytes.size() < kHeaderBytes) return Corrupt("header cut short");
  const uint64_t version = GetLE(bytes.data() + kMagic.size(), 4);
  if (version != kVersion) {
    return Corrupt("unsupported version " + std::to_string(version));
  }
  const std::string_view body = bytes.substr(kHeaderBytes);
  if (GetLE(bytes.data() + kMagic.size() + 4, 8) != Checksum(body)) {
    return Corrupt("checksum mismatch");
  }
  size_t at = 0;
  auto read_u32 = [&](uint64_t* value) {
    if (body.size() - at < 4) return false;
    *value = GetLE(body.data() + at, 4);
    at += 4;
    return true;
  };
  uint64_t strings = 0;
  if (!read_u32(&strings) || strings > (body.size() - at) / 4) {
    return Corrupt("string count exceeds the file");
  }
  image->Reserve(strings, 0);
  for (uint64_t i = 0; i < strings; ++i) {
    uint64_t length = 0;
    if (!read_u32(&length) || length > body.size() - at) {
      return Corrupt("string " + std::to_string(i) + " overruns the file");
    }
    if (!image->AddString(body.substr(at, length))) {
      return Corrupt("string " + std::to_string(i) + " repeats an earlier one");
    }
    at += length;
  }
  uint64_t records = 0;
  if (!read_u32(&records) || body.size() - at != records * kRecordBytes) {
    return Corrupt("record count does not match the file's size");
  }
  image->Reserve(0, records);
  for (uint64_t r = 0; r < records; ++r, at += kRecordBytes) {
    const char* rec = body.data() + at;
    const auto kind = static_cast<unsigned char>(rec[12]);
    if (kind > 1) {
      return Corrupt("record " + std::to_string(r) + " has object kind " +
                     std::to_string(kind));
    }
    ImageStatement st;
    st.subject = static_cast<TripleStore::KeyId>(GetLE(rec, 4));
    st.property = static_cast<TripleStore::KeyId>(GetLE(rec + 4, 4));
    st.object = static_cast<TripleStore::KeyId>(GetLE(rec + 8, 4));
    st.kind = kind == 1 ? ObjectKind::kResource : ObjectKind::kLiteral;
    SLIM_RETURN_NOT_OK(image->AddStatement(st));
  }
  return Status::OK();
}

// The <trim:statement> being read: its attributes' string ids, and whether
// it has seen its first direct <trim:resource>/<trim:literal> child.
struct PendingStatement {
  ImageStatement statement;
  bool has_object = false;
  bool mixed_objects = false;  // both a resource and a literal child
  bool in_object = false;      // inside the first object child
};

// Reads and checks every statement of `xml_text` into `image`, interning
// each string as it is read, without touching any store. The error is the
// first structural error or rejected statement in document order; a
// syntax error anywhere still wins, so reading goes on to the end.
Status ReadStatements(std::string_view xml_text, TripleStore::Image* image) {
  // A saved statement takes ~130 bytes, and pads repeat most strings.
  image->Reserve(xml_text.size() / 256, xml_text.size() / 128);
  xml::Reader reader(xml_text);
  Status first_error;
  std::optional<PendingStatement> stmt;
  std::string object_text;  // the object's text is all its descendant text
  for (bool done = false; !done;) {
    SLIM_RETURN_NOT_OK(reader.Next());
    switch (reader.kind()) {
      case xml::TokenKind::kStartTag:
        if (reader.depth() == 0) {
          if (reader.name() != kStoreTag) {
            first_error =
                Status::ParseError("root element is not <trim:store>");
          }
        } else if (!first_error.ok()) {
          // Only the syntax of the rest matters now.
        } else if (reader.depth() == 1 && reader.name() == kStatementTag) {
          std::optional<std::string_view> subject =
              reader.FindAttribute("subject");
          std::optional<std::string_view> property =
              reader.FindAttribute("property");
          if (!subject || !property) {
            first_error = Status::ParseError(
                "<trim:statement> missing subject/property attribute");
          } else {
            stmt.emplace();
            stmt->statement.subject = image->Intern(*subject);
            stmt->statement.property = image->Intern(*property);
            object_text.clear();
          }
        } else if (reader.depth() == 2 && stmt &&
                   (reader.name() == kResourceTag ||
                    reader.name() == kLiteralTag)) {
          ObjectKind kind = reader.name() == kResourceTag
                                ? ObjectKind::kResource
                                : ObjectKind::kLiteral;
          if (!stmt->has_object) {
            stmt->has_object = true;
            stmt->in_object = true;
            stmt->statement.kind = kind;
          } else if (stmt->statement.kind != kind) {
            stmt->mixed_objects = true;
          }
        }
        break;
      case xml::TokenKind::kEndTag:
        if (!stmt) break;
        if (reader.depth() == 2) {
          stmt->in_object = false;
        } else if (reader.depth() == 1) {
          if (!stmt->has_object || stmt->mixed_objects) {
            first_error = Status::ParseError(
                "<trim:statement> must contain exactly one of "
                "<trim:resource> or <trim:literal>");
          } else {
            stmt->statement.object = image->Intern(object_text);
            first_error = image->AddStatement(stmt->statement);
          }
          stmt.reset();
        }
        break;
      case xml::TokenKind::kText:
      case xml::TokenKind::kCData:
        if (stmt && stmt->in_object) object_text += reader.text();
        break;
      case xml::TokenKind::kComment:
        break;
      case xml::TokenKind::kEnd:
        done = true;
        break;
    }
  }
  return first_error;
}

}  // namespace

std::string StoreToXml(const TripleStore& store) {
  std::string out;
  WriteStore(store, &out);
  return out;
}

Status StoreFromXml(std::string_view xml_text, TripleStore* store) {
  if (store == nullptr) return Status::InvalidArgument("null store");
  TripleStore::Image image;
  SLIM_RETURN_NOT_OK(ReadStatements(xml_text, &image));
  return store->InstallImage(image);
}

std::string StoreToBinary(const TripleStore& store) {
  std::string out;
  WriteBinary(store, &out);
  return out;
}

Status DecodeStore(std::string bytes, TripleStore::Image* image) {
  if (image == nullptr || !image->strings().empty()) {
    return Status::InvalidArgument("store files decode into an empty image");
  }
  if (std::string_view(bytes).starts_with(kMagic)) {
    return ReadBinary(image->Hold(std::move(bytes)), image);
  }
  return ReadStatements(bytes, image);
}

Status SaveStore(const TripleStore& store, const std::string& path) {
  SLIM_OBS_HEARTBEAT("trim.persistence");
  FileReplacer file(path);
  WriteBinary(store, file.buffer());
  Status st = file.Commit();
  if (!st.ok()) return NotePersistenceFailure(std::move(st), "save", path);
  return st;
}

Status ReadStoreFile(const std::string& path, TripleStore::Image* image) {
  SLIM_OBS_HEARTBEAT("trim.persistence");
  Status st = [&]() -> Status {
    SLIM_ASSIGN_OR_RETURN(std::string bytes, ReadFile(path));
    return DecodeStore(std::move(bytes), image);
  }();
  if (!st.ok()) return NotePersistenceFailure(std::move(st), "load", path);
  return st;
}

Status LoadStore(const std::string& path, TripleStore* store) {
  if (store == nullptr) return Status::InvalidArgument("null store");
  TripleStore::Image image;
  SLIM_RETURN_NOT_OK(ReadStoreFile(path, &image));
  Status st = store->InstallImage(image);
  if (!st.ok()) return NotePersistenceFailure(std::move(st), "load", path);
  return st;
}

}  // namespace slim::trim
