#include "trim/persistence.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <system_error>
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

using WriteOp = TripleStore::WriteOp;

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

// Appends the store's XML to *out, calling `after_statement` (when set)
// after each statement so a file save can hand the text off in chunks.
void WriteStore(const TripleStore& store, std::string* out,
                const std::function<void()>& after_statement) {
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
    if (after_statement) after_statement();
  });
  w.End();
}

// Positions of the statements read so far, in an open-addressing table
// keyed by the triples they name: the repeat check holds no second copy of
// any triple and allocates one array, not a node per statement.
class StatementSet {
 public:
  explicit StatementSet(const std::vector<WriteOp>* ops) : ops_(ops) {}

  /// Adds the statement at position `i`; false when an equal one is in.
  bool Insert(size_t i) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    const Triple& t = (*ops_)[i].triple;
    const uint32_t hash = Hash(t);
    const size_t mask = slots_.size() - 1;
    for (size_t at = hash & mask;; at = (at + 1) & mask) {
      Slot& slot = slots_[at];
      if (slot.pos == 0) {
        slot = {static_cast<uint32_t>(i + 1), hash};
        ++size_;
        return true;
      }
      if (slot.hash == hash && (*ops_)[slot.pos - 1].triple == t) return false;
    }
  }

 private:
  struct Slot {
    uint32_t pos;  ///< Position + 1; 0 marks an empty slot.
    uint32_t hash;
  };

  static uint32_t Hash(const Triple& t) {
    std::hash<std::string> h;
    size_t seed = h(t.subject);
    seed = seed * 0x9E3779B97F4A7C15ull + h(t.property);
    seed = seed * 0x9E3779B97F4A7C15ull + h(t.object.text);
    seed += static_cast<size_t>(t.object.kind);
    return static_cast<uint32_t>(seed ^ (seed >> 32));
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::max<size_t>(1024, 2 * old.size()), Slot{0, 0});
    const size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.pos == 0) continue;
      size_t at = s.hash & mask;
      while (slots_[at].pos != 0) at = (at + 1) & mask;
      slots_[at] = s;
    }
  }

  const std::vector<WriteOp>* ops_;
  std::vector<Slot> slots_;
  size_t size_ = 0;
};

// The <trim:statement> being read: its attributes, and the text of its first
// direct <trim:resource>/<trim:literal> child.
struct PendingStatement {
  Triple triple;
  bool has_object = false;
  bool mixed_objects = false;  // both a resource and a literal child
  bool in_object = false;      // inside the first object child
};

// Add ops to reserve for `bytes` of XML: as many bytes of ops as of text. A
// saved statement takes ~130 bytes and an op 120, so a saved store seldom
// regrows the vector.
size_t OpsFor(uintmax_t bytes) {
  return static_cast<size_t>(bytes / sizeof(WriteOp));
}

// Reads and checks every statement of `xml_text` into `adds` (add ops, in
// document order) without touching any store. The error is the first
// structural error or repeated statement in document order; a syntax error
// anywhere still wins, so reading goes on to the end.
Status ReadStatements(std::string_view xml_text, std::vector<WriteOp>* adds) {
  adds->reserve(OpsFor(xml_text.size()));
  xml::Reader reader(xml_text);
  StatementSet seen(adds);
  Status first_error;
  std::optional<PendingStatement> stmt;
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
            stmt->triple.subject = *subject;
            stmt->triple.property = *property;
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
            stmt->triple.object.kind = kind;
          } else if (stmt->triple.object.kind != kind) {
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
          } else if (stmt->triple.subject.empty() ||
                     stmt->triple.property.empty()) {
            // TripleStore::Add's own check, made before anything is added.
            first_error = Status::InvalidArgument(
                "triple subject/property must be non-empty");
          } else {
            adds->push_back(WriteOp::AddOp(std::move(stmt->triple)));
            if (!seen.Insert(adds->size() - 1)) {
              first_error = Status::AlreadyExists(
                  "duplicate statement " + TripleToString(adds->back().triple));
            }
          }
          stmt.reset();
        }
        break;
      case xml::TokenKind::kText:
      case xml::TokenKind::kCData:
        // The object's text is all its descendant text (DOM InnerText).
        if (stmt && stmt->in_object) stmt->triple.object.text += reader.text();
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
  WriteStore(store, &out, nullptr);
  return out;
}

Status StoreFromXml(std::string_view xml_text, TripleStore* store) {
  if (store == nullptr) return Status::InvalidArgument("null store");
  std::vector<WriteOp> adds;
  SLIM_RETURN_NOT_OK(ReadStatements(xml_text, &adds));
  return ReplaceContents(std::move(adds), store);
}

Status ReplaceContents(std::vector<WriteOp> adds, TripleStore* store) {
  if (store == nullptr) return Status::InvalidArgument("null store");
  // One clear op, then the adds, under one writer lock: nothing another
  // writer commits can land between the removals and the adds. The adds
  // skip the duplicate probe: ReadStatements rejected repeats, and every
  // old triple is dead at the batch's epoch.
  std::vector<WriteOp> batch;
  batch.reserve(adds.size() + 1);
  batch.push_back(WriteOp::ClearOp());
  for (WriteOp& op : adds) {
    op.allow_duplicates = true;
    batch.push_back(std::move(op));
  }
  TripleStore::BatchResult result = store->ApplyBatch(std::move(batch));
  // A bulk load retires many outgrown posting lists in its one epoch; free
  // them now rather than at some later write.
  store->ReclaimRetired();
  for (const Status& status : result.statuses) {
    if (!status.ok()) return status;
  }
  return Status::OK();
}

Status SaveStore(const TripleStore& store, const std::string& path) {
  SLIM_OBS_HEARTBEAT("trim.persistence");
  FileReplacer file(path);
  WriteStore(store, file.buffer(), [&file] { file.WriteIfFull(); });
  Status st = file.Commit();
  if (!st.ok()) return NotePersistenceFailure(std::move(st), "save", path);
  return st;
}

Status ReadStoreFile(const std::string& path, std::vector<WriteOp>* adds) {
  SLIM_OBS_HEARTBEAT("trim.persistence");
  Status st = [&]() -> Status {
    // The ops are reserved before the text is read: the text, freed first
    // once the ops own their strings, then sits above the ops, and the two
    // go back to the allocator as one block rather than leaving a hole for
    // the new triples to split.
    adds->clear();
    std::error_code size_error;
    const uintmax_t bytes = std::filesystem::file_size(path, size_error);
    if (!size_error) adds->reserve(OpsFor(bytes));
    SLIM_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
    return ReadStatements(text, adds);
  }();
  if (!st.ok()) return NotePersistenceFailure(std::move(st), "load", path);
  return st;
}

Status LoadStore(const std::string& path, TripleStore* store) {
  if (store == nullptr) return Status::InvalidArgument("null store");
  std::vector<WriteOp> adds;
  SLIM_RETURN_NOT_OK(ReadStoreFile(path, &adds));
  Status st = ReplaceContents(std::move(adds), store);
  if (!st.ok()) return NotePersistenceFailure(std::move(st), "load", path);
  return st;
}

}  // namespace slim::trim
