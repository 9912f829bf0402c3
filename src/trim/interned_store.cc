#include "trim/interned_store.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <queue>
#include <unordered_set>

#include "util/file.h"

namespace slim::trim {

namespace {

void AppendU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

bool ReadU32(std::string_view data, size_t* offset, uint32_t* v) {
  if (*offset + 4 > data.size()) return false;
  std::memcpy(v, data.data() + *offset, 4);
  *offset += 4;
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// StringPool
// ---------------------------------------------------------------------------

uint32_t StringPool::Intern(std::string_view s) {
  auto it = index_.find(s);
  if (it != index_.end()) return it->second;
  strings_.emplace_back(s);
  uint32_t id = static_cast<uint32_t>(strings_.size() - 1);
  index_[std::string_view(strings_.back())] = id;
  return id;
}

std::optional<uint32_t> StringPool::Find(std::string_view s) const {
  auto it = index_.find(s);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

size_t StringPool::ApproximateBytes() const {
  size_t bytes = 0;
  for (const std::string& s : strings_) {
    bytes += sizeof(std::string) + s.capacity();
  }
  // Hash-map node overhead estimate: view + id + bucket pointer.
  bytes += index_.size() * (sizeof(std::string_view) + sizeof(uint32_t) +
                            2 * sizeof(void*));
  return bytes;
}

void StringPool::AppendTo(std::string* out) const {
  AppendU32(out, static_cast<uint32_t>(strings_.size()));
  for (const std::string& s : strings_) {
    AppendU32(out, static_cast<uint32_t>(s.size()));
    out->append(s);
  }
}

Result<StringPool> StringPool::ReadFrom(std::string_view data,
                                        size_t* offset) {
  StringPool pool;
  uint32_t count = 0;
  if (!ReadU32(data, offset, &count)) {
    return Status::ParseError("string pool: truncated count");
  }
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t len = 0;
    if (!ReadU32(data, offset, &len) || *offset + len > data.size()) {
      return Status::ParseError("string pool: truncated entry " +
                                std::to_string(i));
    }
    uint32_t id = pool.Intern(data.substr(*offset, len));
    if (id != i) {
      return Status::ParseError("string pool: duplicate entry " +
                                std::to_string(i));
    }
    *offset += len;
  }
  return pool;
}

// ---------------------------------------------------------------------------
// InternedTripleStore
// ---------------------------------------------------------------------------

Triple InternedTripleStore::MakeTriple(const Row& row) const {
  return Triple{pool_.Get(row.subject), pool_.Get(row.property),
                Object{row.object_is_resource ? ObjectKind::kResource
                                              : ObjectKind::kLiteral,
                       pool_.Get(row.object)}};
}

size_t InternedTripleStore::FindRow(const Triple& triple) const {
  auto s = pool_.Find(triple.subject);
  auto p = pool_.Find(triple.property);
  auto o = pool_.Find(triple.object.text);
  if (!s || !p || !o) return SIZE_MAX;
  auto bucket = subject_rows_.find(*s);
  if (bucket == subject_rows_.end()) return SIZE_MAX;
  for (uint32_t idx : bucket->second) {
    const Row& row = rows_[idx];
    if (row.dead) continue;
    if (row.property == *p && row.object == *o &&
        (row.object_is_resource != 0) == triple.object.is_resource()) {
      return idx;
    }
  }
  return SIZE_MAX;
}

Status InternedTripleStore::Add(const Triple& triple, bool allow_duplicates) {
  if (triple.subject.empty() || triple.property.empty()) {
    return Status::InvalidArgument("triple subject/property must be non-empty");
  }
  if (!allow_duplicates && FindRow(triple) != SIZE_MAX) {
    return Status::AlreadyExists("duplicate statement " +
                                 TripleToString(triple));
  }
  Row row;
  row.subject = pool_.Intern(triple.subject);
  row.property = pool_.Intern(triple.property);
  row.object = pool_.Intern(triple.object.text);
  row.object_is_resource = triple.object.is_resource() ? 1 : 0;
  row.dead = 0;
  rows_.push_back(row);
  subject_rows_[row.subject].push_back(
      static_cast<uint32_t>(rows_.size() - 1));
  ++live_count_;
  indexes_valid_ = false;
  return Status::OK();
}

Status InternedTripleStore::AddLiteral(const std::string& subject,
                                       const std::string& property,
                                       const std::string& literal) {
  return Add(Triple{subject, property, Object::Literal(literal)});
}

Status InternedTripleStore::AddResource(const std::string& subject,
                                        const std::string& property,
                                        const std::string& resource) {
  return Add(Triple{subject, property, Object::Resource(resource)});
}

Status InternedTripleStore::Remove(const Triple& triple) {
  size_t idx = FindRow(triple);
  if (idx == SIZE_MAX) {
    return Status::NotFound("statement not present: " +
                            TripleToString(triple));
  }
  rows_[idx].dead = 1;
  --live_count_;
  // Tombstoning keeps postings usable (dead rows are skipped on read), so
  // the indexes stay valid.
  return Status::OK();
}

bool InternedTripleStore::Contains(const Triple& triple) const {
  return FindRow(triple) != SIZE_MAX;
}

void InternedTripleStore::EnsureIndexes() const {
  if (indexes_valid_) return;
  by_property_.resize(rows_.size());
  by_object_.resize(rows_.size());
  for (uint32_t i = 0; i < rows_.size(); ++i) {
    by_property_[i] = i;
    by_object_[i] = i;
  }
  std::sort(by_property_.begin(), by_property_.end(),
            [&](uint32_t a, uint32_t b) {
              return rows_[a].property != rows_[b].property
                         ? rows_[a].property < rows_[b].property
                         : a < b;
            });
  std::sort(by_object_.begin(), by_object_.end(),
            [&](uint32_t a, uint32_t b) {
              return rows_[a].object != rows_[b].object
                         ? rows_[a].object < rows_[b].object
                         : a < b;
            });
  indexes_valid_ = true;
}

void InternedTripleStore::Compact() {
  // Physically drop tombstones, then rebuild postings.
  std::vector<Row> live;
  live.reserve(live_count_);
  for (const Row& row : rows_) {
    if (!row.dead) live.push_back(row);
  }
  rows_ = std::move(live);
  subject_rows_.clear();
  for (uint32_t i = 0; i < rows_.size(); ++i) {
    subject_rows_[rows_[i].subject].push_back(i);
  }
  indexes_valid_ = false;
  EnsureIndexes();
}

bool InternedTripleStore::RowMatches(const Row& row,
                                     const std::optional<uint32_t>& s,
                                     const std::optional<uint32_t>& p,
                                     const std::optional<uint32_t>& o,
                                     const std::optional<bool>& o_res) const {
  if (row.dead) return false;
  if (s && row.subject != *s) return false;
  if (p && row.property != *p) return false;
  if (o && row.object != *o) return false;
  if (o_res && (row.object_is_resource != 0) != *o_res) return false;
  return true;
}

void InternedTripleStore::SelectEach(
    const TriplePattern& pattern,
    const std::function<bool(const Triple&)>& fn) const {
  // Resolve pattern fields to ids; an unmatched fixed field -> no results.
  std::optional<uint32_t> s, p, o;
  std::optional<bool> o_res;
  if (pattern.subject) {
    auto id = pool_.Find(*pattern.subject);
    if (!id) return;
    s = *id;
  }
  if (pattern.property) {
    auto id = pool_.Find(*pattern.property);
    if (!id) return;
    p = *id;
  }
  if (pattern.object) {
    auto id = pool_.Find(pattern.object->text);
    if (!id) return;
    o = *id;
    o_res = pattern.object->is_resource();
  }

  auto scan_postings = [&](const std::vector<uint32_t>& postings,
                           uint32_t key,
                           auto key_of) {
    auto begin = std::lower_bound(
        postings.begin(), postings.end(), key,
        [&](uint32_t row_idx, uint32_t k) { return key_of(rows_[row_idx]) < k; });
    for (auto it = begin; it != postings.end() && key_of(rows_[*it]) == key;
         ++it) {
      const Row& row = rows_[*it];
      if (RowMatches(row, s, p, o, o_res)) {
        if (!fn(MakeTriple(row))) return;
      }
    }
  };

  if (s) {
    auto bucket = subject_rows_.find(*s);
    if (bucket == subject_rows_.end()) return;
    for (uint32_t idx : bucket->second) {
      const Row& row = rows_[idx];
      if (RowMatches(row, s, p, o, o_res)) {
        if (!fn(MakeTriple(row))) return;
      }
    }
    return;
  }
  EnsureIndexes();
  if (o) {
    scan_postings(by_object_, *o, [](const Row& r) { return r.object; });
    return;
  }
  if (p) {
    scan_postings(by_property_, *p, [](const Row& r) { return r.property; });
    return;
  }
  for (const Row& row : rows_) {
    if (!row.dead) {
      if (!fn(MakeTriple(row))) return;
    }
  }
}

std::vector<Triple> InternedTripleStore::Select(
    const TriplePattern& pattern) const {
  std::vector<Triple> out;
  SelectEach(pattern, [&](const Triple& t) {
    out.push_back(t);
    return true;
  });
  return out;
}

std::optional<Object> InternedTripleStore::GetOne(
    const std::string& subject, const std::string& property) const {
  std::optional<Object> out;
  SelectEach(TriplePattern::BySubjectProperty(subject, property),
             [&](const Triple& t) {
               out = t.object;
               return false;
             });
  return out;
}

std::vector<Triple> InternedTripleStore::ViewFrom(
    const std::string& resource) const {
  std::vector<Triple> out;
  auto start = pool_.Find(resource);
  if (!start) return out;
  std::unordered_set<uint32_t> visited{*start};
  std::queue<uint32_t> frontier;
  frontier.push(*start);
  while (!frontier.empty()) {
    uint32_t cur = frontier.front();
    frontier.pop();
    auto bucket = subject_rows_.find(cur);
    if (bucket == subject_rows_.end()) continue;
    for (uint32_t idx : bucket->second) {
      const Row& row = rows_[idx];
      if (row.dead) continue;
      out.push_back(MakeTriple(row));
      if (row.object_is_resource && visited.insert(row.object).second) {
        frontier.push(row.object);
      }
    }
  }
  return out;
}

void InternedTripleStore::Clear() {
  rows_.clear();
  live_count_ = 0;
  indexes_valid_ = false;
  subject_rows_.clear();
  by_property_.clear();
  by_object_.clear();
  pool_ = StringPool();
}

void InternedTripleStore::ForEach(
    const std::function<void(const Triple&)>& fn) const {
  for (const Row& row : rows_) {
    if (!row.dead) fn(MakeTriple(row));
  }
}

size_t InternedTripleStore::ApproximateBytes() const {
  size_t bytes = pool_.ApproximateBytes();
  bytes += rows_.capacity() * sizeof(Row);
  bytes += (by_property_.capacity() + by_object_.capacity()) *
           sizeof(uint32_t);
  for (const auto& [key, vec] : subject_rows_) {
    bytes += sizeof(key) + vec.capacity() * sizeof(uint32_t) +
             2 * sizeof(void*);
  }
  return bytes;
}

std::string InternedTripleStore::SerializeBinary() const {
  std::string out = "SLIMBIN1";
  pool_.AppendTo(&out);
  AppendU32(&out, static_cast<uint32_t>(live_count_));
  for (const Row& row : rows_) {
    if (row.dead) continue;
    AppendU32(&out, row.subject);
    AppendU32(&out, row.property);
    // Kind bit packed into the high bit of the object id.
    AppendU32(&out, row.object | (row.object_is_resource ? 0x80000000u : 0));
  }
  return out;
}

Result<InternedTripleStore> InternedTripleStore::DeserializeBinary(
    std::string_view data) {
  if (data.substr(0, 8) != "SLIMBIN1") {
    return Status::ParseError("missing SLIMBIN1 magic");
  }
  size_t offset = 8;
  SLIM_ASSIGN_OR_RETURN(StringPool pool, StringPool::ReadFrom(data, &offset));
  uint32_t count = 0;
  if (!ReadU32(data, &offset, &count)) {
    return Status::ParseError("truncated triple count");
  }
  InternedTripleStore store;
  store.pool_ = std::move(pool);
  store.rows_.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t s, p, o_packed;
    if (!ReadU32(data, &offset, &s) || !ReadU32(data, &offset, &p) ||
        !ReadU32(data, &offset, &o_packed)) {
      return Status::ParseError("truncated triple " + std::to_string(i));
    }
    uint32_t o = o_packed & 0x7FFFFFFFu;
    if (s >= store.pool_.size() || p >= store.pool_.size() ||
        o >= store.pool_.size()) {
      return Status::ParseError("triple " + std::to_string(i) +
                                " references out-of-pool string");
    }
    Row row{s, p, o,
            static_cast<uint8_t>((o_packed & 0x80000000u) ? 1 : 0), 0};
    store.rows_.push_back(row);
  }
  store.live_count_ = count;
  for (uint32_t i = 0; i < store.rows_.size(); ++i) {
    store.subject_rows_[store.rows_[i].subject].push_back(i);
  }
  if (offset != data.size()) {
    return Status::ParseError("trailing bytes after triples");
  }
  return store;
}

Status InternedTripleStore::SaveBinary(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  std::string data = SerializeBinary();
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  if (!out.good()) return Status::IoError("write failed for '" + path + "'");
  return Status::OK();
}

Result<InternedTripleStore> InternedTripleStore::LoadBinary(
    const std::string& path) {
  SLIM_ASSIGN_OR_RETURN(std::string data, ReadFile(path));
  return DeserializeBinary(data);
}

}  // namespace slim::trim
