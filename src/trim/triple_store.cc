#include "trim/triple_store.h"

#include <algorithm>
#include <cstring>
#include <new>
#include <queue>
#include <type_traits>
#include <unordered_set>

#include "obs/obs.h"

namespace slim::trim {
namespace {

// Set while a mutator holds write_mu_: reads issued by the writer thread
// itself (duplicate checks, SetOne's embedded RemoveMatching) evaluate at
// the pending epoch so a batch observes its own effects, while other
// threads keep reading the last published snapshot.
struct WriterCtx {
  const void* store = nullptr;
  uint64_t epoch = 0;
};
thread_local WriterCtx t_writer_ctx;

}  // namespace

std::string TripleToString(const Triple& t) {
  std::string out = "(" + t.subject + ", " + t.property + ", ";
  if (t.object.is_resource()) {
    out += "<" + t.object.text + ">";
  } else {
    out += "\"" + t.object.text + "\"";
  }
  out += ")";
  return out;
}

const char* TripleStore::IndexPathName(IndexPath path) {
  switch (path) {
    case IndexPath::kSubject: return "subject";
    case IndexPath::kObject: return "object";
    case IndexPath::kProperty: return "property";
    case IndexPath::kScan: return "scan";
    case IndexPath::kEmpty: return "empty";
  }
  return "scan";
}

bool TriplePattern::Matches(const Triple& t) const {
  if (subject && *subject != t.subject) return false;
  if (property && *property != t.property) return false;
  if (object && *object != t.object) return false;
  return true;
}

uint64_t TripleStore::Fnv1a(std::string_view s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

TripleStore::Record* TripleStore::RecordAt(const Guts& guts, uint32_t slot) {
  Chunk* chunk = guts.chunks[slot / kChunkSize].load(std::memory_order_seq_cst);
  return &chunk->records[slot % kChunkSize];
}

bool TripleStore::Visible(const Record& rec, uint64_t snapshot) {
  uint64_t birth = rec.birth.load(std::memory_order_relaxed);
  if (birth == 0 || birth > snapshot) return false;
  return snapshot < rec.death.load(std::memory_order_relaxed);
}

TripleStore::IndexNode* TripleStore::FindNode(const IndexMap& map,
                                              std::string_view key) {
  for (IndexNode* n = map.buckets[Bucket(key)].load(std::memory_order_seq_cst);
       n != nullptr; n = n->next) {
    if (n->key() == key) return n;
  }
  return nullptr;
}

TripleStore::IndexNode* TripleStore::FindOrCreateNode(IndexMap& map,
                                                      const std::string& key) {
  // The first spine starts right after the header, and operator delete
  // alone frees a node or a spine.
  static_assert(sizeof(IndexNode) % alignof(Spine) == 0);
  static_assert(std::is_trivially_destructible_v<IndexNode> &&
                std::is_trivially_destructible_v<Spine>);
  IndexNode* found = FindNode(map, key);
  if (found != nullptr) return found;
  std::atomic<IndexNode*>& head = map.buckets[Bucket(key)];
  // New node fully built (first spine, key bytes, header) in one block
  // before publication.
  char* block = static_cast<char*>(
      ::operator new(sizeof(IndexNode) + kFirstSpineBytes + key.size()));
  new (block + sizeof(IndexNode)) Spine(kInitialSpineCap);
  std::memcpy(block + sizeof(IndexNode) + kFirstSpineBytes, key.data(),
              key.size());
  IndexNode* node = new (block)
      IndexNode(head.load(std::memory_order_relaxed), key.size());
  head.store(node, std::memory_order_seq_cst);
  return node;
}

bool TripleStore::Post(IndexMap& map, const std::string& key, uint32_t slot,
                       const Guts& guts) {
  IndexNode* node = FindOrCreateNode(map, key);
  AppendPosting(node, slot, guts);
  return node->live.fetch_add(1, std::memory_order_relaxed) == 0;
}

void TripleStore::AppendPosting(IndexNode* node, uint32_t slot,
                                const Guts& guts) {
  Spine* spine = node->spine.load(std::memory_order_relaxed);
  uint64_t used = spine->used.load(std::memory_order_relaxed);
  if (used < spine->cap) {
    spine->slots()[used] = slot;
    spine->used.store(used + 1, std::memory_order_seq_cst);
    return;
  }
  // Grow by copy. Entries dead at or before the oldest epoch anyone could
  // still pin are dropped on the way — this is where retired postings are
  // pruned as the oldest pinned epoch advances. A future reader pins at
  // least current(), so min(MinPinned, current) bounds every reachable
  // snapshot from below.
  uint64_t cutoff = std::min(epoch_.MinPinned(), epoch_.current());
  uint64_t cap = std::max<uint64_t>(kInitialSpineCap, 2 * (used + 1));
  Spine* grown =
      new (::operator new(sizeof(Spine) + cap * sizeof(uint32_t))) Spine(cap);
  uint64_t kept = 0;
  for (uint64_t i = 0; i < used; ++i) {
    uint32_t s = spine->slots()[i];
    if (RecordAt(guts, s)->death.load(std::memory_order_relaxed) <= cutoff) {
      continue;
    }
    grown->slots()[kept++] = s;
  }
  grown->slots()[kept++] = slot;
  grown->used.store(kept, std::memory_order_relaxed);  // published by the swap
  node->spine.store(grown, std::memory_order_seq_cst);
  // The first spine goes with its node. A reader pinned at the current
  // epoch may already hold a grown one, so that is freeable one epoch
  // later.
  if (spine != node->first_spine()) {
    epoch_.Retire(epoch_.current() + 1, [spine] { ::operator delete(spine); });
  }
}

void TripleStore::FreeGuts(Guts* guts) {
  if (guts == nullptr) return;
  for (auto& c : guts->chunks) {
    delete c.load(std::memory_order_relaxed);
  }
  for (IndexMap* map : {&guts->by_subject, &guts->by_property,
                        &guts->by_object}) {
    for (auto& bucket : map->buckets) {
      IndexNode* n = bucket.load(std::memory_order_relaxed);
      while (n != nullptr) {
        IndexNode* next = n->next;
        Spine* spine = n->spine.load(std::memory_order_relaxed);
        if (spine != n->first_spine()) ::operator delete(spine);
        ::operator delete(n);  // the node, its first spine and its key
        n = next;
      }
    }
  }
  delete guts;
}

// ---------------------------------------------------------------------------
// Writer batch scope
// ---------------------------------------------------------------------------

/// One committed epoch: created by every public mutator right after taking
/// write_mu_ (construction order matters — the lock must outlive the scope
/// so the commit happens while still holding it). Ops stamp births/deaths
/// with the pending epoch; the destructor publishes it, making the whole
/// batch visible atomically, retires the batch's tombstoned payloads, and
/// periodically reclaims.
class TripleStore::WriterScope {
 public:
  explicit WriterScope(TripleStore& store) REQUIRES(store.write_mu_)
      : store_(store), epoch_(store.epoch_.current() + 1) {
    t_writer_ctx = WriterCtx{&store_, epoch_};
  }

  ~WriterScope() REQUIRES(store_.write_mu_) {
    t_writer_ctx = WriterCtx{};
    if (!dirty_) return;
    if (!dead_.empty()) {
      // Payloads freed once every pinned epoch reaches the death epoch
      // (safe = epoch_: a reader pinned at >= epoch_ can't see them).
      auto dead = std::make_shared<std::vector<Record*>>(std::move(dead_));
      store_.epoch_.Retire(epoch_, [dead] {
        for (Record* r : *dead) r->triple = Triple{};
      });
    }
    store_.epoch_.Publish(epoch_);
    if (++store_.commit_count_ % kReclaimInterval == 0) {
      store_.ReclaimLocked();
    }
  }

  WriterScope(const WriterScope&) = delete;
  WriterScope& operator=(const WriterScope&) = delete;

  uint64_t epoch() const { return epoch_; }
  void MarkDirty() { dirty_ = true; }
  void AddDead(Record* rec) { dead_.push_back(rec); }

 private:
  TripleStore& store_;
  uint64_t epoch_;
  bool dirty_ = false;
  std::vector<Record*> dead_;
};

TripleStore::ReadPin TripleStore::BeginRead() const {
  if (t_writer_ctx.store == this) {
    return ReadPin{t_writer_ctx.epoch, false};
  }
  return ReadPin{epoch_.Pin(), true};
}

void TripleStore::EndRead(ReadPin pin) const {
  if (pin.pinned) epoch_.Unpin();
}

TripleStore::~TripleStore() {
  // No reader may outlive the store; with nothing pinned every limbo entry
  // is reclaimable, and the drain must run before the guts it references
  // are freed below.
  epoch_.Reclaim();
  FreeGuts(guts_.load(std::memory_order_relaxed));
}

// ---------------------------------------------------------------------------
// Mutations
// ---------------------------------------------------------------------------

Status TripleStore::Add(Triple triple, bool allow_duplicates) {
  util::MutexLock lock(&write_mu_);
  WriterScope ws(*this);
  return AddLocked(std::move(triple), allow_duplicates, ws);
}

Status TripleStore::AddLocked(Triple triple, bool allow_duplicates,
                              WriterScope& ws) {
  if (triple.subject.empty() || triple.property.empty()) {
    SLIM_OBS_COUNT("trim.add.invalid");
    return Status::InvalidArgument("triple subject/property must be non-empty");
  }
  if (!allow_duplicates && Contains(triple)) {
    SLIM_OBS_COUNT("trim.add.duplicate");
    return Status::AlreadyExists("duplicate statement " +
                                 TripleToString(triple));
  }
  Guts* guts = guts_.load(std::memory_order_relaxed);
  if (guts != nullptr &&
      guts->size.load(std::memory_order_relaxed) >= kChunkSize * kMaxChunks) {
    // Log full: force a compaction (drops records no snapshot can see).
    MaybeCompact(/*force=*/true);
    guts = guts_.load(std::memory_order_relaxed);
  }
  if (guts == nullptr) {
    guts = new Guts();
    guts_.store(guts, std::memory_order_seq_cst);
  }
  uint64_t slot = guts->size.load(std::memory_order_relaxed);
  if (slot >= kChunkSize * kMaxChunks) {
    return Status::OutOfRange("triple store is full");
  }
  SLIM_OBS_COUNT("trim.add.ok");
  size_t chunk_idx = slot / kChunkSize;
  Chunk* chunk = guts->chunks[chunk_idx].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunk = new Chunk();
    guts->chunks[chunk_idx].store(chunk, std::memory_order_seq_cst);
  }
  Record& rec = chunk->records[slot % kChunkSize];
  rec.triple = std::move(triple);
  rec.birth.store(ws.epoch(), std::memory_order_relaxed);
  rec.death.store(EpochManager::kNeverDies, std::memory_order_relaxed);
  guts->size.store(slot + 1, std::memory_order_seq_cst);

  const Triple& t = rec.triple;
  uint32_t slot32 = static_cast<uint32_t>(slot);
  if (Post(guts->by_subject, t.subject, slot32, *guts)) {
    distinct_subjects_.fetch_add(1, std::memory_order_relaxed);
  }
  if (Post(guts->by_property, t.property, slot32, *guts)) {
    distinct_properties_.fetch_add(1, std::memory_order_relaxed);
  }
  if (Post(guts->by_object, t.object.text, slot32, *guts)) {
    distinct_objects_.fetch_add(1, std::memory_order_relaxed);
  }
  live_count_.fetch_add(1, std::memory_order_relaxed);
  ws.MarkDirty();
  return Status::OK();
}

Status TripleStore::AddLiteral(std::string subject, std::string property,
                               std::string literal) {
  return Add(Triple{std::move(subject), std::move(property),
                    Object::Literal(std::move(literal))});
}

Status TripleStore::AddResource(std::string subject, std::string property,
                                std::string resource) {
  return Add(Triple{std::move(subject), std::move(property),
                    Object::Resource(std::move(resource))});
}

Status TripleStore::Remove(const Triple& triple) {
  util::MutexLock lock(&write_mu_);
  WriterScope ws(*this);
  return RemoveLocked(triple, ws);
}

Status TripleStore::RemoveLocked(const Triple& triple, WriterScope& ws) {
  Guts* guts = guts_.load(std::memory_order_relaxed);
  uint64_t epoch = ws.epoch();
  // A key whose last live posting goes leaves its Distinct*() count.
  auto drop = [](IndexNode* node, std::atomic<uint64_t>& distinct) {
    if (node->live.fetch_sub(1, std::memory_order_relaxed) == 1) {
      distinct.fetch_sub(1, std::memory_order_relaxed);
    }
  };
  if (guts != nullptr) {
    if (IndexNode* sn = FindNode(guts->by_subject, triple.subject)) {
      Spine* spine = sn->spine.load(std::memory_order_relaxed);
      uint64_t used = spine->used.load(std::memory_order_relaxed);
      for (uint64_t i = 0; i < used; ++i) {
        Record* rec = RecordAt(*guts, spine->slots()[i]);
        if (!Visible(*rec, epoch)) continue;
        if (!(rec->triple == triple)) continue;
        rec->death.store(epoch, std::memory_order_relaxed);
        // A live record is posted in all three indexes of its guts.
        drop(sn, distinct_subjects_);
        drop(FindNode(guts->by_property, triple.property),
             distinct_properties_);
        drop(FindNode(guts->by_object, triple.object.text), distinct_objects_);
        ++dead_count_;
        max_death_epoch_ = epoch;
        live_count_.fetch_sub(1, std::memory_order_relaxed);
        ws.AddDead(rec);
        ws.MarkDirty();
        SLIM_OBS_COUNT("trim.remove.ok");
        return Status::OK();
      }
    }
  }
  SLIM_OBS_COUNT("trim.remove.not_found");
  return Status::NotFound("statement not present: " + TripleToString(triple));
}

size_t TripleStore::RemoveMatching(const TriplePattern& pattern) {
  util::MutexLock lock(&write_mu_);
  WriterScope ws(*this);
  return RemoveMatchingLocked(pattern, ws);
}

size_t TripleStore::RemoveMatchingLocked(const TriplePattern& pattern,
                                         WriterScope& ws) {
  std::vector<Triple> victims = Select(pattern);
  for (const Triple& t : victims) {
    RemoveLocked(t, ws).ok();  // each was just observed live
  }
  return victims.size();
}

TripleStore::BatchResult TripleStore::ApplyBatch(std::vector<WriteOp> ops) {
  util::MutexLock lock(&write_mu_);
  WriterScope ws(*this);
  BatchResult result;
  result.epoch = ws.epoch();
  result.statuses.reserve(ops.size());
  for (WriteOp& op : ops) {
    Status s = op.kind == WriteOp::Kind::kAdd
                   ? AddLocked(std::move(op.triple), op.allow_duplicates, ws)
                   : RemoveLocked(op.triple, ws);
    if (s.ok()) ++result.applied;
    result.statuses.push_back(std::move(s));
  }
  return result;
}

Status TripleStore::SetOne(const std::string& subject,
                           const std::string& property, Object object) {
  SLIM_OBS_COUNT("trim.set_one.calls");
  util::MutexLock lock(&write_mu_);
  WriterScope ws(*this);
  RemoveMatchingLocked(TriplePattern::BySubjectProperty(subject, property), ws);
  return AddLocked(Triple{subject, property, std::move(object)},
                   /*allow_duplicates=*/false, ws);
}

void TripleStore::Clear() {
  util::MutexLock lock(&write_mu_);
  {
    WriterScope ws(*this);
    uint64_t epoch = ws.epoch();
    if (Guts* guts = guts_.load(std::memory_order_relaxed)) {
      uint64_t n = guts->size.load(std::memory_order_relaxed);
      for (uint64_t slot = 0; slot < n; ++slot) {
        Record* rec = RecordAt(*guts, static_cast<uint32_t>(slot));
        if (rec->death.load(std::memory_order_relaxed) !=
            EpochManager::kNeverDies) {
          continue;
        }
        rec->death.store(epoch, std::memory_order_relaxed);
        ws.AddDead(rec);
        ++dead_count_;
        max_death_epoch_ = epoch;
        ws.MarkDirty();
      }
      // Every key loses its live postings with them.
      for (IndexMap* map :
           {&guts->by_subject, &guts->by_property, &guts->by_object}) {
        for (auto& bucket : map->buckets) {
          for (IndexNode* node = bucket.load(std::memory_order_relaxed);
               node != nullptr; node = node->next) {
            node->live.store(0, std::memory_order_relaxed);
          }
        }
      }
    }
    live_count_.store(0, std::memory_order_relaxed);
    distinct_subjects_.store(0, std::memory_order_relaxed);
    distinct_properties_.store(0, std::memory_order_relaxed);
    distinct_objects_.store(0, std::memory_order_relaxed);
  }
  // Quiescent stores drop straight back to empty guts here; pinned readers
  // keep their snapshot and the reset waits for them.
  ReclaimLocked();
}

// ---------------------------------------------------------------------------
// Reclamation & compaction
// ---------------------------------------------------------------------------

void TripleStore::MaybeCompact(bool force) {
  uint64_t dead = dead_count_;
  if (dead == 0) return;
  uint64_t live = live_count_.load(std::memory_order_relaxed);
  if (!force && live != 0 &&
      (dead < kCompactDeadFloor || dead < live)) {
    return;
  }
  // Every dead record in the log died at or before max_death_epoch_; the
  // compacted guts may drop them only when no pinned reader can still see
  // any of them.
  if (epoch_.MinPinned() <= max_death_epoch_) return;
  Guts* old = guts_.load(std::memory_order_relaxed);
  if (old == nullptr) return;

  // Rebuilding the indexes from the surviving records carries every key's
  // live count (and so the Distinct*() counters) over unchanged.
  Guts* fresh = nullptr;
  if (live != 0) {
    fresh = new Guts();
    uint64_t n = old->size.load(std::memory_order_relaxed);
    for (uint64_t slot = 0; slot < n; ++slot) {
      Record* rec = RecordAt(*old, static_cast<uint32_t>(slot));
      if (rec->death.load(std::memory_order_relaxed) !=
          EpochManager::kNeverDies) {
        continue;
      }
      uint64_t dst_slot = fresh->size.load(std::memory_order_relaxed);
      size_t chunk_idx = dst_slot / kChunkSize;
      Chunk* chunk = fresh->chunks[chunk_idx].load(std::memory_order_relaxed);
      if (chunk == nullptr) {
        chunk = new Chunk();
        fresh->chunks[chunk_idx].store(chunk, std::memory_order_seq_cst);
      }
      Record& dst = chunk->records[dst_slot % kChunkSize];
      dst.triple = rec->triple;
      // Keep the birth stamp: a reader pinned before this record appeared
      // must still not see it through the compacted guts.
      dst.birth.store(rec->birth.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
      fresh->size.store(dst_slot + 1, std::memory_order_seq_cst);
      uint32_t slot32 = static_cast<uint32_t>(dst_slot);
      Post(fresh->by_subject, dst.triple.subject, slot32, *fresh);
      Post(fresh->by_property, dst.triple.property, slot32, *fresh);
      Post(fresh->by_object, dst.triple.object.text, slot32, *fresh);
    }
  }
  guts_.store(fresh, std::memory_order_seq_cst);
  dead_count_ = 0;
  max_death_epoch_ = 0;
  // Readers pinned at the current epoch may hold the old guts pointer.
  epoch_.Retire(epoch_.current() + 1, [old] { FreeGuts(old); });
}

void TripleStore::ReclaimLocked() {
  MaybeCompact();
  epoch_.Reclaim();
}

size_t TripleStore::ReclaimRetired() {
  util::MutexLock lock(&write_mu_);
  MaybeCompact();
  return epoch_.Reclaim();
}

// ---------------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------------

bool TripleStore::Contains(const Triple& triple) const {
  ReadPin pin = BeginRead();
  bool found = false;
  const Guts* guts = guts_.load(std::memory_order_seq_cst);
  if (guts != nullptr) {
    if (const IndexNode* sn = FindNode(guts->by_subject, triple.subject)) {
      const Spine* spine = sn->spine.load(std::memory_order_seq_cst);
      uint64_t used = spine->used.load(std::memory_order_seq_cst);
      for (uint64_t i = 0; i < used; ++i) {
        Record* rec = RecordAt(*guts, spine->slots()[i]);
        if (Visible(*rec, pin.snapshot) && rec->triple == triple) {
          found = true;
          break;
        }
      }
    }
  }
  EndRead(pin);
  return found;
}

TripleStore::PathChoice TripleStore::ChoosePath(const TriplePattern& pattern,
                                                uint64_t snapshot,
                                                const Guts* guts) {
  PathChoice chosen;
  bool have = false;

  // Visible candidates under one fixed key. node->live is the exact live
  // count when quiescent; when it reads 0 the spine is walked so a pinned
  // snapshot that can still see entries is never short-circuited to kEmpty.
  auto count = [&](const IndexNode* node) -> uint64_t {
    if (node == nullptr) return 0;
    uint64_t live = node->live.load(std::memory_order_relaxed);
    if (live != 0) return live;
    const Spine* spine = node->spine.load(std::memory_order_seq_cst);
    uint64_t used = spine->used.load(std::memory_order_seq_cst);
    uint64_t visible = 0;
    for (uint64_t j = 0; j < used; ++j) {
      if (Visible(*RecordAt(*guts, spine->slots()[j]), snapshot)) ++visible;
    }
    return visible;
  };

  // Subject, then object, then property: a provably-empty key wins
  // outright, otherwise the strictly smaller candidate list. Returns true
  // when no further index is worth probing.
  auto consider = [&](IndexPath path, IndexMap Guts::*index,
                      std::string_view key) {
    const IndexNode* node =
        guts != nullptr ? FindNode(guts->*index, key) : nullptr;
    uint64_t n = count(node);
    if (n == 0) {
      chosen = PathChoice{IndexPath::kEmpty, 0, nullptr};
      return true;  // can't get more selective than empty
    }
    if (!have || n < chosen.candidates) {
      chosen = PathChoice{path, n, node};
      have = true;
    }
    return chosen.candidates <= kShortList;
  };

  if (pattern.subject &&
      consider(IndexPath::kSubject, &Guts::by_subject, *pattern.subject)) {
    return chosen;
  }
  if (pattern.object &&
      consider(IndexPath::kObject, &Guts::by_object, pattern.object->text)) {
    return chosen;
  }
  if (pattern.property &&
      consider(IndexPath::kProperty, &Guts::by_property, *pattern.property)) {
    return chosen;
  }
  if (!have) {
    // Full scan: candidate count is every published record slot, dead ones
    // included (they are "candidates the path offers" and get filtered).
    chosen.candidates =
        guts != nullptr ? guts->size.load(std::memory_order_seq_cst) : 0;
  }
  return chosen;
}

std::vector<Triple> TripleStore::Select(const TriplePattern& pattern) const {
  std::vector<Triple> out;
  SelectEach(pattern, [&](const Triple& t) {
    out.push_back(t);
    return true;
  });
  return out;
}

void TripleStore::SelectEach(const TriplePattern& pattern,
                             const std::function<bool(const Triple&)>& fn,
                             SelectStats* stats) const {
  SLIM_OBS_COUNT("trim.select.calls");
  ReadPin pin = BeginRead();
  const Guts* guts = guts_.load(std::memory_order_seq_cst);
  PathChoice choice = ChoosePath(pattern, pin.snapshot, guts);
  switch (choice.path) {
    case IndexPath::kSubject: SLIM_OBS_COUNT("trim.select.index.subject"); break;
    case IndexPath::kObject: SLIM_OBS_COUNT("trim.select.index.object"); break;
    case IndexPath::kProperty: SLIM_OBS_COUNT("trim.select.index.property"); break;
    case IndexPath::kScan: SLIM_OBS_COUNT("trim.select.index.scan"); break;
    case IndexPath::kEmpty: SLIM_OBS_COUNT("trim.select.index.empty"); break;
  }
  if (stats != nullptr) {
    stats->path = choice.path;
    stats->candidates = choice.candidates;
  }
  auto visit = [&](Record* rec) {
    if (!Visible(*rec, pin.snapshot)) return true;
    if (stats != nullptr) ++stats->examined;
    if (!pattern.Matches(rec->triple)) return true;
    if (stats != nullptr) ++stats->matched;
    return fn(rec->triple);
  };
  if (choice.path == IndexPath::kScan) {
    uint64_t n = choice.candidates;
    for (uint64_t slot = 0; slot < n; ++slot) {
      if (!visit(RecordAt(*guts, static_cast<uint32_t>(slot)))) break;
    }
  } else if (choice.node != nullptr) {
    const Spine* spine =
        choice.node->spine.load(std::memory_order_seq_cst);
    uint64_t used = spine->used.load(std::memory_order_seq_cst);
    for (uint64_t j = 0; j < used; ++j) {
      if (!visit(RecordAt(*guts, spine->slots()[j]))) break;
    }
  }
  EndRead(pin);
}

TripleStore::AccessPlan TripleStore::PlanAccess(
    const TriplePattern& pattern) const {
  ReadPin pin = BeginRead();
  PathChoice choice = ChoosePath(pattern, pin.snapshot,
                                 guts_.load(std::memory_order_seq_cst));
  AccessPlan plan;
  plan.path = choice.path;
  plan.candidates =
      choice.path == IndexPath::kScan ? size() : choice.candidates;
  EndRead(pin);
  return plan;
}

std::optional<Object> TripleStore::GetOne(const std::string& subject,
                                          const std::string& property) const {
  SLIM_OBS_COUNT("trim.get_one.calls");
  std::optional<Object> out;
  SelectEach(TriplePattern::BySubjectProperty(subject, property),
             [&](const Triple& t) {
               out = t.object;
               return false;
             });
  return out;
}

std::vector<Triple> TripleStore::ViewFrom(const std::string& resource) const {
  SLIM_OBS_COUNT("trim.view.calls");
  SLIM_OBS_TIMER(timer, "trim.view.latency_us");
  ReadPin pin = BeginRead();
  std::vector<Triple> out;
  std::unordered_set<std::string> visited;
  std::queue<std::string> frontier;
  frontier.push(resource);
  visited.insert(resource);
  const Guts* guts = guts_.load(std::memory_order_seq_cst);
  while (guts != nullptr && !frontier.empty()) {
    std::string cur = std::move(frontier.front());
    frontier.pop();
    const IndexNode* sn = FindNode(guts->by_subject, cur);
    if (sn == nullptr) continue;
    const Spine* spine = sn->spine.load(std::memory_order_seq_cst);
    uint64_t used = spine->used.load(std::memory_order_seq_cst);
    for (uint64_t i = 0; i < used; ++i) {
      Record* rec = RecordAt(*guts, spine->slots()[i]);
      if (!Visible(*rec, pin.snapshot)) continue;
      const Triple& t = rec->triple;
      out.push_back(t);
      if (t.object.is_resource() && visited.insert(t.object.text).second) {
        frontier.push(t.object.text);
      }
    }
  }
  EndRead(pin);
  SLIM_OBS_HISTOGRAM("trim.view.fanout", out.size());
  return out;
}

std::vector<std::string> TripleStore::ReachableResources(
    const std::string& resource) const {
  ReadPin pin = BeginRead();
  std::vector<std::string> out;
  std::unordered_set<std::string> visited;
  std::queue<std::string> frontier;
  frontier.push(resource);
  visited.insert(resource);
  out.push_back(resource);
  const Guts* guts = guts_.load(std::memory_order_seq_cst);
  while (guts != nullptr && !frontier.empty()) {
    std::string cur = std::move(frontier.front());
    frontier.pop();
    const IndexNode* sn = FindNode(guts->by_subject, cur);
    if (sn == nullptr) continue;
    const Spine* spine = sn->spine.load(std::memory_order_seq_cst);
    uint64_t used = spine->used.load(std::memory_order_seq_cst);
    for (uint64_t i = 0; i < used; ++i) {
      Record* rec = RecordAt(*guts, spine->slots()[i]);
      if (!Visible(*rec, pin.snapshot)) continue;
      const Triple& t = rec->triple;
      if (t.object.is_resource() && visited.insert(t.object.text).second) {
        out.push_back(t.object.text);
        frontier.push(t.object.text);
      }
    }
  }
  EndRead(pin);
  return out;
}

void TripleStore::ForEach(const std::function<void(const Triple&)>& fn) const {
  ReadPin pin = BeginRead();
  if (const Guts* guts = guts_.load(std::memory_order_seq_cst)) {
    uint64_t n = guts->size.load(std::memory_order_seq_cst);
    for (uint64_t slot = 0; slot < n; ++slot) {
      Record* rec = RecordAt(*guts, static_cast<uint32_t>(slot));
      if (Visible(*rec, pin.snapshot)) fn(rec->triple);
    }
  }
  EndRead(pin);
}

size_t TripleStore::ApproximateBytes() const {
  size_t bytes = 0;
  ForEach([&bytes](const Triple& t) {
    bytes += sizeof(Triple);
    bytes += t.subject.capacity() + t.property.capacity() +
             t.object.text.capacity();
    bytes += 3 * sizeof(uint32_t);  // index postings
  });
  return bytes;
}

}  // namespace slim::trim
