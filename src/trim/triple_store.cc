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

void* TripleStore::Arena::Allocate(size_t bytes) {
  bytes = (bytes + 7) & ~size_t{7};
  if (bytes > kBlockBytes / 4) {
    // A long key gets a block of its own; the current block stays open.
    blocks_.push_back(static_cast<char*>(::operator new(bytes)));
    return blocks_.back();
  }
  if (bytes > left_) {
    blocks_.push_back(static_cast<char*>(::operator new(kBlockBytes)));
    next_ = blocks_.back();
    left_ = kBlockBytes;
  }
  void* out = next_;
  next_ += bytes;
  left_ -= bytes;
  return out;
}

TripleStore::Arena::~Arena() {
  for (char* block : blocks_) ::operator delete(block);
}

TripleStore::KeyNode* TripleStore::FindKey(const Guts& guts, uint32_t hash,
                                           std::string_view key) {
  const KeyIndex* index = guts.index.load(std::memory_order_seq_cst);
  if (index == nullptr) return nullptr;
  uint32_t next =
      index->heads[hash & (index->heads.size() - 1)].load(
          std::memory_order_seq_cst);
  while (next != 0) {
    const KeyId id = next - 1;
    const uint64_t link = index->links[id].load(std::memory_order_seq_cst);
    if (static_cast<uint32_t>(link >> 32) == hash) {
      KeyNode* node = NodeOf(guts, id);
      if (node->key() == key) return node;
    }
    next = static_cast<uint32_t>(link);
  }
  return nullptr;
}

void TripleStore::LinkKey(KeyIndex* index, KeyId id, uint32_t hash) {
  std::atomic<uint32_t>& head = index->heads[hash & (index->heads.size() - 1)];
  index->links[id].store(
      (uint64_t{hash} << 32) | head.load(std::memory_order_relaxed),
      std::memory_order_seq_cst);
  head.store(id + 1, std::memory_order_seq_cst);
}

TripleStore::KeyNode* TripleStore::CreateKey(Guts& guts, uint32_t hash,
                                             std::string_view key) {
  // Arena memory is never destroyed piecemeal.
  static_assert(std::is_trivially_destructible_v<KeyNode> &&
                std::is_trivially_destructible_v<Spine>);
  const KeyId id = guts.key_count.load(std::memory_order_relaxed);
  char* block =
      static_cast<char*>(guts.arena.Allocate(sizeof(KeyNode) + key.size()));
  std::memcpy(block + sizeof(KeyNode), key.data(), key.size());
  KeyNode* node = new (block) KeyNode(id, key.size());
  // The node is in the id table before any record or chain can name it.
  std::atomic<KeyChunk*>& chunk_ptr = guts.key_chunks[id / kKeyChunkSize];
  KeyChunk* chunk = chunk_ptr.load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunk = new KeyChunk();
    chunk_ptr.store(chunk, std::memory_order_seq_cst);
  }
  chunk->nodes[id % kKeyChunkSize].store(node, std::memory_order_seq_cst);

  KeyIndex* index = guts.index.load(std::memory_order_relaxed);
  if (index == nullptr || id == index->capacity()) {
    // Relink every id from the hashes the old links keep; the old index
    // stays whole for readers that already hold it.
    KeyIndex* grown = new KeyIndex(
        index == nullptr ? kInitialKeyCapacity : 2 * index->capacity());
    for (KeyId old = 0; old < id; ++old) {
      LinkKey(grown, old,
              static_cast<uint32_t>(
                  index->links[old].load(std::memory_order_relaxed) >> 32));
    }
    guts.index.store(grown, std::memory_order_seq_cst);
    if (index != nullptr) {
      epoch_.Retire(epoch_.current() + 1, [index] { delete index; });
    }
    index = grown;
  }
  LinkKey(index, id, hash);
  guts.key_count.store(id + 1, std::memory_order_seq_cst);
  return node;
}

bool TripleStore::Post(Guts& guts, KeyNode* node, Field field,
                       uint32_t slot) {
  Postings& postings = node->postings[field];
  if (postings.spine.load(std::memory_order_relaxed) == nullptr) {
    Spine* first =
        new (guts.arena.Allocate(kFirstSpineBytes)) Spine(kInitialSpineCap);
    first->slots()[0] = slot;
    first->used.store(1, std::memory_order_relaxed);  // published below
    postings.spine.store(first, std::memory_order_seq_cst);
  } else {
    AppendPosting(postings, slot, guts);
  }
  return postings.live.fetch_add(1, std::memory_order_relaxed) == 0;
}

void TripleStore::AppendPosting(Postings& postings, uint32_t slot,
                                const Guts& guts) {
  Spine* spine = postings.spine.load(std::memory_order_relaxed);
  uint32_t used = spine->used.load(std::memory_order_relaxed);
  if (used == spine->cap) {
    spine = GrowSpine(postings, 2 * (used + 1), guts);
    used = spine->used.load(std::memory_order_relaxed);
  }
  spine->slots()[used] = slot;
  spine->used.store(used + 1, std::memory_order_seq_cst);
}

TripleStore::Spine* TripleStore::GrowSpine(Postings& postings, uint32_t cap,
                                           const Guts& guts) {
  // Entries dead at or before the oldest epoch anyone could still pin are
  // dropped on the way — this is where retired postings are pruned as the
  // oldest pinned epoch advances. A future reader pins at least current(),
  // so min(MinPinned, current) bounds every reachable snapshot from below.
  Spine* spine = postings.spine.load(std::memory_order_relaxed);
  const uint32_t used = spine->used.load(std::memory_order_relaxed);
  uint64_t cutoff = std::min(epoch_.MinPinned(), epoch_.current());
  Spine* grown =
      new (::operator new(sizeof(Spine) + cap * sizeof(uint32_t))) Spine(cap);
  uint32_t kept = 0;
  for (uint32_t i = 0; i < used; ++i) {
    uint32_t s = spine->slots()[i];
    if (RecordAt(guts, s)->death.load(std::memory_order_relaxed) <= cutoff) {
      continue;
    }
    grown->slots()[kept++] = s;
  }
  grown->used.store(kept, std::memory_order_relaxed);  // published by the swap
  postings.spine.store(grown, std::memory_order_seq_cst);
  // The first spine goes with its log's arena. A reader pinned at the
  // current epoch may already hold a grown one, so that is freeable one
  // epoch later.
  if (!spine->in_arena()) {
    epoch_.Retire(epoch_.current() + 1, [spine] { ::operator delete(spine); });
  }
  return grown;
}

void TripleStore::FreeGuts(Guts* guts) {
  if (guts == nullptr) return;
  for (auto& c : guts->chunks) {
    delete c.load(std::memory_order_relaxed);
  }
  const KeyId keys = guts->key_count.load(std::memory_order_relaxed);
  for (KeyId id = 0; id < keys; ++id) {
    for (const Postings& postings : NodeOf(*guts, id)->postings) {
      Spine* spine = postings.spine.load(std::memory_order_relaxed);
      if (spine != nullptr && !spine->in_arena()) ::operator delete(spine);
    }
  }
  for (auto& c : guts->key_chunks) {
    delete c.load(std::memory_order_relaxed);
  }
  delete guts->index.load(std::memory_order_relaxed);
  delete guts;  // its arena frees the key nodes and first spines
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

Status TripleStore::Add(Triple triple) {
  util::MutexLock lock(&write_mu_);
  WriterScope ws(*this);
  return AddLocked(std::move(triple), ws);
}

Status TripleStore::AddLocked(Triple triple, WriterScope& ws) {
  if (triple.subject.empty() || triple.property.empty()) {
    SLIM_OBS_COUNT("trim.add.invalid");
    return Status::InvalidArgument("triple subject/property must be non-empty");
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
  // Each field is hashed once. A statement with a key the store does not
  // hold cannot be a duplicate; otherwise the subject's postings are
  // compared by id at the pending epoch, so the batch sees its own adds.
  const std::array<std::string_view, 3> text = {triple.subject,
                                                triple.property,
                                                triple.object.text};
  std::array<uint32_t, 3> hash{};
  std::array<KeyNode*, 3> node{};
  for (size_t f = 0; f < 3; ++f) {
    hash[f] = KeyHash(text[f]);
    node[f] = FindKey(*guts, hash[f], text[f]);
  }
  if (node[0] != nullptr && node[1] != nullptr && node[2] != nullptr &&
      FindExact(guts, ws.epoch(),
                KeyPattern{node[0]->id, node[1]->id, node[2]->id,
                           triple.object.kind}) != nullptr) {
    SLIM_OBS_COUNT("trim.add.duplicate");
    return Status::AlreadyExists("duplicate statement " +
                                 TripleToString(triple));
  }
  uint64_t slot = guts->size.load(std::memory_order_relaxed);
  if (slot >= kChunkSize * kMaxChunks) {
    return Status::OutOfRange("triple store is full");
  }
  for (size_t f = 0; f < 3; ++f) {
    // A second look finds a key an earlier field of this triple created.
    if (node[f] == nullptr) node[f] = FindKey(*guts, hash[f], text[f]);
    if (node[f] == nullptr) node[f] = CreateKey(*guts, hash[f], text[f]);
  }
  SLIM_OBS_COUNT("trim.add.ok");
  size_t chunk_idx = slot / kChunkSize;
  Chunk* chunk = guts->chunks[chunk_idx].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunk = new Chunk();
    guts->chunks[chunk_idx].store(chunk, std::memory_order_seq_cst);
  }
  Record& rec = chunk->records[slot % kChunkSize];
  rec.keys = {node[0]->id, node[1]->id, node[2]->id};
  rec.kind = triple.object.kind;
  rec.triple = std::move(triple);
  rec.birth.store(ws.epoch(), std::memory_order_relaxed);
  rec.death.store(EpochManager::kNeverDies, std::memory_order_relaxed);
  guts->size.store(slot + 1, std::memory_order_seq_cst);

  uint32_t slot32 = static_cast<uint32_t>(slot);
  if (Post(*guts, node[kSubjectField], kSubjectField, slot32)) {
    distinct_subjects_.fetch_add(1, std::memory_order_relaxed);
  }
  if (Post(*guts, node[kPropertyField], kPropertyField, slot32)) {
    distinct_properties_.fetch_add(1, std::memory_order_relaxed);
  }
  if (Post(*guts, node[kObjectField], kObjectField, slot32)) {
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

void TripleStore::Kill(Record* rec, const Guts& guts, WriterScope& ws) {
  const uint64_t epoch = ws.epoch();
  rec->death.store(epoch, std::memory_order_relaxed);
  // A key whose last live posting in a field goes leaves that field's
  // Distinct*() count.
  std::atomic<uint64_t>* distinct[3] = {
      &distinct_subjects_, &distinct_properties_, &distinct_objects_};
  for (size_t f = 0; f < 3; ++f) {
    if (NodeOf(guts, rec->keys[f])
            ->postings[f]
            .live.fetch_sub(1, std::memory_order_relaxed) == 1) {
      distinct[f]->fetch_sub(1, std::memory_order_relaxed);
    }
  }
  ++dead_count_;
  max_death_epoch_ = epoch;
  live_count_.fetch_sub(1, std::memory_order_relaxed);
  ws.AddDead(rec);
  ws.MarkDirty();
}

Status TripleStore::RemoveLocked(const Triple& triple, WriterScope& ws) {
  const Guts* guts = guts_.load(std::memory_order_relaxed);
  if (Record* rec = FindExact(guts, ws.epoch(), ExactKeys(guts, triple))) {
    Kill(rec, *guts, ws);
    SLIM_OBS_COUNT("trim.remove.ok");
    return Status::OK();
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
  // The writer reads at its pending epoch, so each victim is live there.
  const Guts* guts = guts_.load(std::memory_order_relaxed);
  const uint64_t epoch = ws.epoch();
  const KeyPattern keys = KeyView(*this).Resolve(pattern);
  std::vector<Record*> victims;
  ForMatches(guts, epoch, BeginSelect(keys, epoch, guts, nullptr), keys,
             nullptr, [&victims](Record& rec) {
               victims.push_back(&rec);
               return true;
             });
  for (Record* rec : victims) {
    Kill(rec, *guts, ws);
    SLIM_OBS_COUNT("trim.remove.ok");
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
    Status s;
    switch (op.kind) {
      case WriteOp::Kind::kAdd:
        s = AddLocked(std::move(op.triple), ws);
        break;
      case WriteOp::Kind::kRemove:
        s = RemoveLocked(op.triple, ws);
        break;
    }
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
  return AddLocked(Triple{subject, property, std::move(object)}, ws);
}

void TripleStore::Clear() {
  util::MutexLock lock(&write_mu_);
  {
    WriterScope ws(*this);
    ClearLocked(ws);
  }
  // Quiescent stores drop straight back to empty guts here; pinned readers
  // keep their snapshot and the reset waits for them.
  ReclaimLocked();
}

void TripleStore::ClearLocked(WriterScope& ws) {
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
    const KeyId keys = guts->key_count.load(std::memory_order_relaxed);
    for (KeyId id = 0; id < keys; ++id) {
      for (Postings& postings : NodeOf(*guts, id)->postings) {
        postings.live.store(0, std::memory_order_relaxed);
      }
    }
  }
  live_count_.store(0, std::memory_order_relaxed);
  distinct_subjects_.store(0, std::memory_order_relaxed);
  distinct_properties_.store(0, std::memory_order_relaxed);
  distinct_objects_.store(0, std::memory_order_relaxed);
}

Status TripleStore::InstallImage(const Image& image) {
  const std::vector<ImageStatement>& statements = image.statements_;
  const size_t n = statements.size();
  util::MutexLock lock(&write_mu_);
  auto room = [&] {
    const Guts* guts = guts_.load(std::memory_order_relaxed);
    return kChunkSize * kMaxChunks -
           (guts != nullptr ? guts->size.load(std::memory_order_relaxed) : 0);
  };
  if (room() < n) MaybeCompact(/*force=*/true);
  if (room() < n) {
    return Status::OutOfRange("triple store has no room for the image");
  }
  {
    WriterScope ws(*this);
    ClearLocked(ws);
    if (n != 0) InstallLocked(image, ws);
  }
  // A load kills the whole old contents in its one epoch; free what no
  // reader can see now rather than at some later write.
  ReclaimLocked();
  return Status::OK();
}

void TripleStore::InstallLocked(const Image& image, WriterScope& ws) {
  const std::vector<ImageStatement>& statements = image.statements_;
  Guts* guts = guts_.load(std::memory_order_relaxed);
  if (guts == nullptr) {
    guts = new Guts();
    guts_.store(guts, std::memory_order_seq_cst);
  }
  // Each string a statement uses is found or created once, by the hash the
  // image took, and each of its spines gets room for all of its postings.
  struct Target {
    Spine* spine = nullptr;
    uint32_t next = 0;  ///< Postings in the spine; the next one goes here.
  };
  std::vector<Target> targets(3 * image.strings_.size());
  for (const ImageStatement& st : statements) {
    ++targets[3 * st.subject + kSubjectField].next;
    ++targets[3 * st.property + kPropertyField].next;
    ++targets[3 * st.object + kObjectField].next;
  }
  std::vector<KeyId> ids(image.strings_.size(), kNoKey);
  std::atomic<uint64_t>* distinct[3] = {
      &distinct_subjects_, &distinct_properties_, &distinct_objects_};
  for (size_t i = 0; i < ids.size(); ++i) {
    Target* target = &targets[3 * i];
    if (target[0].next == 0 && target[1].next == 0 && target[2].next == 0) {
      continue;
    }
    KeyNode* node = FindKey(*guts, image.hashes_[i], image.strings_[i]);
    if (node == nullptr) {
      node = CreateKey(*guts, image.hashes_[i], image.strings_[i]);
    }
    ids[i] = node->id;
    for (size_t f = 0; f < 3; ++f) {
      const uint32_t count = target[f].next;
      if (count == 0) continue;
      Postings& postings = node->postings[f];
      Spine* spine = postings.spine.load(std::memory_order_relaxed);
      if (spine == nullptr) {
        spine = count <= kInitialSpineCap
                    ? new (guts->arena.Allocate(kFirstSpineBytes))
                          Spine(kInitialSpineCap)
                    : new (::operator new(sizeof(Spine) +
                                          count * sizeof(uint32_t)))
                          Spine(count);
        postings.spine.store(spine, std::memory_order_seq_cst);
      } else if (spine->used.load(std::memory_order_relaxed) + count >
                 spine->cap) {
        spine = GrowSpine(
            postings,
            std::max(spine->used.load(std::memory_order_relaxed) + count,
                     kInitialSpineCap + 1),
            *guts);
      }
      target[f] = {spine, spine->used.load(std::memory_order_relaxed)};
      postings.live.store(count, std::memory_order_relaxed);
      distinct[f]->fetch_add(1, std::memory_order_relaxed);
    }
  }
  // The records in the image's order, each posted as it goes; nothing is
  // visible before the scope publishes the epoch.
  const uint64_t base = guts->size.load(std::memory_order_relaxed);
  for (size_t k = 0; k < statements.size(); ++k) {
    const uint64_t slot = base + k;
    std::atomic<Chunk*>& chunk_ptr = guts->chunks[slot / kChunkSize];
    Chunk* chunk = chunk_ptr.load(std::memory_order_relaxed);
    if (chunk == nullptr) {
      chunk = new Chunk();
      chunk_ptr.store(chunk, std::memory_order_seq_cst);
    }
    const ImageStatement& st = statements[k];
    Record& rec = chunk->records[slot % kChunkSize];
    rec.keys = {ids[st.subject], ids[st.property], ids[st.object]};
    rec.kind = st.kind;
    rec.triple = Triple{std::string(image.strings_[st.subject]),
                        std::string(image.strings_[st.property]),
                        Object{st.kind, std::string(image.strings_[st.object])}};
    rec.birth.store(ws.epoch(), std::memory_order_relaxed);
    rec.death.store(EpochManager::kNeverDies, std::memory_order_relaxed);
    Target* by_field[3] = {&targets[3 * st.subject + kSubjectField],
                           &targets[3 * st.property + kPropertyField],
                           &targets[3 * st.object + kObjectField]};
    for (Target* target : by_field) {
      target->spine->slots()[target->next++] = static_cast<uint32_t>(slot);
    }
  }
  guts->size.store(base + statements.size(), std::memory_order_seq_cst);
  for (const Target& target : targets) {
    if (target.spine != nullptr) {
      target.spine->used.store(target.next, std::memory_order_seq_cst);
    }
  }
  live_count_.store(statements.size(), std::memory_order_relaxed);
  SLIM_OBS_COUNT_N("trim.add.ok", statements.size());
  ws.MarkDirty();
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

  // Rebuilding the key table from the surviving records carries every
  // key's live counts (and so the Distinct*() counters) over unchanged.
  // Ids are renumbered densely; each surviving key is hashed once.
  Guts* fresh = nullptr;
  if (live != 0) {
    fresh = new Guts();
    std::vector<KeyId> renumber(old->key_count.load(std::memory_order_relaxed),
                                kAnyKey);
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
      std::array<KeyNode*, 3> node{};
      for (size_t f = 0; f < 3; ++f) {
        KeyId& id = renumber[rec->keys[f]];
        if (id == kAnyKey) {
          std::string_view key = NodeOf(*old, rec->keys[f])->key();
          id = CreateKey(*fresh, KeyHash(key), key)->id;
        }
        node[f] = NodeOf(*fresh, id);
        dst.keys[f] = id;
      }
      dst.kind = rec->kind;
      dst.triple = rec->triple;
      // Keep the birth stamp: a reader pinned before this record appeared
      // must still not see it through the compacted guts.
      dst.birth.store(rec->birth.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
      fresh->size.store(dst_slot + 1, std::memory_order_seq_cst);
      uint32_t slot32 = static_cast<uint32_t>(dst_slot);
      for (Field f : {kSubjectField, kPropertyField, kObjectField}) {
        Post(*fresh, node[f], f, slot32);
      }
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

TripleStore::Record* TripleStore::FindExact(const Guts* guts,
                                            uint64_t snapshot,
                                            const KeyPattern& exact) {
  const KeyNode* subject =
      guts != nullptr ? NodeOf(*guts, exact.subject) : nullptr;
  if (subject == nullptr) return nullptr;
  const Spine* spine =
      subject->postings[kSubjectField].spine.load(std::memory_order_seq_cst);
  if (spine == nullptr) return nullptr;
  const uint32_t used = spine->used.load(std::memory_order_seq_cst);
  for (uint32_t i = 0; i < used; ++i) {
    Record* rec = RecordAt(*guts, spine->slots()[i]);
    if (Visible(*rec, snapshot) && KeysMatch(*rec, exact)) return rec;
  }
  return nullptr;
}

TripleStore::KeyId TripleStore::FindId(const Guts* guts,
                                       std::string_view text) {
  const KeyNode* node =
      guts != nullptr ? FindKey(*guts, KeyHash(text), text) : nullptr;
  return node != nullptr ? node->id : kNoKey;
}

TripleStore::KeyPattern TripleStore::ExactKeys(const Guts* guts,
                                               const Triple& t) {
  return KeyPattern{FindId(guts, t.subject), FindId(guts, t.property),
                    FindId(guts, t.object.text), t.object.kind};
}

TripleStore::KeyId TripleStore::KeyView::Find(std::string_view text) const {
  return FindId(guts_, text);
}

TripleStore::KeyPattern TripleStore::KeyView::Resolve(
    const TriplePattern& pattern) const {
  KeyPattern keys;
  if (pattern.subject) keys.subject = Find(*pattern.subject);
  if (pattern.property) keys.property = Find(*pattern.property);
  if (pattern.object) {
    keys.object = Find(pattern.object->text);
    keys.object_kind = pattern.object->kind;
  }
  return keys;
}

bool TripleStore::Contains(const Triple& triple) const {
  KeyView view(*this);
  return FindExact(view.guts_, view.pin_.snapshot,
                   ExactKeys(view.guts_, triple)) != nullptr;
}

TripleStore::PathChoice TripleStore::ChoosePath(const KeyPattern& pattern,
                                                uint64_t snapshot,
                                                const Guts* guts) {
  PathChoice chosen;
  bool have = false;

  // Visible candidates under one fixed key. The live count is exact when
  // quiescent; when it reads 0 the spine is walked so a pinned snapshot
  // that can still see entries is never short-circuited to kEmpty.
  auto count = [&](const Postings* postings) -> uint64_t {
    if (postings == nullptr) return 0;
    uint64_t live = postings->live.load(std::memory_order_relaxed);
    if (live != 0) return live;
    const Spine* spine = postings->spine.load(std::memory_order_seq_cst);
    if (spine == nullptr) return 0;
    uint32_t used = spine->used.load(std::memory_order_seq_cst);
    uint64_t visible = 0;
    for (uint32_t j = 0; j < used; ++j) {
      if (Visible(*RecordAt(*guts, spine->slots()[j]), snapshot)) ++visible;
    }
    return visible;
  };

  // Subject, then object, then property: a provably-empty key wins
  // outright, otherwise the strictly smaller candidate list. Returns true
  // when no further field is worth probing.
  auto consider = [&](IndexPath path, Field field, KeyId key) {
    const KeyNode* node = guts != nullptr ? NodeOf(*guts, key) : nullptr;
    uint64_t n = count(node != nullptr ? &node->postings[field] : nullptr);
    if (n == 0) {
      chosen = PathChoice{IndexPath::kEmpty, 0, nullptr};
      return true;  // can't get more selective than empty
    }
    if (!have || n < chosen.candidates) {
      chosen = PathChoice{path, n, &node->postings[field]};
      have = true;
    }
    return chosen.candidates <= kShortList;
  };

  if (pattern.subject != kAnyKey &&
      consider(IndexPath::kSubject, kSubjectField, pattern.subject)) {
    return chosen;
  }
  if (pattern.object != kAnyKey &&
      consider(IndexPath::kObject, kObjectField, pattern.object)) {
    return chosen;
  }
  if (pattern.property != kAnyKey &&
      consider(IndexPath::kProperty, kPropertyField, pattern.property)) {
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

TripleStore::PathChoice TripleStore::BeginSelect(const KeyPattern& pattern,
                                                 uint64_t snapshot,
                                                 const Guts* guts,
                                                 SelectStats* stats) {
  SLIM_OBS_COUNT("trim.select.calls");
  PathChoice choice = ChoosePath(pattern, snapshot, guts);
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
  return choice;
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
  KeyView view(*this);
  view.SelectEach(
      view.Resolve(pattern), [&fn](const Row& row) { return fn(row.triple); },
      stats);
}

TripleStore::AccessPlan TripleStore::PlanAccess(
    const TriplePattern& pattern) const {
  KeyView view(*this);
  PathChoice choice =
      ChoosePath(view.Resolve(pattern), view.pin_.snapshot, view.guts_);
  AccessPlan plan;
  plan.path = choice.path;
  plan.candidates =
      choice.path == IndexPath::kScan ? size() : choice.candidates;
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

template <typename RowFn, typename ReachFn>
void TripleStore::WalkReachable(std::string_view resource, RowFn&& row_fn,
                                ReachFn&& reached) const {
  KeyView view(*this);
  const KeyId start = view.Find(resource);
  if (start == kNoKey) return;
  std::unordered_set<KeyId> visited = {start};
  std::queue<KeyId> frontier;
  frontier.push(start);
  while (!frontier.empty()) {
    KeyPattern pattern;
    pattern.subject = frontier.front();
    frontier.pop();
    const PathChoice subject{IndexPath::kSubject, 0,
                             &NodeOf(*view.guts_, pattern.subject)
                                  ->postings[kSubjectField]};
    ForMatches(view.guts_, view.pin_.snapshot, subject, pattern, nullptr,
               [&](const Record& rec) {
                 row_fn(rec.triple);
                 if (rec.kind == ObjectKind::kResource &&
                     visited.insert(rec.keys[kObjectField]).second) {
                   reached(std::string_view(rec.triple.object.text));
                   frontier.push(rec.keys[kObjectField]);
                 }
                 return true;
               });
  }
}

std::vector<Triple> TripleStore::ViewFrom(const std::string& resource) const {
  SLIM_OBS_COUNT("trim.view.calls");
  SLIM_OBS_TIMER(timer, "trim.view.latency_us");
  std::vector<Triple> out;
  WalkReachable(
      resource, [&out](const Triple& t) { out.push_back(t); },
      [](std::string_view) {});
  SLIM_OBS_HISTOGRAM("trim.view.fanout", out.size());
  return out;
}

std::vector<std::string> TripleStore::ReachableResources(
    const std::string& resource) const {
  std::vector<std::string> out = {resource};
  WalkReachable(
      resource, [](const Triple&) {},
      [&out](std::string_view r) { out.emplace_back(r); });
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

void TripleStore::ExportImage(
    const std::function<void(const std::vector<std::string_view>&,
                             const std::vector<ImageStatement>&)>& fn) const {
  KeyView view(*this);
  std::vector<std::string_view> strings;
  std::vector<ImageStatement> statements;
  if (const Guts* guts = view.guts_) {
    // Keys are numbered densely in first use; a key no live record uses
    // gets no number.
    std::vector<KeyId> renumber(guts->key_count.load(std::memory_order_seq_cst),
                                kAnyKey);
    auto number = [&](KeyId id) {
      KeyId& out = renumber[id];
      if (out == kAnyKey) {
        out = static_cast<KeyId>(strings.size());
        strings.push_back(NodeOf(*guts, id)->key());
      }
      return out;
    };
    statements.reserve(size());
    const uint64_t n = guts->size.load(std::memory_order_seq_cst);
    for (uint64_t slot = 0; slot < n; ++slot) {
      const Record* rec = RecordAt(*guts, static_cast<uint32_t>(slot));
      if (!Visible(*rec, view.pin_.snapshot)) continue;
      ImageStatement st;
      st.subject = number(rec->keys[kSubjectField]);
      st.property = number(rec->keys[kPropertyField]);
      st.object = number(rec->keys[kObjectField]);
      st.kind = rec->kind;
      statements.push_back(st);
    }
  }
  fn(strings, statements);
}

// ---------------------------------------------------------------------------
// Images
// ---------------------------------------------------------------------------

namespace {

// Open-addressing tables stay at most half full.
size_t SlotsFor(size_t entries) {
  size_t slots = 1024;
  while (slots < 2 * entries) slots *= 2;
  return slots;
}

}  // namespace

void TripleStore::Image::Reserve(size_t strings, size_t statements) {
  strings_.reserve(strings_.size() + strings);
  hashes_.reserve(hashes_.size() + strings);
  statements_.reserve(statements_.size() + statements);
  Rehash(strings_.size() + strings, statements_.size() + statements);
}

void TripleStore::Image::Rehash(size_t strings, size_t statements) {
  if (2 * strings > string_slots_.size()) {
    string_slots_.assign(SlotsFor(strings), 0);
    const size_t mask = string_slots_.size() - 1;
    for (uint32_t id = 0; id < strings_.size(); ++id) {
      size_t at = hashes_[id] & mask;
      while (string_slots_[at] != 0) at = (at + 1) & mask;
      string_slots_[at] = id + 1;
    }
  }
  if (2 * statements > statement_slots_.size()) {
    statement_slots_.assign(SlotsFor(statements), 0);
    for (uint32_t pos = 0; pos < statements_.size(); ++pos) {
      const size_t mask = statement_slots_.size() - 1;
      size_t at = StatementHash(statements_[pos]) & mask;
      while (statement_slots_[at] != 0) at = (at + 1) & mask;
      statement_slots_[at] = pos + 1;
    }
  }
}

std::string_view TripleStore::Image::Hold(std::string bytes) {
  held_ = std::move(bytes);
  return held_;
}

uint32_t& TripleStore::Image::StringSlot(std::string_view text,
                                         uint32_t hash) {
  const size_t mask = string_slots_.size() - 1;
  for (size_t at = hash & mask;; at = (at + 1) & mask) {
    uint32_t& slot = string_slots_[at];
    if (slot == 0 || (hashes_[slot - 1] == hash && strings_[slot - 1] == text)) {
      return slot;
    }
  }
}

bool TripleStore::Image::AddString(std::string_view text) {
  Rehash(strings_.size() + 1, 0);
  const uint32_t hash = KeyHash(text);
  uint32_t& slot = StringSlot(text, hash);
  if (slot != 0) return false;
  slot = static_cast<uint32_t>(strings_.size() + 1);
  strings_.push_back(text);
  hashes_.push_back(hash);
  return true;
}

TripleStore::KeyId TripleStore::Image::Intern(std::string_view text) {
  Rehash(strings_.size() + 1, 0);
  const uint32_t hash = KeyHash(text);
  uint32_t& slot = StringSlot(text, hash);
  if (slot == 0) {
    slot = static_cast<uint32_t>(strings_.size() + 1);
    strings_.push_back(copies_.emplace_back(text));
    hashes_.push_back(hash);
  }
  return slot - 1;
}

Status TripleStore::Image::AddStatement(const ImageStatement& statement) {
  const size_t strings = strings_.size();
  if (statement.subject >= strings || statement.property >= strings ||
      statement.object >= strings) {
    return Status::ParseError("statement names a string past the " +
                              std::to_string(strings) + " of the image");
  }
  if (strings_[statement.subject].empty() ||
      strings_[statement.property].empty()) {
    return Status::InvalidArgument("triple subject/property must be non-empty");
  }
  if (statements_.size() >= kChunkSize * kMaxChunks) {
    return Status::OutOfRange("more statements than a triple store holds");
  }
  Rehash(0, statements_.size() + 1);
  const size_t mask = statement_slots_.size() - 1;
  for (size_t at = StatementHash(statement) & mask;; at = (at + 1) & mask) {
    uint32_t& slot = statement_slots_[at];
    if (slot == 0) {
      slot = static_cast<uint32_t>(statements_.size() + 1);
      statements_.push_back(statement);
      return Status::OK();
    }
    const ImageStatement& other = statements_[slot - 1];
    if (other.subject == statement.subject &&
        other.property == statement.property &&
        other.object == statement.object && other.kind == statement.kind) {
      return Status::AlreadyExists(
          "duplicate statement " +
          TripleToString(Triple{std::string(strings_[statement.subject]),
                                std::string(strings_[statement.property]),
                                Object{statement.kind,
                                       std::string(strings_[statement.object])}}));
    }
  }
}

size_t TripleStore::ApproximateBytes() const {
  KeyView view(*this);
  const Guts* guts = view.guts_;
  if (guts == nullptr) return 0;
  // The fixed tables, and the log's chunks: whole records, dead ones too.
  size_t bytes = sizeof(Guts);
  const uint64_t n = guts->size.load(std::memory_order_seq_cst);
  bytes += (n + kChunkSize - 1) / kChunkSize * sizeof(Chunk);
  // The heap text of the records this pin sees. A dead record keeps its
  // strings until reclamation clears them, which may run during this walk,
  // so those are left out.
  auto text = [](const std::string& s) {
    return s.capacity() > std::string().capacity() ? s.capacity() + 1 : 0;
  };
  for (uint64_t slot = 0; slot < n; ++slot) {
    const Record* rec = RecordAt(*guts, static_cast<uint32_t>(slot));
    if (!Visible(*rec, view.pin_.snapshot)) continue;
    bytes += text(rec->triple.subject) + text(rec->triple.property) +
             text(rec->triple.object.text);
  }
  // The key table: nodes and spines (first spines in the arena, grown ones
  // on the heap), the id-table chunks and the hash index.
  const KeyId keys = guts->key_count.load(std::memory_order_seq_cst);
  for (KeyId id = 0; id < keys; ++id) {
    const KeyNode* node = NodeOf(*guts, id);
    bytes += (sizeof(KeyNode) + node->key_size + 7) & ~size_t{7};
    for (const Postings& postings : node->postings) {
      const Spine* spine = postings.spine.load(std::memory_order_seq_cst);
      if (spine != nullptr) bytes += sizeof(Spine) + spine->cap * sizeof(uint32_t);
    }
  }
  bytes += (keys + kKeyChunkSize - 1) / kKeyChunkSize * sizeof(KeyChunk);
  if (const KeyIndex* index = guts->index.load(std::memory_order_seq_cst)) {
    bytes += sizeof(KeyIndex) + index->heads.size() * sizeof(index->heads[0]) +
             index->links.size() * sizeof(index->links[0]);
  }
  return bytes;
}

}  // namespace slim::trim
