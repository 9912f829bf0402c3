#ifndef SLIM_TRIM_TRIPLE_STORE_H_
#define SLIM_TRIM_TRIPLE_STORE_H_

/// \file triple_store.h
/// \brief TRIM — the Triple Manager (paper §4.4).
///
/// "Through TRIM, the DMI can create, remove, persist (through XML files),
/// query, and create simple views over the underlying triples. Query is
/// specified by selection, where one or more of the triple fields is fixed,
/// and the result is a set of triples. A view is specified by selecting a
/// resource (such as a Bundle id), where all triples that can be reached
/// from this resource are returned."
///
/// The store keeps one append-only record log and three hash indexes over
/// it (subject, property, object text), and answers selection queries
/// through the most selective fixed field.
///
/// Concurrency contract (DESIGN.md §10 is the full specification):
/// *mutations* (Add/Remove/RemoveMatching/SetOne/ApplyBatch/Clear)
/// serialize on an internal `util::InstrumentedMutex` (lock site
/// `trim.store.write`), each committing one **epoch**: every record
/// carries the epoch it was born and the epoch it died, and the whole
/// batch becomes visible atomically when the epoch counter advances.
/// *Reads* (Select/SelectEach/Contains/GetOne/ViewFrom/ForEach/Distinct*)
/// are lock-free and safe to run concurrently with writers: each read pins
/// the current epoch on entry and evaluates against that frozen snapshot,
/// so a reader never blocks a writer, never observes a half-applied batch,
/// and nested reads on the same thread (SelectEach callbacks issuing
/// further Selects during joins) share the outer snapshot. Hold a
/// `TripleStore::Snapshot` to keep one snapshot across several calls.
/// Memory retired by writers (tombstoned payloads, replaced postings) is
/// reclaimed only after the oldest pinned epoch advances past it.

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "trim/epoch.h"
#include "trim/triple.h"
#include "util/instrumented_mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace slim::trim {

/// \brief A selection pattern: any subset of fields fixed.
struct TriplePattern {
  std::optional<std::string> subject;
  std::optional<std::string> property;
  std::optional<Object> object;

  /// Convenience constructors.
  static TriplePattern BySubject(std::string s) {
    return {std::move(s), std::nullopt, std::nullopt};
  }
  static TriplePattern ByProperty(std::string p) {
    return {std::nullopt, std::move(p), std::nullopt};
  }
  static TriplePattern ByObject(Object o) {
    return {std::nullopt, std::nullopt, std::move(o)};
  }
  static TriplePattern BySubjectProperty(std::string s, std::string p) {
    return {std::move(s), std::move(p), std::nullopt};
  }

  bool Matches(const Triple& t) const;
};

struct StoreStats;  // trim/store_stats.h

/// \brief In-memory triple store with S/P/O indexes and epoch-based
/// snapshot reads.
class TripleStore {
 public:
  /// Which access path a selection settled on (obs: the
  /// `trim.select.index.*` counters; also reified into query EXPLAIN
  /// plans, see slim/query_plan.h).
  enum class IndexPath { kSubject, kObject, kProperty, kScan, kEmpty };

  /// Stable lowercase name of an IndexPath ("subject", "scan", ...).
  static const char* IndexPathName(IndexPath path);

  /// \brief What a selection *would* do: the access path CandidateList
  /// would choose and how many candidate ids that path yields (the store
  /// size for a full scan, 0 for a provably-empty selection).
  struct AccessPlan {
    IndexPath path = IndexPath::kScan;
    size_t candidates = 0;
  };

  /// \brief Per-call execution statistics for SelectEach (EXPLAIN ANALYZE).
  struct SelectStats {
    IndexPath path = IndexPath::kScan;
    uint64_t candidates = 0;  ///< Ids the chosen path offered.
    uint64_t examined = 0;    ///< Live candidates tested against the pattern.
    uint64_t matched = 0;     ///< Rows handed to the callback.
  };

  /// \brief RAII snapshot pin: freezes one epoch for this thread until
  /// destroyed, so a sequence of reads (a whole query execution) observes
  /// one consistent store state regardless of concurrent writers.
  ///
  /// Pins nest per thread — reads issued while a Snapshot is held reuse
  /// its epoch — and are thread-affine: create and destroy on the same
  /// thread. Movable so callers can hand the pin down a call chain.
  class Snapshot {
   public:
    explicit Snapshot(const TripleStore& store)
        : mgr_(&store.epoch_), epoch_(mgr_->Pin()) {}
    ~Snapshot() {
      if (mgr_ != nullptr) mgr_->Unpin();
    }
    Snapshot(Snapshot&& other) noexcept
        : mgr_(other.mgr_), epoch_(other.epoch_) {
      other.mgr_ = nullptr;
    }
    Snapshot& operator=(Snapshot&& other) noexcept {
      if (this != &other) {
        if (mgr_ != nullptr) mgr_->Unpin();
        mgr_ = other.mgr_;
        epoch_ = other.epoch_;
        other.mgr_ = nullptr;
      }
      return *this;
    }
    Snapshot(const Snapshot&) = delete;
    Snapshot& operator=(const Snapshot&) = delete;

    /// The pinned epoch (diagnostics; compare against GetEpochStats()).
    uint64_t epoch() const { return epoch_; }

   private:
    EpochManager* mgr_;
    uint64_t epoch_;
  };

  /// \brief One mutation inside ApplyBatch.
  struct WriteOp {
    enum class Kind { kAdd, kRemove };
    Kind kind = Kind::kAdd;
    Triple triple;
    bool allow_duplicates = false;  ///< Only meaningful for kAdd.

    static WriteOp AddOp(Triple t, bool allow_duplicates = false) {
      return {Kind::kAdd, std::move(t), allow_duplicates};
    }
    static WriteOp RemoveOp(Triple t) { return {Kind::kRemove, std::move(t)}; }
  };

  /// \brief Outcome of ApplyBatch: the epoch the batch committed at and a
  /// per-op status vector (1:1 with the input ops).
  struct BatchResult {
    uint64_t epoch = 0;
    size_t applied = 0;  ///< Ops whose status is OK.
    std::vector<Status> statuses;
  };

  /// Epoch-domain introspection (feeds `slim.store.epoch.*`).
  using EpochStats = EpochManager::Stats;

  TripleStore() = default;
  ~TripleStore();
  TripleStore(const TripleStore&) = delete;
  TripleStore& operator=(const TripleStore&) = delete;

  /// Adds a triple. Duplicate statements are allowed only when
  /// `allow_duplicates` is set (default: rejected with AlreadyExists, the
  /// RDF set semantics the paper's representation assumes).
  Status Add(Triple triple, bool allow_duplicates = false);

  /// Convenience: add (s, p, literal) / (s, p, resource).
  Status AddLiteral(std::string subject, std::string property,
                    std::string literal);
  Status AddResource(std::string subject, std::string property,
                     std::string resource);

  /// Removes one exact statement; NotFound if absent.
  Status Remove(const Triple& triple);

  /// Removes every triple matching the pattern; returns how many went.
  size_t RemoveMatching(const TriplePattern& pattern);

  /// Applies a whole batch of adds/removes as ONE epoch: a concurrent
  /// reader sees either none of the batch (pinned before the commit) or
  /// all of it (pinned after) — never a prefix.
  BatchResult ApplyBatch(std::vector<WriteOp> ops);

  /// True iff the exact statement is present.
  bool Contains(const Triple& triple) const;

  /// Selection query (paper: "one or more of the triple fields is fixed,
  /// and the result is a set of triples").
  std::vector<Triple> Select(const TriplePattern& pattern) const;

  /// Streaming selection; `fn` returning false stops the scan early.
  /// When `stats` is non-null the call additionally reports the access path
  /// taken and the rows examined/matched (the EXPLAIN ANALYZE feed).
  void SelectEach(const TriplePattern& pattern,
                  const std::function<bool(const Triple&)>& fn,
                  SelectStats* stats = nullptr) const;

  /// Plans a selection without executing it: which index would serve the
  /// pattern and how many candidates it holds. Never bumps obs counters.
  AccessPlan PlanAccess(const TriplePattern& pattern) const;

  /// First object for (subject, property), if any. The common "attribute
  /// read" access path of a DMI.
  std::optional<Object> GetOne(const std::string& subject,
                               const std::string& property) const;

  /// Replaces the object of (subject, property): removes all existing
  /// statements with that subject+property, then adds the new one, as one
  /// atomically-visible epoch. The "attribute write" access path of a DMI.
  Status SetOne(const std::string& subject, const std::string& property,
                Object object);

  /// View (paper §4.4): every triple reachable from `resource` by
  /// following resource-valued objects, including the starting resource's
  /// own triples. Cycle-safe; evaluated against one snapshot.
  std::vector<Triple> ViewFrom(const std::string& resource) const;

  /// All subjects reachable from `resource` (the resources a view spans).
  std::vector<std::string> ReachableResources(const std::string& resource) const;

  /// Number of live triples.
  size_t size() const { return live_count_.load(std::memory_order_relaxed); }
  bool empty() const { return size() == 0; }

  /// \name Index key counts (distinct subjects/properties/object texts).
  /// Cheap O(1) reads, kept exact by the index nodes' live counts; the
  /// query planner divides size() by these for average-cardinality
  /// estimates of runtime-bound patterns.
  /// @{
  size_t DistinctSubjects() const {
    return distinct_subjects_.load(std::memory_order_relaxed);
  }
  size_t DistinctProperties() const {
    return distinct_properties_.load(std::memory_order_relaxed);
  }
  size_t DistinctObjects() const {
    return distinct_objects_.load(std::memory_order_relaxed);
  }
  /// @}

  /// Removes every triple (one epoch; pinned readers keep their view).
  void Clear();

  /// Visits every live triple in insertion order.
  void ForEach(const std::function<void(const Triple&)>& fn) const;

  /// Rough heap footprint of stored triple data in bytes (for the space
  /// trade-off experiment, paper §6).
  size_t ApproximateBytes() const;

  /// \name Concurrency introspection
  /// @{
  /// Epoch counter, oldest pin, and limbo occupancy.
  EpochStats GetEpochStats() const { return epoch_.GetStats(); }
  /// Takes the writer lock, drains every reclaimable limbo entry, and
  /// compacts the log once its garbage is no longer visible to any reader.
  /// Writers also do this opportunistically; this forces it (tests,
  /// stats refresh). Returns the number of limbo entries freed.
  size_t ReclaimRetired();
  /// @}

 private:
  friend StoreStats ComputeStats(const TripleStore& store);
  class WriterScope;

  /// \name Storage layout (DESIGN.md §10)
  ///
  /// One append-only record log (fixed-capacity chunk table, so a
  /// record's address never moves) plus three chained hash indexes whose
  /// posting lists are grow-by-copy spines. Records carry birth/death
  /// epochs; nothing is ever mutated in place in a way a pinned reader
  /// could observe, and replaced structures go through the epoch limbo.
  /// The chunk table and bucket arrays (640 KB) are allocated at the
  /// first add.
  /// @{
  static constexpr size_t kChunkSize = 512;    ///< Records per chunk.
  static constexpr size_t kMaxChunks = 32768;  ///< 16M records.
  static constexpr size_t kIndexBuckets = 16384;
  static constexpr size_t kInitialSpineCap = 4;
  /// Commits between opportunistic reclaim/compaction sweeps.
  static constexpr uint64_t kReclaimInterval = 64;
  /// The log compacts when its dead-record count passes this floor and
  /// exceeds its live count (amortized O(1) per removal).
  static constexpr uint64_t kCompactDeadFloor = 1024;
  /// Access-path choice stops probing further indexes once its best
  /// candidate list is this short: walking the list is cheaper than
  /// another index probe. Point reads (GetOne, Contains-style probes)
  /// live on this path.
  static constexpr uint64_t kShortList = 64;

  struct Record {
    Triple triple;
    std::atomic<uint64_t> birth{0};
    std::atomic<uint64_t> death{EpochManager::kNeverDies};
  };
  struct Chunk {
    Record records[kChunkSize];
  };
  /// Posting-list storage, one heap block: this header, then `cap` record
  /// slots. Slots below `used` are published and never rewritten.
  struct Spine {
    explicit Spine(uint64_t capacity) : cap(capacity) {}
    uint32_t* slots() {
      return reinterpret_cast<uint32_t*>(reinterpret_cast<char*>(this) +
                                         sizeof(Spine));
    }
    const uint32_t* slots() const {
      return reinterpret_cast<const uint32_t*>(
          reinterpret_cast<const char*>(this) + sizeof(Spine));
    }
    std::atomic<uint64_t> used{0};
    const uint64_t cap;
  };
  static constexpr size_t kFirstSpineBytes =
      sizeof(Spine) + kInitialSpineCap * sizeof(uint32_t);
  /// Chained hash node, one heap block: this header, the key's first spine
  /// (kInitialSpineCap slots), then the key's bytes. Nodes are
  /// append-at-head and never unlinked (whole-guts compaction is the only
  /// way a key disappears). The first spine is never retired: once the
  /// key outgrows it nothing writes to it again, and it goes with its node.
  struct IndexNode {
    IndexNode(IndexNode* nxt, size_t key_bytes)
        : next(nxt), spine(first_spine()), key_size(key_bytes) {}
    Spine* first_spine() {
      return reinterpret_cast<Spine*>(reinterpret_cast<char*>(this) +
                                      sizeof(IndexNode));
    }
    std::string_view key() const {
      return {reinterpret_cast<const char*>(this) + sizeof(IndexNode) +
                  kFirstSpineBytes,
              key_size};
    }
    IndexNode* const next;
    /// The key's posting list: the first spine, or the latest grown copy.
    std::atomic<Spine*> spine;
    /// Live postings under this key, for access-path sizing and the
    /// Distinct*() counters. Exact for the latest state; a pinned reader
    /// may see it ahead of its snapshot.
    std::atomic<uint64_t> live{0};
    const size_t key_size;
  };
  struct IndexMap {
    std::array<std::atomic<IndexNode*>, kIndexBuckets> buckets{};
  };
  struct Guts {
    std::atomic<uint64_t> size{0};  ///< Published records (incl. dead).
    std::array<std::atomic<Chunk*>, kMaxChunks> chunks{};
    IndexMap by_subject;
    IndexMap by_property;
    IndexMap by_object;
  };
  /// @}

  /// Lock-split internals: public mutators take write_mu_ once, open one
  /// WriterScope, and delegate here, so compound operations (SetOne =
  /// RemoveMatching + Add) commit as a single epoch.
  Status AddLocked(Triple triple, bool allow_duplicates, WriterScope& ws)
      REQUIRES(write_mu_);
  Status RemoveLocked(const Triple& triple, WriterScope& ws)
      REQUIRES(write_mu_);
  size_t RemoveMatchingLocked(const TriplePattern& pattern, WriterScope& ws)
      REQUIRES(write_mu_);
  void MaybeCompact(bool force = false) REQUIRES(write_mu_);
  void ReclaimLocked() REQUIRES(write_mu_);

  /// Reader entry/exit: returns the snapshot epoch to evaluate at — the
  /// pending epoch when this thread is the writer mid-batch (so compound
  /// mutations read their own effects), a pinned epoch otherwise.
  struct ReadPin {
    uint64_t snapshot = 0;
    bool pinned = false;
  };
  ReadPin BeginRead() const;
  void EndRead(ReadPin pin) const;

  /// The access path a pattern resolves to, plus the index node a
  /// subject/object/property path will visit.
  struct PathChoice {
    IndexPath path = IndexPath::kScan;
    uint64_t candidates = 0;
    const IndexNode* node = nullptr;
  };
  static PathChoice ChoosePath(const TriplePattern& pattern, uint64_t snapshot,
                               const Guts* guts);

  static Record* RecordAt(const Guts& guts, uint32_t slot);
  static bool Visible(const Record& rec, uint64_t snapshot);
  static size_t Bucket(std::string_view key) {
    // Raw FNV-1a is no good here: its high bits barely depend on a key's
    // last bytes, so sequential ids ("inst:1", "inst:2", ...) would share
    // a few chains. The finalizer spreads every input bit over the output;
    // the bucket takes bits 32-45.
    return (Fmix64(Fnv1a(key)) >> 32) & (kIndexBuckets - 1);
  }
  static uint64_t Fnv1a(std::string_view s);
  /// MurmurHash3's 64-bit finalizer: a bijective avalanche mix.
  static uint64_t Fmix64(uint64_t h) {
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return h;
  }
  static IndexNode* FindNode(const IndexMap& map, std::string_view key);
  static void FreeGuts(Guts* guts);

  IndexNode* FindOrCreateNode(IndexMap& map, const std::string& key)
      REQUIRES(write_mu_);
  /// Posts `slot` under `key` in one index and counts it live. True when
  /// the key had no live posting before, i.e. it is a new distinct key.
  bool Post(IndexMap& map, const std::string& key, uint32_t slot,
            const Guts& guts) REQUIRES(write_mu_);
  void AppendPosting(IndexNode* node, uint32_t slot, const Guts& guts)
      REQUIRES(write_mu_);

  /// Serializes mutations only; see the concurrency contract above.
  mutable util::InstrumentedMutex write_mu_{"trim.store.write"};
  /// Epoch domain (mutable: const reads pin it).
  // slim-lint: allow(unguarded) -- internally synchronized epoch domain
  mutable EpochManager epoch_;

  /// The record log and its indexes; null until the first add and after a
  /// compaction that finds nothing live. Read lock-free under an epoch pin.
  std::atomic<Guts*> guts_{nullptr};

  std::atomic<uint64_t> live_count_{0};
  std::atomic<uint64_t> distinct_subjects_{0};
  std::atomic<uint64_t> distinct_properties_{0};
  std::atomic<uint64_t> distinct_objects_{0};

  /// Dead records in the log; stats readers take write_mu_.
  uint64_t dead_count_ GUARDED_BY(write_mu_) = 0;
  /// Largest death epoch in the log. Compaction is legal once
  /// MinPinned() passes it.
  uint64_t max_death_epoch_ GUARDED_BY(write_mu_) = 0;
  uint64_t commit_count_ GUARDED_BY(write_mu_) = 0;
};

}  // namespace slim::trim

#endif  // SLIM_TRIM_TRIPLE_STORE_H_
