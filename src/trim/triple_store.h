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
/// The store keeps one append-only record log and one key table: every
/// distinct string it holds, as subject, property or object text, has one
/// dense id and one posting list per field. Selections resolve their fixed
/// fields to ids once and answer through the most selective one, matching
/// rows by integer compares.
///
/// Concurrency contract (DESIGN.md §10 is the full specification):
/// *mutations* (Add/Remove/RemoveMatching/SetOne/ApplyBatch/Clear/
/// InstallImage)
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
#include <deque>
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

/// \brief In-memory triple store with a per-field key table and epoch-based
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

    static WriteOp AddOp(Triple t) { return {Kind::kAdd, std::move(t)}; }
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

  /// \name Key-level reads
  /// Every distinct string the store holds, in any field, has one dense
  /// id in the key table of the store's current record log. Ids are
  /// private to that log: a compaction renumbers them, so an id is only
  /// meaningful inside the KeyView that produced it.
  /// @{
  using KeyId = uint32_t;
  /// A free field in a KeyPattern.
  static constexpr KeyId kAnyKey = UINT32_MAX;
  /// A string the store does not hold: a field fixed to it matches nothing.
  static constexpr KeyId kNoKey = UINT32_MAX - 1;

  /// \brief A selection pattern over key ids (kAnyKey = free field).
  struct KeyPattern {
    KeyId subject = kAnyKey;
    KeyId property = kAnyKey;
    KeyId object = kAnyKey;
    ObjectKind object_kind = ObjectKind::kLiteral;  ///< With a fixed object.
  };

  /// \brief A row a key-level selection hands its callback: the record's
  /// triple and the key ids of its three fields.
  struct Row {
    const Triple& triple;
    KeyId subject;
    KeyId property;
    KeyId object;
  };

  class KeyView;  // below
  /// @}

  /// \name Whole-store images (pad files, trim/persistence.h)
  /// @{
  /// \brief One statement of an image: the ids of its three strings in
  /// the image's string table, and its object's kind.
  struct ImageStatement {
    KeyId subject = 0;
    KeyId property = 0;
    KeyId object = 0;
    ObjectKind kind = ObjectKind::kLiteral;
  };
  /// \brief A whole store as pad files hold it: a table of distinct strings,
  /// then one ImageStatement per statement. Loads decode a file into an
  /// Image (trim/persistence.h) and hand it to InstallImage. Building one
  /// checks it: its strings stay distinct, and AddStatement rejects an id
  /// past the table, an empty subject or property and a repeated statement,
  /// so installing needs no further probe. Not movable: its strings may view
  /// bytes it holds.
  class Image {
   public:
    Image() = default;
    Image(const Image&) = delete;
    Image& operator=(const Image&) = delete;

    /// Makes room for `strings` more strings and `statements` more
    /// statements.
    void Reserve(size_t strings, size_t statements);
    /// Keeps `bytes` for the image's lifetime and returns a view of them for
    /// AddString to cut strings from. Call it at most once.
    std::string_view Hold(std::string bytes);
    /// Appends `text`, which must outlive the image, as the next string;
    /// false, adding nothing, when an equal string is already in.
    bool AddString(std::string_view text);
    /// The id of `text`, copied in as the next string when it is new.
    KeyId Intern(std::string_view text);
    /// Appends a statement. ParseError for an id past the strings, then
    /// Add's checks with Add's messages: InvalidArgument for an empty
    /// subject or property, AlreadyExists for a repeat. OutOfRange past the
    /// statements a store's log can hold.
    Status AddStatement(const ImageStatement& statement);

    const std::vector<std::string_view>& strings() const { return strings_; }
    const std::vector<ImageStatement>& statements() const {
      return statements_;
    }

   private:
    friend class TripleStore;
    /// The slot of `string_slots_` that holds `text`'s id + 1, or the empty
    /// slot where it would go.
    uint32_t& StringSlot(std::string_view text, uint32_t hash);
    /// Regrows the open-addressing tables, when needed, to hold `strings`
    /// and `statements`.
    void Rehash(size_t strings, size_t statements);
    static uint32_t StatementHash(const ImageStatement& st) {
      return static_cast<uint32_t>(
          Fmix64(((uint64_t{st.subject} << 32) | st.property) +
                 Fmix64((uint64_t{st.object} << 1) |
                        (st.kind == ObjectKind::kResource ? 1 : 0))));
    }

    std::string held_;
    std::deque<std::string> copies_;  ///< Interned strings; never relocated.
    std::vector<std::string_view> strings_;
    std::vector<uint32_t> hashes_;  ///< KeyHash of each string.
    std::vector<ImageStatement> statements_;
    /// Open addressing, 0 for an empty slot: string id + 1 by KeyHash, and
    /// statement position + 1 by a mix of the statement's ids.
    std::vector<uint32_t> string_slots_;
    std::vector<uint32_t> statement_slots_;
  };
  /// @}

  TripleStore() = default;
  ~TripleStore();
  TripleStore(const TripleStore&) = delete;
  TripleStore& operator=(const TripleStore&) = delete;

  /// Adds a triple. A statement the store already holds is rejected with
  /// AlreadyExists: the RDF set semantics the paper's representation
  /// assumes, and the one pad files hold.
  Status Add(Triple triple);

  /// Convenience: add (s, p, literal) / (s, p, resource).
  Status AddLiteral(std::string subject, std::string property,
                    std::string literal);
  Status AddResource(std::string subject, std::string property,
                     std::string resource);

  /// Removes one exact statement; NotFound if absent.
  Status Remove(const Triple& triple);

  /// Removes every triple matching the pattern; returns how many went.
  size_t RemoveMatching(const TriplePattern& pattern);

  /// Applies a whole batch of adds/removes/clears as ONE epoch: a
  /// concurrent reader sees either none of the batch (pinned before the
  /// commit) or all of it (pinned after) — never a prefix. Ops run in
  /// order, so a clear followed by adds replaces the contents.
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
  /// Cheap O(1) reads, kept exact by the key table's live counts; the
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

  /// Calls `fn(strings, statements)` once, under one pin, with the live
  /// statements in ForEach order as pad files hold them: `strings` has
  /// each distinct string they use once, numbered by first use (views of
  /// the key table, valid during the call), and `statements` one id tuple
  /// per statement. No string is hashed.
  void ExportImage(
      const std::function<void(const std::vector<std::string_view>& strings,
                               const std::vector<ImageStatement>& statements)>&
          fn) const;

  /// Replaces the contents with `image`'s statements, in its order, under
  /// one writer lock and as one epoch: the live triples die, each string
  /// the statements use is found or created in the key table once, and the
  /// statements are appended and posted under those ids. A concurrent
  /// reader sees the old contents or the new ones. OutOfRange, changing
  /// nothing, when the log has no room for the image.
  Status InstallImage(const Image& image);

  /// Heap footprint in bytes (for the space trade-off experiment, paper
  /// §6): the fixed tables, the log's chunks with every record in them,
  /// the heap text of the live records, and the key table's nodes, spines,
  /// id chunks and hash index. Left out: the text dead records hold until
  /// reclamation, structures waiting in the epoch limbo, the arena's
  /// unused block tails and the allocator's own overhead.
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
  /// record's address never moves) plus one key table: the distinct
  /// strings as key nodes, each holding its dense id and one grow-by-copy
  /// posting spine and live count per field, a chunked id -> node table,
  /// and a growable string -> id hash index. Records carry birth/death
  /// epochs and their fields' key ids; nothing is ever mutated in place in
  /// a way a pinned reader could observe, and replaced structures go
  /// through the epoch limbo. The fixed tables (352 KB) are allocated at
  /// the first add.
  /// @{
  static constexpr size_t kChunkSize = 512;    ///< Records per chunk.
  static constexpr size_t kMaxChunks = 32768;  ///< 16M records.
  static constexpr size_t kKeyChunkSize = 4096;  ///< Ids per id-table chunk.
  /// Ids the first hash index links; each regrowth doubles it.
  static constexpr size_t kInitialKeyCapacity = 1024;
  /// A record names at most three new keys.
  static constexpr size_t kMaxKeyChunks =
      3 * kChunkSize * kMaxChunks / kKeyChunkSize;
  static_assert(kMaxKeyChunks * kKeyChunkSize < kNoKey);
  static constexpr uint32_t kInitialSpineCap = 4;
  /// Commits between opportunistic reclaim/compaction sweeps.
  static constexpr uint64_t kReclaimInterval = 64;
  /// The log compacts when its dead-record count passes this floor and
  /// exceeds its live count (amortized O(1) per removal).
  static constexpr uint64_t kCompactDeadFloor = 1024;
  /// Access-path choice stops probing further fields once its best
  /// candidate list is this short: walking the list is cheaper than
  /// another lookup. Point reads (GetOne, Contains-style probes) live on
  /// this path.
  static constexpr uint64_t kShortList = 64;

  /// Field positions: a record's `keys` and a key node's `postings`.
  enum Field : size_t {
    kSubjectField = 0,
    kPropertyField = 1,
    kObjectField = 2,
  };

  /// One statement: its header (epochs, key ids, object kind) ahead of
  /// the Triple that callbacks see, so a posting walk tests visibility and
  /// matches ids without touching the strings.
  struct Record {
    std::atomic<uint64_t> birth{0};
    std::atomic<uint64_t> death{EpochManager::kNeverDies};
    std::array<KeyId, 3> keys{};
    ObjectKind kind = ObjectKind::kLiteral;
    Triple triple;
  };
  struct Chunk {
    Record records[kChunkSize];
  };
  /// Posting-list storage, one block: this header, then `cap` record
  /// slots. Slots below `used` are published and never rewritten. A key's
  /// first spine in a field comes from its log's arena with exactly
  /// kInitialSpineCap slots; a grown copy has at least 2 * (that + 1).
  struct Spine {
    explicit Spine(uint32_t capacity) : cap(capacity) {}
    uint32_t* slots() {
      return reinterpret_cast<uint32_t*>(reinterpret_cast<char*>(this) +
                                         sizeof(Spine));
    }
    const uint32_t* slots() const {
      return reinterpret_cast<const uint32_t*>(
          reinterpret_cast<const char*>(this) + sizeof(Spine));
    }
    bool in_arena() const { return cap == kInitialSpineCap; }
    std::atomic<uint32_t> used{0};
    const uint32_t cap;
  };
  static constexpr size_t kFirstSpineBytes =
      sizeof(Spine) + kInitialSpineCap * sizeof(uint32_t);
  /// One key's postings in one field.
  struct Postings {
    /// Null until the first posting; then the first spine or the latest
    /// grown copy.
    std::atomic<Spine*> spine{nullptr};
    /// Live postings, for access-path sizing and the Distinct*() counters.
    /// Exact for the latest state; a pinned reader may see it ahead of its
    /// snapshot.
    std::atomic<uint64_t> live{0};
  };
  /// A distinct string, one arena block: this header, then the bytes.
  /// Whole-log compaction is the only way a key disappears.
  struct KeyNode {
    KeyNode(KeyId key_id, size_t key_bytes)
        : id(key_id), key_size(static_cast<uint32_t>(key_bytes)) {}
    std::string_view key() const {
      return {reinterpret_cast<const char*>(this) + sizeof(KeyNode), key_size};
    }
    const KeyId id;
    const uint32_t key_size;
    std::array<Postings, 3> postings;  ///< By Field.
  };
  struct KeyChunk {
    std::atomic<KeyNode*> nodes[kKeyChunkSize];
  };
  /// The string -> id hash index: chains of ids, one per bucket, with
  /// twice as many buckets as the ids it can link. The writer builds a
  /// copy twice the size when its ids are used up and retires the old one
  /// through the epoch limbo, so chains stay short however many keys a
  /// log collects (dead values included, until compaction).
  struct KeyIndex {
    explicit KeyIndex(size_t capacity) : heads(2 * capacity), links(capacity) {}
    size_t capacity() const { return links.size(); }
    /// Id + 1 of each bucket's latest key; 0 for an empty bucket.
    std::vector<std::atomic<uint32_t>> heads;
    /// By id: the key's hash in the high half, the next id + 1 in its
    /// chain in the low half, so a lookup compares hashes before it
    /// touches a node.
    std::vector<std::atomic<uint64_t>> links;
  };
  /// Bump allocator for one log's key nodes and first spines: written by
  /// the writer only, freed whole with its log.
  class Arena {
   public:
    Arena() = default;
    ~Arena();
    Arena(const Arena&) = delete;
    Arena& operator=(const Arena&) = delete;
    void* Allocate(size_t bytes);

   private:
    static constexpr size_t kBlockBytes = 64 * 1024;
    std::vector<char*> blocks_;
    char* next_ = nullptr;
    size_t left_ = 0;
  };
  struct Guts {
    std::atomic<uint64_t> size{0};  ///< Published records (incl. dead).
    std::array<std::atomic<Chunk*>, kMaxChunks> chunks{};
    std::atomic<uint32_t> key_count{0};  ///< Published key ids.
    std::array<std::atomic<KeyChunk*>, kMaxKeyChunks> key_chunks{};
    std::atomic<KeyIndex*> index{nullptr};
    Arena arena;
  };
  /// @}

  /// Lock-split internals: public mutators take write_mu_ once, open one
  /// WriterScope, and delegate here, so compound operations (SetOne =
  /// RemoveMatching + Add) commit as a single epoch.
  Status AddLocked(Triple triple, WriterScope& ws)
      REQUIRES(write_mu_);
  Status RemoveLocked(const Triple& triple, WriterScope& ws)
      REQUIRES(write_mu_);
  size_t RemoveMatchingLocked(const TriplePattern& pattern, WriterScope& ws)
      REQUIRES(write_mu_);
  void ClearLocked(WriterScope& ws) REQUIRES(write_mu_);
  /// InstallImage's appends, after ClearLocked, for a non-empty image.
  void InstallLocked(const Image& image, WriterScope& ws) REQUIRES(write_mu_);
  /// Stamps a live record dead at the batch's epoch and drops it from its
  /// keys' live counts.
  void Kill(Record* rec, const Guts& guts, WriterScope& ws)
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

  /// The access path a pattern resolves to, plus the postings a
  /// subject/object/property path will walk.
  struct PathChoice {
    IndexPath path = IndexPath::kScan;
    uint64_t candidates = 0;
    const Postings* postings = nullptr;
  };
  static PathChoice ChoosePath(const KeyPattern& pattern, uint64_t snapshot,
                               const Guts* guts);
  /// ChoosePath for a selection that runs: bumps the `trim.select.*`
  /// counters and fills `stats`' path and candidates.
  static PathChoice BeginSelect(const KeyPattern& pattern, uint64_t snapshot,
                                const Guts* guts, SelectStats* stats);
  /// Calls `fn(Record&)` for each record on `choice`'s path that is
  /// visible at `snapshot` and matches `pattern`, until `fn` returns false.
  template <typename Fn>
  static void ForMatches(const Guts* guts, uint64_t snapshot,
                         const PathChoice& choice, const KeyPattern& pattern,
                         SelectStats* stats, Fn&& fn);
  static bool KeysMatch(const Record& rec, const KeyPattern& pattern) {
    return (pattern.subject == kAnyKey ||
            rec.keys[kSubjectField] == pattern.subject) &&
           (pattern.property == kAnyKey ||
            rec.keys[kPropertyField] == pattern.property) &&
           (pattern.object == kAnyKey ||
            (rec.keys[kObjectField] == pattern.object &&
             rec.kind == pattern.object_kind));
  }
  /// Breadth-first from `resource` over resource-valued objects, following
  /// object key ids straight to subject postings: `row_fn(const Triple&)`
  /// sees every visible triple of every reached subject, `reached(
  /// std::string_view)` each newly reached resource. One pin throughout.
  template <typename RowFn, typename ReachFn>
  void WalkReachable(std::string_view resource, RowFn&& row_fn,
                     ReachFn&& reached) const;
  /// The first record visible at `snapshot` whose fields are exactly
  /// `exact`'s (no kAnyKey), found through the subject's postings; null
  /// when a field is kNoKey.
  static Record* FindExact(const Guts* guts, uint64_t snapshot,
                           const KeyPattern& exact);
  /// The id of `text` in `guts` (which may be null), or kNoKey.
  static KeyId FindId(const Guts* guts, std::string_view text);
  /// `t`'s fields as an exact KeyPattern for FindExact.
  static KeyPattern ExactKeys(const Guts* guts, const Triple& t);

  static Record* RecordAt(const Guts& guts, uint32_t slot) {
    Chunk* chunk =
        guts.chunks[slot / kChunkSize].load(std::memory_order_seq_cst);
    return &chunk->records[slot % kChunkSize];
  }
  static bool Visible(const Record& rec, uint64_t snapshot) {
    uint64_t birth = rec.birth.load(std::memory_order_relaxed);
    if (birth == 0 || birth > snapshot) return false;
    return snapshot < rec.death.load(std::memory_order_relaxed);
  }
  /// The node of a key id; null for kNoKey and kAnyKey.
  static KeyNode* NodeOf(const Guts& guts, KeyId id) {
    if (id >= kNoKey) return nullptr;
    return guts.key_chunks[id / kKeyChunkSize]
        .load(std::memory_order_seq_cst)
        ->nodes[id % kKeyChunkSize]
        .load(std::memory_order_seq_cst);
  }
  static uint32_t KeyHash(std::string_view key) {
    // Raw FNV-1a is no good here: its high bits barely depend on a key's
    // last bytes, so sequential ids ("inst:1", "inst:2", ...) would share
    // a few chains. The finalizer spreads every input bit over the output;
    // a bucket takes the low bits of the high half.
    return static_cast<uint32_t>(Fmix64(Fnv1a(key)) >> 32);
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
  static KeyNode* FindKey(const Guts& guts, uint32_t hash,
                          std::string_view key);
  static void FreeGuts(Guts* guts);

  /// Links `id` into `index`'s chain for `hash`; the link is in place
  /// before the bucket head names it.
  static void LinkKey(KeyIndex* index, KeyId id, uint32_t hash);
  /// Appends a new key to `guts`' table (the caller knows it is absent),
  /// growing its hash index when the index's ids are used up.
  KeyNode* CreateKey(Guts& guts, uint32_t hash, std::string_view key)
      REQUIRES(write_mu_);
  /// Posts `slot` under `node`'s `field` and counts it live. True when the
  /// key had no live posting in that field before, i.e. it is a new
  /// distinct key there.
  bool Post(Guts& guts, KeyNode* node, Field field, uint32_t slot)
      REQUIRES(write_mu_);
  void AppendPosting(Postings& postings, uint32_t slot, const Guts& guts)
      REQUIRES(write_mu_);
  /// Replaces `postings`' spine by a copy with `cap` slots that leaves out
  /// the entries no reader can see any more; the old spine is retired.
  Spine* GrowSpine(Postings& postings, uint32_t cap, const Guts& guts)
      REQUIRES(write_mu_);

  /// Serializes mutations only; see the concurrency contract above.
  mutable util::InstrumentedMutex write_mu_{"trim.store.write"};
  /// Epoch domain (mutable: const reads pin it).
  // slim-lint: allow(unguarded) -- internally synchronized epoch domain
  mutable EpochManager epoch_;

  /// The record log and its key table; null until the first add and after
  /// a compaction that finds nothing live. Read lock-free under an epoch
  /// pin.
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

/// \brief A pinned, key-level read of one record log: resolves strings to
/// key ids once, then selects by ids, so a join that probes with values
/// it read from earlier rows never hashes a string.
///
/// Construction pins the store (nesting under any Snapshot the thread
/// holds) and captures the current log; every id it yields and every row
/// it hands out belong to that log and stay valid until it is destroyed,
/// whatever writers and compactions do meanwhile. Reads never insert a
/// key. Thread-affine like Snapshot.
class TripleStore::KeyView {
 public:
  explicit KeyView(const TripleStore& store)
      : store_(store),
        pin_(store.BeginRead()),
        guts_(store.guts_.load(std::memory_order_seq_cst)) {}
  ~KeyView() { store_.EndRead(pin_); }
  KeyView(const KeyView&) = delete;
  KeyView& operator=(const KeyView&) = delete;

  /// The id of `text`, or kNoKey when the store does not hold it.
  KeyId Find(std::string_view text) const;
  /// `pattern` with each fixed field resolved by one lookup.
  KeyPattern Resolve(const TriplePattern& pattern) const;

  /// TripleStore::SelectEach over ids: the same access path, the same
  /// rows in the same order, the same stats and `trim.select.*` counters.
  /// `fn(const Row&)` returning false stops the walk.
  template <typename Fn>
  void SelectEach(const KeyPattern& pattern, Fn&& fn,
                  SelectStats* stats = nullptr) const {
    const PathChoice choice =
        BeginSelect(pattern, pin_.snapshot, guts_, stats);
    ForMatches(guts_, pin_.snapshot, choice, pattern, stats,
               [&fn](const Record& rec) {
                 return fn(Row{rec.triple, rec.keys[kSubjectField],
                               rec.keys[kPropertyField],
                               rec.keys[kObjectField]});
               });
  }

 private:
  friend class TripleStore;
  const TripleStore& store_;
  const ReadPin pin_;
  const Guts* const guts_;
};

template <typename Fn>
void TripleStore::ForMatches(const Guts* guts, uint64_t snapshot,
                             const PathChoice& choice,
                             const KeyPattern& pattern, SelectStats* stats,
                             Fn&& fn) {
  auto visit = [&](Record* rec) {
    if (!Visible(*rec, snapshot)) return true;
    if (stats != nullptr) ++stats->examined;
    if (!KeysMatch(*rec, pattern)) return true;
    if (stats != nullptr) ++stats->matched;
    return static_cast<bool>(fn(*rec));
  };
  if (choice.path == IndexPath::kScan) {
    for (uint64_t slot = 0; slot < choice.candidates; ++slot) {
      if (!visit(RecordAt(*guts, static_cast<uint32_t>(slot)))) return;
    }
  } else if (choice.postings != nullptr) {
    const Spine* spine = choice.postings->spine.load(std::memory_order_seq_cst);
    if (spine == nullptr) return;
    const uint32_t used = spine->used.load(std::memory_order_seq_cst);
    for (uint32_t j = 0; j < used; ++j) {
      if (!visit(RecordAt(*guts, spine->slots()[j]))) return;
    }
  }
}

}  // namespace slim::trim

#endif  // SLIM_TRIM_TRIPLE_STORE_H_
