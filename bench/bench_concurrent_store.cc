// Concurrent read scaling of the epoch-snapshotted TripleStore
// (trim/triple_store.h, DESIGN.md §10): 1/2/4/8 reader threads run
// snapshot-pinned selections while ONE background writer keeps committing
// batches the whole time. Because readers never take `trim.store.write` —
// they pin an epoch and walk immutable published postings — aggregate read
// throughput scales near-linearly with reader count on a multi-core host.
// On a single-core host (the CI runner) same-family thread scaling is flat
// by construction, so the acceptance bar (EXPERIMENTS.md CONC-1) is pinned
// the way bench_metrics_contention pins its win: >= 3x aggregate Select
// throughput for 4 concurrent snapshot readers vs the same 4 readers under
// the seed's serialized-read contract at matched writer progress
// (BM_WriterPrefLockSelectHotUnderWriter below).
//
// Totals are exact, not sampled: every reader iteration checks its result
// cardinality (a torn batch fails the run via SkipWithError), and after
// the writer joins, thread 0 re-checks the full post-join store state.
//
// The comparison partner is the seed's read contract, replicated in-binary
// the way bench_metrics_contention replicates the pre-shard registry: until
// this PR the store was documented "single-writer-or-quiescent", so the
// best a concurrent deployment could do was serialize reads against the
// writer behind one reader-writer lock (BM_CoarseLock* families below,
// same store, same workload, shared_mutex around every call). On an
// oversubscribed host that contract additionally pays lock-holder
// preemption convoys — a writer descheduled mid-commit stalls every
// reader — which snapshot pinning is immune to by construction.
//
// Lock-based serialization always sacrifices one side: a reader-preferring
// rwlock (BM_CoarseLockSelectHotUnderWriter) keeps reads fast by starving
// the writer (watch its writer_commits counter collapse), while a
// writer-preferring lock (BM_WriterPrefLockSelectHotUnderWriter) keeps the
// writer at full rate by starving reads. The snapshot store needs no such
// trade: compare its read throughput against the writer-preferring family
// — the only lock configuration whose writer progress matches — for the
// CONC-1 headline number.
//
// Families:
//   BM_SnapshotSelectHotUnderWriter    property selection (256 rows) vs churn
//   BM_CoarseLockSelectHotUnderWriter  same reads, reader-preferring rwlock
//   BM_WriterPrefLockSelectHotUnderWriter  same reads, writer-preferring lock
//   BM_SnapshotPointReadUnderWriter    GetOne point reads vs churn
//   BM_SnapshotViewUnderWriter         reachability view (BFS) vs churn
//   BM_SnapshotPinUnpin                bare Snapshot pin/unpin cost
//   BM_ApplyBatchCommit                writer-side batch commit (64 ops)
//
// All reader families run ->Threads(1)->Threads(2)->Threads(4)->Threads(8)
// ->UseRealTime() (the bench_metrics_contention idiom).

#include <benchmark/benchmark.h>

#include <atomic>
#include <mutex>
#include <condition_variable>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "trim/triple_store.h"

namespace slim::trim {
namespace {

constexpr int kHotRows = 256;       // rows under the hot property
constexpr int kBackdrop = 4096;     // unrelated triples around the hot rows
constexpr int kChurnSubjects = 8;   // subjects the writer churns
constexpr int kBatchPairs = 256;    // remove+add pairs per ingest commit
constexpr int kChainLength = 64;    // reachability chain for ViewFrom
const char kHotProperty[] = "p.hot";

/// One prefilled store per bench family: a hot property with a known-exact
/// cardinality, a broad backdrop so selections pay realistic index walks,
/// a resource chain for the view family, and churn subjects for the writer.
TripleStore* BuildStore() {
  auto* store = new TripleStore();
  for (int i = 0; i < kHotRows; ++i) {
    SLIM_BENCH_CHECK(store->AddLiteral("hot" + std::to_string(i), kHotProperty,
                                       "h" + std::to_string(i)));
  }
  for (int i = 0; i < kBackdrop; ++i) {
    SLIM_BENCH_CHECK(store->AddLiteral("res" + std::to_string(i),
                                       "p.filler" + std::to_string(i % 17),
                                       "v" + std::to_string(i)));
  }
  for (int i = 0; i + 1 < kChainLength; ++i) {
    SLIM_BENCH_CHECK(store->Add(Triple{
        "chain" + std::to_string(i), "p.next",
        Object::Resource("chain" + std::to_string(i + 1))}));
  }
  for (int i = 0; i < kChurnSubjects; ++i) {
    SLIM_BENCH_CHECK(store->SetOne("churn" + std::to_string(i), "value",
                                   Object::Literal("r0")));
  }
  return store;
}

size_t ExpectedSize() {
  return static_cast<size_t>(kHotRows + kBackdrop + (kChainLength - 1) +
                             kChurnSubjects);
}

/// Writer-preferring reader-writer lock (pthread PREFER_WRITER semantics):
/// a waiting writer blocks new shared acquisitions, so a churning writer
/// keeps its commit rate — at the price of reader starvation. This is the
/// other pole of the lock-based design space the snapshot store escapes.
class WriterPrefLock {
 public:
  void lock() {
    std::unique_lock<std::mutex> l(mu_);
    ++writers_waiting_;
    cv_.wait(l, [this] { return !writer_active_ && readers_ == 0; });
    --writers_waiting_;
    writer_active_ = true;
  }
  void unlock() {
    std::lock_guard<std::mutex> l(mu_);
    writer_active_ = false;
    cv_.notify_all();
  }
  void lock_shared() {
    std::unique_lock<std::mutex> l(mu_);
    cv_.wait(l, [this] { return !writer_active_ && writers_waiting_ == 0; });
    ++readers_;
  }
  void unlock_shared() {
    std::lock_guard<std::mutex> l(mu_);
    if (--readers_ == 0) cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int readers_ = 0;
  int writers_waiting_ = 0;
  bool writer_active_ = false;
};

/// Background bulk-ingest writer: each loop commits one bundle-sized
/// ApplyBatch of kBatchPairs remove+add pairs round-robin over the churn
/// subjects (the paper's workload shape — whole bundles arrive while
/// readers browse). Size-neutral, so the exact post-join total is
/// checkable; every commit advances the epoch atomically, so readers
/// continuously pin fresh snapshots against a moving store.
///
/// When `lock` is set the writer models the seed contract instead: every
/// batch holds the store-wide lock exclusively for its full (ms-scale)
/// duration — operands are built outside the critical section, as a
/// careful caller would, and that is still not enough to keep readers
/// responsive.
template <typename Lock = std::shared_mutex>
class ChurnWriter {
 public:
  explicit ChurnWriter(TripleStore* store, Lock* lock = nullptr)
      : store_(store) {
    thread_ = std::thread([this, lock] {
      // The benchmark harness re-invokes each bench function while
      // calibrating iteration counts, so this writer may inherit a store
      // already churned by a predecessor. Epoch-stamp the value namespace
      // (epochs only grow, so names never collide across restarts) and
      // re-anchor every churn subject to a known value first.
      uint64_t base = store_->GetEpochStats().current;
      auto value_name = [base](uint64_t n) {
        return "r" + std::to_string(base) + "." + std::to_string(n);
      };
      std::vector<uint64_t> last(kChurnSubjects, 0);
      for (size_t s = 0; s < kChurnSubjects; ++s) {
        if (lock != nullptr) lock->lock();
        Status status = store_->SetOne("churn" + std::to_string(s), "value",
                                       Object::Literal(value_name(s)));
        if (lock != nullptr) lock->unlock();
        if (!status.ok()) return;
        last[s] = s;
      }
      uint64_t counter = kChurnSubjects;
      size_t subject_idx = 0;
      while (run_.load(std::memory_order_acquire)) {
        std::vector<TripleStore::WriteOp> ops;
        ops.reserve(2 * kBatchPairs);
        for (int k = 0; k < kBatchPairs; ++k) {
          size_t s = subject_idx;
          subject_idx = (subject_idx + 1) % kChurnSubjects;
          std::string subject = "churn" + std::to_string(s);
          ops.push_back(TripleStore::WriteOp::RemoveOp(Triple{
              subject, "value", Object::Literal(value_name(last[s]))}));
          last[s] = counter++;
          ops.push_back(TripleStore::WriteOp::AddOp(Triple{
              subject, "value", Object::Literal(value_name(last[s]))}));
        }
        if (lock != nullptr) lock->lock();
        TripleStore::BatchResult result = store_->ApplyBatch(std::move(ops));
        if (lock != nullptr) lock->unlock();
        if (result.applied != static_cast<size_t>(2 * kBatchPairs)) break;
        commits_.fetch_add(1, std::memory_order_relaxed);
      }
      store_->ReclaimRetired();
    });
  }
  uint64_t Stop() {
    run_.store(false, std::memory_order_release);
    thread_.join();
    return commits_.load(std::memory_order_relaxed);
  }

 private:
  TripleStore* store_;
  std::atomic<bool> run_{true};
  std::atomic<uint64_t> commits_{0};
  std::thread thread_;
};

/// Post-join exactness check, run by thread 0 after the writer stops.
void CheckExactTotals(TripleStore* store, benchmark::State& state) {
  if (store->size() != ExpectedSize()) {
    state.SkipWithError("post-join size drifted");
    return;
  }
  size_t hot = store->Select(TriplePattern::ByProperty(kHotProperty)).size();
  if (hot != static_cast<size_t>(kHotRows)) {
    state.SkipWithError("post-join hot cardinality drifted");
  }
}

// --- Headline: snapshot-pinned property selection under a live writer -----

void BM_SnapshotSelectHotUnderWriter(benchmark::State& state) {
  static TripleStore* store = BuildStore();
  static ChurnWriter<>* writer = nullptr;
  if (state.thread_index() == 0) writer = new ChurnWriter<>(store);
  for (auto _ : state) {
    TripleStore::Snapshot snap(*store);
    std::vector<Triple> rows =
        store->Select(TriplePattern::ByProperty(kHotProperty));
    benchmark::DoNotOptimize(rows.data());
    if (rows.size() != static_cast<size_t>(kHotRows)) {
      state.SkipWithError("torn read: hot cardinality wrong under snapshot");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    uint64_t commits = writer->Stop();
    delete writer;
    writer = nullptr;
    state.counters["writer_commits"] = benchmark::Counter(
        static_cast<double>(commits), benchmark::Counter::kAvgThreads);
    CheckExactTotals(store, state);
  }
}
BENCHMARK(BM_SnapshotSelectHotUnderWriter)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)->UseRealTime();

// --- The seed contract: the same reads serialized behind one rwlock ------

void BM_CoarseLockSelectHotUnderWriter(benchmark::State& state) {
  static TripleStore* store = BuildStore();
  static std::shared_mutex* mu = new std::shared_mutex();
  static ChurnWriter<>* writer = nullptr;
  if (state.thread_index() == 0) writer = new ChurnWriter<>(store, mu);
  for (auto _ : state) {
    std::shared_lock<std::shared_mutex> lock(*mu);
    std::vector<Triple> rows =
        store->Select(TriplePattern::ByProperty(kHotProperty));
    benchmark::DoNotOptimize(rows.data());
    if (rows.size() != static_cast<size_t>(kHotRows)) {
      state.SkipWithError("torn read: hot cardinality wrong under rwlock");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    uint64_t commits = writer->Stop();
    delete writer;
    writer = nullptr;
    state.counters["writer_commits"] = benchmark::Counter(
        static_cast<double>(commits), benchmark::Counter::kAvgThreads);
    CheckExactTotals(store, state);
  }
}
BENCHMARK(BM_CoarseLockSelectHotUnderWriter)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)->UseRealTime();

// --- The other lock pole: writer-preferring, so readers pay the price ----

void BM_WriterPrefLockSelectHotUnderWriter(benchmark::State& state) {
  static TripleStore* store = BuildStore();
  static WriterPrefLock* mu = new WriterPrefLock();
  static ChurnWriter<WriterPrefLock>* writer = nullptr;
  if (state.thread_index() == 0) {
    writer = new ChurnWriter<WriterPrefLock>(store, mu);
  }
  for (auto _ : state) {
    mu->lock_shared();
    std::vector<Triple> rows =
        store->Select(TriplePattern::ByProperty(kHotProperty));
    mu->unlock_shared();
    benchmark::DoNotOptimize(rows.data());
    if (rows.size() != static_cast<size_t>(kHotRows)) {
      state.SkipWithError("torn read: hot cardinality wrong under rwlock");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    uint64_t commits = writer->Stop();
    delete writer;
    writer = nullptr;
    state.counters["writer_commits"] = benchmark::Counter(
        static_cast<double>(commits), benchmark::Counter::kAvgThreads);
    CheckExactTotals(store, state);
  }
}
BENCHMARK(BM_WriterPrefLockSelectHotUnderWriter)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)->UseRealTime();

// --- Point reads: GetOne on churned subjects (always exactly one value) ---

void BM_SnapshotPointReadUnderWriter(benchmark::State& state) {
  static TripleStore* store = BuildStore();
  static ChurnWriter<>* writer = nullptr;
  if (state.thread_index() == 0) writer = new ChurnWriter<>(store);
  uint64_t i = static_cast<uint64_t>(state.thread_index());
  for (auto _ : state) {
    TripleStore::Snapshot snap(*store);
    auto value = store->GetOne("churn" + std::to_string(i % kChurnSubjects),
                               "value");
    benchmark::DoNotOptimize(value);
    if (!value.has_value()) {
      state.SkipWithError("torn read: churned attribute vanished");
      break;
    }
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    writer->Stop();
    delete writer;
    writer = nullptr;
    CheckExactTotals(store, state);
  }
}
BENCHMARK(BM_SnapshotPointReadUnderWriter)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)->UseRealTime();

// --- Reachability view: a whole BFS evaluated against one snapshot -------

void BM_SnapshotViewUnderWriter(benchmark::State& state) {
  static TripleStore* store = BuildStore();
  static ChurnWriter<>* writer = nullptr;
  if (state.thread_index() == 0) writer = new ChurnWriter<>(store);
  for (auto _ : state) {
    std::vector<Triple> view = store->ViewFrom("chain0");
    benchmark::DoNotOptimize(view.data());
    if (view.size() != static_cast<size_t>(kChainLength - 1)) {
      state.SkipWithError("torn read: view cardinality wrong");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    writer->Stop();
    delete writer;
    writer = nullptr;
    CheckExactTotals(store, state);
  }
}
BENCHMARK(BM_SnapshotViewUnderWriter)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)->UseRealTime();

// --- Microcosts: what does the snapshot machinery itself cost? -----------

void BM_SnapshotPinUnpin(benchmark::State& state) {
  static TripleStore* store = BuildStore();
  for (auto _ : state) {
    TripleStore::Snapshot snap(*store);
    benchmark::DoNotOptimize(snap.epoch());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SnapshotPinUnpin)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)->UseRealTime();

// --- Writer side: one serialized batch commit of 64 ops ------------------

void BM_ApplyBatchCommit(benchmark::State& state) {
  TripleStore store;
  constexpr int kBatch = 64;
  uint64_t generation = 0;
  for (auto _ : state) {
    std::vector<TripleStore::WriteOp> ops;
    ops.reserve(2 * kBatch);
    for (int k = 0; k < kBatch; ++k) {
      if (generation > 0) {
        ops.push_back(TripleStore::WriteOp::RemoveOp(
            Triple{"b" + std::to_string(k), "p.batch",
                   Object::Literal("g" + std::to_string(generation - 1))}));
      }
      ops.push_back(TripleStore::WriteOp::AddOp(
          Triple{"b" + std::to_string(k), "p.batch",
                 Object::Literal("g" + std::to_string(generation))}));
    }
    size_t expected = ops.size();
    TripleStore::BatchResult result = store.ApplyBatch(std::move(ops));
    benchmark::DoNotOptimize(result.epoch);
    if (result.applied != expected) {
      state.SkipWithError("batch op failed");
      break;
    }
    ++generation;
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_ApplyBatchCommit);

}  // namespace
}  // namespace slim::trim

SLIM_BENCH_MAIN();
