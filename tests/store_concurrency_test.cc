// Threaded + property tests for the epoch-snapshotted TripleStore
// (trim/triple_store.h, DESIGN.md §10), modeled on obs_stress_test.cc:
// exact post-join totals, invariants checked from reader threads via atomic
// violation counters, everything library-level so it runs in both
// SLIM_ENABLE_OBS legs. This suite is the store's customer of the TSan CI
// job (SLIM_SANITIZE=thread).
//
// Covered contracts:
//  - snapshot isolation: a reader pinned before a writer batch sees none
//    of it, a reader pinned after sees all of it (never a prefix);
//  - readers running concurrently with a writer never observe a torn
//    batch, and post-join totals are exact;
//  - epoch reclamation under churn: retired payloads drain once pins
//    advance, and tombstone debt is compacted instead of growing without
//    bound;
//  - exact accounting: size(), Distinct*(), ComputeStats and the
//    planner's per-key counts always equal a recount of the live triples,
//    across pins, Clear() and compaction;
//  - the posting layout: a snapshot pinned while a key's postings fit in
//    its first spine keeps reading exactly its rows while the key grows
//    through external spines, shrinks, and is compacted;
//  - the key table: ids resolve while the writer creates keys, a query
//    pinned across a whole-log compaction (which renumbers every id)
//    returns its snapshot's rows, and a load replaces the contents under
//    one writer lock while another writer toggles a statement of the file.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "slim/query.h"
#include "trim/persistence.h"
#include "trim/store_stats.h"
#include "trim/triple_store.h"

namespace slim::trim {
namespace {

using WriteOp = TripleStore::WriteOp;

Triple Lit(const std::string& s, const std::string& p, const std::string& o) {
  return Triple{s, p, Object::Literal(o)};
}

std::multiset<std::string> Render(const std::vector<Triple>& triples) {
  std::multiset<std::string> out;
  for (const Triple& t : triples) out.insert(TripleToString(t));
  return out;
}

// ---------------------------------------------------------------------------
// Snapshot isolation (single-threaded property test)
// ---------------------------------------------------------------------------

// Rounds of batches against a model set: a snapshot pinned before each
// batch must keep seeing the exact pre-batch state after the batch lands,
// and a snapshot pinned after must see the exact post-batch state. The
// xorshift-driven batches mix adds and removes so both directions of the
// visibility check (birth and death epochs) are exercised.
TEST(StoreConcurrency, SnapshotPinnedBeforeBatchSeesNoneOfIt) {
  TripleStore store;
  std::set<std::string> model;  // object texts currently live
  auto triple_of = [](uint64_t v) {
    return Lit("s" + std::to_string(v % 13), "p", "v" + std::to_string(v));
  };
  uint64_t rng = 0x9e3779b97f4a7c15ull;
  auto next = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  uint64_t value_counter = 0;
  for (int round = 0; round < 16; ++round) {
    std::vector<Triple> before_triples = store.Select(TriplePattern{});
    ASSERT_EQ(before_triples.size(), model.size());

    // Pin BEFORE the batch.
    TripleStore::Snapshot before(store);

    // Build one batch: a few removes of existing values, a few adds.
    std::vector<WriteOp> ops;
    std::vector<uint64_t> removed;
    std::vector<uint64_t> live_values;
    for (const std::string& v : model) {
      live_values.push_back(std::stoull(v.substr(1)));
    }
    size_t removes = live_values.empty() ? 0 : 1 + next() % 3;
    for (size_t i = 0; i < removes && !live_values.empty(); ++i) {
      size_t pick = next() % live_values.size();
      uint64_t v = live_values[pick];
      live_values.erase(live_values.begin() + pick);
      ops.push_back(WriteOp::RemoveOp(triple_of(v)));
      removed.push_back(v);
    }
    size_t adds = 2 + next() % 4;
    std::vector<uint64_t> added;
    for (size_t i = 0; i < adds; ++i) {
      uint64_t v = value_counter++;
      ops.push_back(WriteOp::AddOp(triple_of(v)));
      added.push_back(v);
    }

    TripleStore::BatchResult result = store.ApplyBatch(std::move(ops));
    ASSERT_EQ(result.applied, removed.size() + added.size());

    // The pre-batch pin is still held by this thread, so reads evaluate at
    // the old epoch: the batch must be entirely invisible.
    EXPECT_EQ(Render(store.Select(TriplePattern{})), Render(before_triples));
    for (uint64_t v : added) EXPECT_FALSE(store.Contains(triple_of(v)));
    for (uint64_t v : removed) EXPECT_TRUE(store.Contains(triple_of(v)));

    // Drop the old pin; a snapshot pinned after the batch sees all of it.
    {
      TripleStore::Snapshot unpin_scope = std::move(before);
    }
    for (uint64_t v : removed) model.erase("v" + std::to_string(v));
    for (uint64_t v : added) model.insert("v" + std::to_string(v));

    TripleStore::Snapshot after(store);
    EXPECT_GT(after.epoch(), 0u);
    std::vector<Triple> now = store.Select(TriplePattern{});
    ASSERT_EQ(now.size(), model.size());
    std::set<std::string> seen;
    for (const Triple& t : now) seen.insert(t.object.text);
    EXPECT_EQ(seen, model);
    for (uint64_t v : added) EXPECT_TRUE(store.Contains(triple_of(v)));
    for (uint64_t v : removed) EXPECT_FALSE(store.Contains(triple_of(v)));
  }
}

TEST(StoreConcurrency, SetOneIsOneAtomicEpoch) {
  TripleStore store;
  ASSERT_TRUE(store.SetOne("s", "p", Object::Literal("v0")).ok());
  TripleStore::Snapshot pinned(store);
  ASSERT_TRUE(store.SetOne("s", "p", Object::Literal("v1")).ok());
  // Pinned reader still sees the old value — not zero values, not two.
  std::vector<Triple> old_view =
      store.Select(TriplePattern::BySubjectProperty("s", "p"));
  ASSERT_EQ(old_view.size(), 1u);
  EXPECT_EQ(old_view[0].object.text, "v0");
}

// ---------------------------------------------------------------------------
// Concurrent readers vs. a batching writer
// ---------------------------------------------------------------------------

// The writer replaces a whole 8-triple "generation" per batch (remove the
// old 8, add the new 8, one ApplyBatch). Any reader, at any moment, must
// see exactly 8 generation triples and all 8 from the SAME generation —
// seeing 0, a mix, or a partial batch means snapshot isolation tore.
TEST(StoreConcurrency, ReadersNeverObserveTornBatches) {
  TripleStore store;
  constexpr int kGenSize = 8;
  constexpr int kGenerations = 300;
  constexpr int kReaders = 4;
  // A static backdrop of unrelated records around the generations.
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(
        store.AddLiteral("base" + std::to_string(i), "p.base", "x").ok());
  }
  auto gen_triple = [](int gen, int k) {
    return Lit("gen" + std::to_string(gen) + "." + std::to_string(k),
               "p.batch", "g" + std::to_string(gen));
  };
  // Generation 1 exists before readers start, so "exactly 8" holds
  // unconditionally for the whole reader loop.
  {
    std::vector<WriteOp> ops;
    for (int k = 0; k < kGenSize; ++k) {
      ops.push_back(WriteOp::AddOp(gen_triple(1, k)));
    }
    ASSERT_EQ(store.ApplyBatch(std::move(ops)).applied,
              static_cast<size_t>(kGenSize));
  }

  std::atomic<bool> start{false};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> torn_count{0};
  std::atomic<uint64_t> torn_mix{0};
  std::atomic<uint64_t> reads{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!start.load(std::memory_order_acquire)) {
      }
      // do-while: on a single-core host the writer can finish all its
      // generations before any reader gets a timeslice; every reader
      // still performs at least one full consistency check (the final
      // generation satisfies the same "exactly one generation" invariant).
      do {
        TripleStore::Snapshot snap(store);
        std::vector<Triple> gen =
            store.Select(TriplePattern::ByProperty("p.batch"));
        if (gen.size() != kGenSize) {
          torn_count.fetch_add(1, std::memory_order_relaxed);
        } else {
          const std::string& tag = gen[0].object.text;
          for (const Triple& t : gen) {
            if (t.object.text != tag) {
              torn_mix.fetch_add(1, std::memory_order_relaxed);
              break;
            }
          }
        }
        // Same snapshot, second read: must agree exactly (repeatable read).
        std::vector<Triple> again =
            store.Select(TriplePattern::ByProperty("p.batch"));
        if (Render(again) != Render(gen)) {
          torn_mix.fetch_add(1, std::memory_order_relaxed);
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      } while (!done.load(std::memory_order_acquire));
    });
  }

  std::thread writer([&] {
    start.store(true, std::memory_order_release);
    for (int gen = 2; gen <= kGenerations; ++gen) {
      std::vector<WriteOp> ops;
      for (int k = 0; k < kGenSize; ++k) {
        ops.push_back(WriteOp::RemoveOp(gen_triple(gen - 1, k)));
      }
      for (int k = 0; k < kGenSize; ++k) {
        ops.push_back(WriteOp::AddOp(gen_triple(gen, k)));
      }
      TripleStore::BatchResult result = store.ApplyBatch(std::move(ops));
      if (result.applied != static_cast<size_t>(2 * kGenSize)) {
        torn_mix.fetch_add(1, std::memory_order_relaxed);
      }
      // Hand the core to the readers between publications so single-core
      // hosts still interleave reads with live churn.
      std::this_thread::yield();
    }
    done.store(true, std::memory_order_release);
  });

  writer.join();
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(torn_count.load(), 0u);
  EXPECT_EQ(torn_mix.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  // Exact post-join state: the final generation, nothing else.
  std::vector<Triple> final_gen =
      store.Select(TriplePattern::ByProperty("p.batch"));
  ASSERT_EQ(final_gen.size(), static_cast<size_t>(kGenSize));
  for (const Triple& t : final_gen) {
    EXPECT_EQ(t.object.text, "g" + std::to_string(kGenerations));
  }
  EXPECT_EQ(store.size(), static_cast<size_t>(64 + kGenSize));
}

// ---------------------------------------------------------------------------
// Epoch reclamation under churn
// ---------------------------------------------------------------------------

// A writer churns SetOne over a handful of attributes (every round
// tombstones the previous value) while readers pin snapshots and read the
// attributes back. After the join: every retired object must drain once
// nothing is pinned, and compaction must have kept tombstone debt well
// below the total churn.
TEST(StoreConcurrency, EpochReclamationUnderChurn) {
  TripleStore store;
  // Enough churn that the log crosses the compaction dead-floor many times
  // (kRounds dead records, well above kCompactDeadFloor).
  constexpr int kRounds = 12000;
  constexpr int kAttrs = 4;
  constexpr int kReaders = 2;
  for (int a = 0; a < kAttrs; ++a) {
    ASSERT_TRUE(store
                    .SetOne("node" + std::to_string(a), "value",
                            Object::Literal("r0"))
                    .ok());
  }
  std::atomic<bool> done{false};
  std::atomic<uint64_t> bad_reads{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        TripleStore::Snapshot snap(store);
        for (int a = 0; a < kAttrs; ++a) {
          std::optional<Object> v =
              store.GetOne("node" + std::to_string(a), "value");
          // Under the pin there is always exactly one value and it is a
          // well-formed round marker (a torn/reclaimed-under-us read would
          // surface as a missing or corrupt value — or as a TSan report).
          if (!v.has_value() || v->text.empty() || v->text[0] != 'r') {
            bad_reads.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (int round = 1; round <= kRounds; ++round) {
    std::string marker = "r" + std::to_string(round);
    ASSERT_TRUE(store
                    .SetOne("node" + std::to_string(round % kAttrs), "value",
                            Object::Literal(marker))
                    .ok());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(bad_reads.load(), 0u);
  EXPECT_EQ(store.size(), static_cast<size_t>(kAttrs));

  // With no pins left, everything retired is reclaimable.
  store.ReclaimRetired();
  TripleStore::EpochStats epoch = store.GetEpochStats();
  EXPECT_GT(epoch.retired, 0u);
  EXPECT_EQ(epoch.limbo, 0u);
  EXPECT_EQ(epoch.reclaimed, epoch.retired);
  EXPECT_GE(epoch.current, static_cast<uint64_t>(kRounds));
  EXPECT_EQ(epoch.lag, 0u);

  // Compaction kept the dead-record debt far below the churn volume.
  StoreStats stats = ComputeStats(store);
  EXPECT_LT(stats.tombstoned, static_cast<uint64_t>(kRounds) / 2);
  EXPECT_EQ(stats.live_triples, static_cast<uint64_t>(kAttrs));

  // A pinned reader blocks reclamation (lag reported), an unpinned one
  // releases it.
  {
    TripleStore::Snapshot pin(store);
    ASSERT_TRUE(store.AddLiteral("extra", "value", "r-extra").ok());
    ASSERT_TRUE(store.Remove(Lit("extra", "value", "r-extra")).ok());
    store.ReclaimRetired();
    TripleStore::EpochStats pinned_epoch = store.GetEpochStats();
    EXPECT_GT(pinned_epoch.limbo, 0u);
    EXPECT_GT(pinned_epoch.lag, 0u);
    EXPECT_EQ(pinned_epoch.oldest_pin, pin.epoch());
  }
  store.ReclaimRetired();
  EXPECT_EQ(store.GetEpochStats().limbo, 0u);
}

// ---------------------------------------------------------------------------
// Exact accounting
// ---------------------------------------------------------------------------

// Clear() under a held snapshot: the pinned reader keeps its view, and
// once the pin is gone the planner's per-key counts are exact at once —
// an empty store plans an empty selection, with no wait for a compaction.
TEST(StoreConcurrency, ClearUnderPinLeavesPlannerCountsExact) {
  TripleStore store;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(store.AddLiteral("s" + std::to_string(i), "p", "v").ok());
  }
  const TriplePattern by_p = TriplePattern::ByProperty("p");
  {
    TripleStore::Snapshot pin(store);
    store.Clear();
    TripleStore::AccessPlan pinned = store.PlanAccess(by_p);
    EXPECT_EQ(pinned.path, TripleStore::IndexPath::kProperty);
    EXPECT_EQ(pinned.candidates, 100u);
    EXPECT_EQ(store.Select(by_p).size(), 100u);
  }
  EXPECT_EQ(store.size(), 0u);
  TripleStore::AccessPlan plan = store.PlanAccess(by_p);
  EXPECT_EQ(plan.path, TripleStore::IndexPath::kEmpty);
  EXPECT_EQ(plan.candidates, 0u);
  TripleStore::SelectStats stats;
  store.SelectEach(by_p, [](const Triple&) { return true; }, &stats);
  EXPECT_EQ(stats.path, TripleStore::IndexPath::kEmpty);
  EXPECT_EQ(stats.candidates, 0u);

  ASSERT_TRUE(store.AddLiteral("s0", "p", "v").ok());
  plan = store.PlanAccess(by_p);
  EXPECT_EQ(plan.path, TripleStore::IndexPath::kProperty);
  EXPECT_EQ(plan.candidates, 1u);
  stats = {};
  store.SelectEach(by_p, [](const Triple&) { return true; }, &stats);
  EXPECT_EQ(stats.candidates, 1u);
  EXPECT_EQ(stats.matched, 1u);
  EXPECT_EQ(store.DistinctSubjects(), 1u);
  EXPECT_EQ(store.DistinctProperties(), 1u);
  EXPECT_EQ(store.DistinctObjects(), 1u);
}

// Holds a TripleStore::Snapshot on its own thread until destroyed: it
// blocks reclamation and compaction while this thread's reads stay
// current.
class PinHolder {
 public:
  explicit PinHolder(const TripleStore& store) {
    std::promise<void> pinned;
    std::future<void> is_pinned = pinned.get_future();
    thread_ = std::thread([&store, pinned = std::move(pinned),
                           released = release_.get_future()]() mutable {
      TripleStore::Snapshot pin(store);
      pinned.set_value();
      released.wait();
    });
    is_pinned.wait();
  }
  ~PinHolder() {
    release_.set_value();
    thread_.join();
  }
  PinHolder(const PinHolder&) = delete;
  PinHolder& operator=(const PinHolder&) = delete;

 private:
  std::promise<void> release_;
  std::thread thread_;
};

// The store's counters against a brute-force recount of ForEach, after
// every step of a seeded random mix of every mutator, Clear() and
// ReclaimRetired(), with and without a pin held on another thread. The
// model is the live triples in insertion order, which ForEach must
// reproduce exactly, also across compactions.
TEST(StoreConcurrency, CountsMatchRecountThroughClearAndCompaction) {
  const std::vector<std::string> subjects = {"s0", "s1", "s2", "s3", "s4",
                                             "s5", "s6", "s7", "s8", "s9",
                                             "s10", "s11"};
  const std::vector<std::string> properties = {"p0", "p1", "p2", "p3", "p4"};
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
    auto random_triple = [&]() {
      std::string o = "v" + std::to_string(pick(16));
      Object object = pick(4) == 0 ? Object::Resource(o) : Object::Literal(o);
      return Triple{subjects[pick(subjects.size())],
                    properties[pick(properties.size())], object};
    };
    TripleStore store;
    std::vector<Triple> model;  // live triples, insertion order
    auto model_add = [&model](const Triple& t) {
      if (std::find(model.begin(), model.end(), t) != model.end()) {
        return false;
      }
      model.push_back(t);
      return true;
    };
    auto model_remove = [&model](const Triple& t) {
      auto it = std::find(model.begin(), model.end(), t);
      if (it == model.end()) return false;
      model.erase(it);
      return true;
    };
    // A live triple half the time, so removes mostly hit.
    auto removal_target = [&]() {
      return !model.empty() && pick(2) == 0 ? model[pick(model.size())]
                                            : random_triple();
    };
    std::optional<PinHolder> pin;
    int clears = 0;
    uint64_t largest_compaction = 0;
    uint64_t tombstoned = 0;

    for (int step = 0; step < 2500; ++step) {
      size_t op = pick(1000);
      if (op < 400) {
        Triple t = random_triple();
        EXPECT_EQ(store.Add(t).ok(), model_add(t));
      } else if (op < 560) {
        Triple t = removal_target();
        EXPECT_EQ(store.Remove(t).ok(), model_remove(t));
      } else if (op < 640) {
        Triple t = random_triple();
        ASSERT_TRUE(store.SetOne(t.subject, t.property, t.object).ok());
        std::erase_if(model, [&t](const Triple& m) {
          return m.subject == t.subject && m.property == t.property;
        });
        model.push_back(t);
      } else if (op < 760) {
        Triple t = random_triple();
        TriplePattern pattern;
        switch (pick(4)) {
          case 0: pattern = TriplePattern::BySubject(t.subject); break;
          case 1: pattern = TriplePattern::ByProperty(t.property); break;
          case 2: pattern = TriplePattern::ByObject(t.object); break;
          default:
            pattern = TriplePattern::BySubjectProperty(t.subject, t.property);
        }
        size_t expected = std::erase_if(
            model, [&pattern](const Triple& m) { return pattern.Matches(m); });
        EXPECT_EQ(store.RemoveMatching(pattern), expected);
      } else if (op < 940) {
        std::vector<TripleStore::WriteOp> ops;
        size_t applied = 0;
        for (size_t i = 1 + pick(16); i > 0; --i) {
          if (pick(3) == 0) {
            Triple t = removal_target();
            applied += model_remove(t);
            ops.push_back(TripleStore::WriteOp::RemoveOp(t));
          } else {
            Triple t = random_triple();
            applied += model_add(t);
            ops.push_back(TripleStore::WriteOp::AddOp(t));
          }
        }
        EXPECT_EQ(store.ApplyBatch(std::move(ops)).applied, applied);
      } else if (op < 942) {
        store.Clear();
        model.clear();
        ++clears;
      } else if (op < 980) {
        store.ReclaimRetired();
      } else if (pin) {
        pin.reset();
      } else {
        pin.emplace(store);
      }

      std::vector<Triple> seen;
      store.ForEach([&seen](const Triple& t) { seen.push_back(t); });
      ASSERT_EQ(seen, model) << "step " << step;

      std::set<std::string> s_keys, o_keys;
      std::map<std::string, uint64_t> fanout;
      for (const Triple& t : model) {
        s_keys.insert(t.subject);
        o_keys.insert(t.object.text);
        ++fanout[t.property];
      }
      std::vector<uint64_t> histogram;
      for (const auto& [property, n] : fanout) {
        size_t bucket = 0;
        while ((uint64_t{1} << bucket) < n) ++bucket;
        if (histogram.size() <= bucket) histogram.resize(bucket + 1, 0);
        ++histogram[bucket];
      }
      EXPECT_EQ(store.size(), model.size());
      EXPECT_EQ(store.DistinctSubjects(), s_keys.size());
      EXPECT_EQ(store.DistinctProperties(), fanout.size());
      EXPECT_EQ(store.DistinctObjects(), o_keys.size());
      StoreStats stats = ComputeStats(store);
      EXPECT_EQ(stats.live_triples, model.size());
      EXPECT_EQ(stats.subject_keys, s_keys.size());
      EXPECT_EQ(stats.property_keys, fanout.size());
      EXPECT_EQ(stats.object_keys, o_keys.size());
      EXPECT_EQ(stats.subject_postings, model.size());
      EXPECT_EQ(stats.property_postings, model.size());
      EXPECT_EQ(stats.object_postings, model.size());
      EXPECT_EQ(stats.predicate_cardinality, histogram);
      for (const std::string& p : properties) {
        TripleStore::AccessPlan plan =
            store.PlanAccess(TriplePattern::ByProperty(p));
        EXPECT_EQ(plan.candidates, fanout.count(p) ? fanout[p] : 0u);
        EXPECT_EQ(plan.path, fanout.count(p)
                                 ? TripleStore::IndexPath::kProperty
                                 : TripleStore::IndexPath::kEmpty);
      }
      if (stats.tombstoned < tombstoned) {
        largest_compaction = std::max(largest_compaction, tombstoned);
      }
      tombstoned = stats.tombstoned;
    }
    EXPECT_GT(clears, 0);
    // At least one compaction dropped more dead records than the floor.
    EXPECT_GT(largest_compaction, 1024u);
  }
}

// ---------------------------------------------------------------------------
// Index-node layout: the first spine lives in the node
// ---------------------------------------------------------------------------

// A key's first kInitialSpineCap (4) postings live in a spine inside its
// index node, which is never retired; a key that outgrows it moves to
// external spines, each retired through the epoch limbo when it is
// replaced. A snapshot pinned while the key has 3 postings must read
// exactly those rows while the writer grows the key to 2,048 postings,
// removes every other one and reclaims under the pin; once the pin goes, a
// whole-log compaction rebuilds the key in fresh nodes. `pin_on_writer`
// holds the pin on the writer's own thread, otherwise on a second thread
// that reads concurrently with every write.
void GrowKeyPastItsNodeUnderPin(bool pin_on_writer) {
  constexpr int kPostings = 2048;
  TripleStore store;
  const TriplePattern by_key = TriplePattern::BySubject("grown");
  auto value = [](int i) { return Lit("grown", "p", "v" + std::to_string(i)); };
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(store.Add(value(i)).ok());
  const std::multiset<std::string> pinned_rows =
      Render({value(0), value(1), value(2)});

  std::optional<TripleStore::Snapshot> writer_pin;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> bad_reads{0};
  std::thread reader;
  auto read_pinned = [&] {
    if (Render(store.Select(by_key)) != pinned_rows) {
      bad_reads.fetch_add(1, std::memory_order_relaxed);
    }
    reads.fetch_add(1, std::memory_order_relaxed);
  };
  if (pin_on_writer) {
    writer_pin.emplace(store);
  } else {
    std::promise<void> pinned;
    std::future<void> is_pinned = pinned.get_future();
    reader = std::thread([&, pinned = std::move(pinned)]() mutable {
      TripleStore::Snapshot pin(store);
      pinned.set_value();
      while (!done.load(std::memory_order_acquire)) read_pinned();
      read_pinned();  // after the writer's reclaim under this pin
    });
    is_pinned.wait();
  }

  // EXPECT, not ASSERT, until the reader is joined.
  for (int i = 3; i < kPostings; ++i) {
    EXPECT_TRUE(store.Add(value(i)).ok());
    if (pin_on_writer && i % 64 == 0) read_pinned();
  }
  std::vector<Triple> model;  // live after the removals: the even values
  for (int i = 0; i < kPostings; ++i) {
    if (i % 2 == 0) {
      model.push_back(value(i));
      continue;
    }
    EXPECT_TRUE(store.Remove(value(i)).ok());
    if (pin_on_writer && i % 64 == 1) read_pinned();
  }
  // The pin holds every grown spine the writer replaced, and the dead
  // records, so nothing it can read is freed and the log is not compacted.
  store.ReclaimRetired();
  EXPECT_GT(store.GetEpochStats().limbo, 0u);
  EXPECT_EQ(ComputeStats(store).tombstoned,
            static_cast<uint64_t>(kPostings / 2));
  if (pin_on_writer) {
    read_pinned();
    writer_pin.reset();
  } else {
    done.store(true, std::memory_order_release);
    reader.join();
  }
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(bad_reads.load(), 0u);

  // Unpinned: the whole log compacts and the limbo drains.
  store.ReclaimRetired();
  EXPECT_EQ(ComputeStats(store).tombstoned, 0u);
  EXPECT_EQ(store.GetEpochStats().limbo, 0u);
  EXPECT_EQ(Render(store.Select(by_key)), Render(model));
  EXPECT_EQ(store.size(), model.size());
  TripleStore::AccessPlan plan = store.PlanAccess(by_key);
  EXPECT_EQ(plan.path, TripleStore::IndexPath::kSubject);
  EXPECT_EQ(plan.candidates, model.size());
  for (const Triple& t : model) EXPECT_TRUE(store.Contains(t));
  EXPECT_FALSE(store.Contains(value(1)));
}

TEST(StoreConcurrency, PinOnWriterThreadReadsKeyThroughGrowthAndCompaction) {
  GrowKeyPastItsNodeUnderPin(/*pin_on_writer=*/true);
}

TEST(StoreConcurrency, PinOnReaderThreadReadsKeyThroughGrowthAndCompaction) {
  GrowKeyPastItsNodeUnderPin(/*pin_on_writer=*/false);
}

// ---------------------------------------------------------------------------
// The key table
// ---------------------------------------------------------------------------

using KeyId = TripleStore::KeyId;
using KeyPattern = TripleStore::KeyPattern;
using Row = TripleStore::Row;

// Readers resolve strings and probe by id while the writer keeps creating
// keys, past two id-table chunks: every statement a reader saw published
// resolves to ids whose probe returns exactly it, and a key a reader finds
// ahead of the published count only ever names its own statement.
TEST(StoreConcurrency, ReadersResolveKeysWhileWriterAddsNewOnes) {
  constexpr int kAdds = 6000;  // 12,007 keys
  constexpr int kReaders = 3;
  TripleStore store;
  auto statement = [](int i) {
    return Lit("s" + std::to_string(i), "p" + std::to_string(i % 7),
               "o" + std::to_string(i));
  };
  std::atomic<int> published{0};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> probes{0};
  std::atomic<int> readers_probed{0};
  std::atomic<uint64_t> bad{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::mt19937 rng(static_cast<unsigned>(r));
      bool probed = false;
      while (!done.load(std::memory_order_acquire)) {
        const int n = published.load(std::memory_order_acquire);
        if (n == 0) continue;
        const Triple t = statement(static_cast<int>(rng() % n));
        TripleStore::KeyView view(store);
        KeyPattern exact;
        exact.subject = view.Find(t.subject);
        exact.property = view.Find(t.property);
        exact.object = view.Find(t.object.text);
        int rows = 0;
        view.SelectEach(exact, [&](const Row& row) {
          ++rows;
          if (!(row.triple == t) || row.subject != exact.subject ||
              row.property != exact.property || row.object != exact.object) {
            bad.fetch_add(1, std::memory_order_relaxed);
          }
          return true;
        });
        if (rows != 1) bad.fetch_add(1, std::memory_order_relaxed);
        const Triple ahead = statement(n + r);
        KeyPattern by_subject;
        by_subject.subject = view.Find(ahead.subject);
        view.SelectEach(by_subject, [&](const Row& row) {
          if (!(row.triple == ahead)) {
            bad.fetch_add(1, std::memory_order_relaxed);
          }
          return true;
        });
        probes.fetch_add(1, std::memory_order_relaxed);
        if (!probed) {
          probed = true;
          readers_probed.fetch_add(1, std::memory_order_release);
        }
      }
    });
  }
  for (int i = 0; i < kAdds; ++i) {
    EXPECT_TRUE(store.Add(statement(i)).ok());
    published.store(i + 1, std::memory_order_release);
    // The last add waits until every reader has probed once, so the
    // readers overlap the writer however the threads are scheduled.
    while (i + 1 == kAdds &&
           readers_probed.load(std::memory_order_acquire) < kReaders) {
      std::this_thread::yield();
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(probes.load(), 0u);
  EXPECT_EQ(bad.load(), 0u);
  StoreStats stats = ComputeStats(store);
  EXPECT_EQ(stats.interned_strings, 2u * kAdds + 7);
  EXPECT_EQ(store.DistinctSubjects(), static_cast<size_t>(kAdds));
  EXPECT_EQ(store.DistinctProperties(), 7u);
  EXPECT_EQ(store.DistinctObjects(), static_cast<size_t>(kAdds));
}

// A query pinned after a mass removal keeps its snapshot while the writer
// compacts the whole log under the pin, renumbering every key, and then
// adds and removes more. A KeyView that captured the old log reads on
// through it with the old ids; queries started after the compaction read
// the compacted log. Both give exactly the snapshot's rows.
TEST(StoreConcurrency, QueryPinnedAcrossCompactionReturnsItsSnapshotRows) {
  constexpr int kScraps = 3000;
  TripleStore store;
  auto scrap = [](int i) { return "scrap" + std::to_string(i); };
  auto contains = [&](int i) {
    return Triple{"bundle", "bundleContent", Object::Resource(scrap(i))};
  };
  auto named = [&](int i) {
    return Lit(scrap(i), "scrapName", "K " + std::to_string(i % 7));
  };
  std::vector<WriteOp> adds;
  for (int i = 0; i < kScraps; ++i) {
    adds.push_back(WriteOp::AddOp(contains(i)));
    adds.push_back(WriteOp::AddOp(named(i)));
  }
  ASSERT_EQ(store.ApplyBatch(std::move(adds)).applied, 2u * kScraps);
  // Two thirds of the scraps go, enough dead records to compact the log.
  std::vector<WriteOp> removes;
  std::multiset<std::string> expected;
  for (int i = 0; i < kScraps; ++i) {
    if (i % 3 == 0) {
      expected.insert(scrap(i) + "|" + named(i).object.text);
      continue;
    }
    removes.push_back(WriteOp::RemoveOp(contains(i)));
    removes.push_back(WriteOp::RemoveOp(named(i)));
  }
  const size_t removed = removes.size();
  ASSERT_EQ(store.ApplyBatch(std::move(removes)).applied, removed);
  // One more commit, so the pin below is past every death epoch and does
  // not hold the compaction back.
  ASSERT_TRUE(store.Add(Lit("pad", "padName", "Rounds")).ok());

  std::optional<TripleStore::Snapshot> pin;
  pin.emplace(store);
  std::optional<TripleStore::KeyView> old_view;
  old_view.emplace(store);
  const KeyId bundle = old_view->Find("bundle");
  const KeyId content = old_view->Find("bundleContent");
  const KeyId scrap_name = old_view->Find("scrapName");
  const KeyId old_scrap3 = old_view->Find(scrap(3));
  ASSERT_EQ(ComputeStats(store).tombstoned, removed);
  store.ReclaimRetired();
  ASSERT_EQ(ComputeStats(store).tombstoned, 0u);  // compacted under the pin
  EXPECT_NE(TripleStore::KeyView(store).Find(scrap(3)), old_scrap3);
  // Writes the pin must not see.
  for (int i = kScraps; i < kScraps + 300; ++i) {
    ASSERT_TRUE(store.Add(contains(i)).ok());
    ASSERT_TRUE(store.Add(named(i)).ok());
  }
  for (int i = 0; i < 900; i += 3) ASSERT_TRUE(store.Remove(named(i)).ok());

  auto render = [](const std::vector<store::Binding>& rows) {
    std::multiset<std::string> out;
    for (const store::Binding& row : rows) {
      out.insert(row.at("s").text + "|" + row.at("n").text);
    }
    return out;
  };
  Result<store::Query> query =
      store::Query::Parse("?b bundleContent ?s . ?s scrapName ?n");
  ASSERT_TRUE(query.ok());

  // The join by hand through the view that captured the old log.
  std::multiset<std::string> seen;
  KeyPattern by_content;
  by_content.subject = bundle;
  by_content.property = content;
  old_view->SelectEach(by_content, [&](const Row& member) {
    KeyPattern name;
    name.subject = member.object;
    name.property = scrap_name;
    old_view->SelectEach(name, [&](const Row& row) {
      seen.insert(member.triple.object.text + "|" + row.triple.object.text);
      return true;
    });
    return true;
  });
  EXPECT_EQ(seen, expected);
  old_view.reset();

  Result<std::vector<store::Binding>> rows = store::Execute(store, *query);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(render(*rows), expected);
  Result<store::AnalyzedQuery> analyzed = store::ExplainAnalyze(store, *query);
  ASSERT_TRUE(analyzed.ok());
  EXPECT_EQ(render(analyzed->solutions), expected);

  // Unpinned: the 700 kept scraps that still have a name, and the 300 new.
  pin.reset();
  rows = store::Execute(store, *query);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1000u);
}

// A load replaces the contents in one InstallImage under one writer lock
// while a second writer keeps adding and removing a statement of the file
// and adding statements of its own. Every load of a good file succeeds and
// leaves exactly the file's statements plus the second writer's: the
// toggled one perhaps, and the own statements it committed after the load,
// which are a contiguous run. Every load of a truncated file fails and
// changes nothing of the file's statements.
using Encode = std::string (*)(const TripleStore&);
using Load = Status (*)(std::string_view, TripleStore*);

void LoadUnderATogglingWriter(Encode encode, Load load) {
  constexpr int kRounds = 60;
  const Triple toggled = Lit("bundle", "bundleName", "Electrolyte");
  auto file_text = [&](const std::string& tag) {
    TripleStore file;
    EXPECT_TRUE(file.Add(toggled).ok());
    for (int i = 0; i < 150; ++i) {
      EXPECT_TRUE(
          file.AddResource("bundle", "bundleContent", tag + std::to_string(i))
              .ok());
    }
    return encode(file);
  };
  const std::string texts[2] = {file_text("a"), file_text("b")};
  auto own = [](uint64_t i) {
    return Lit("writer", "added", std::to_string(i));
  };

  TripleStore store;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (uint64_t i = 0; !done.load(std::memory_order_acquire); ++i) {
      (void)store.Add(toggled);
      (void)store.Add(own(i));
      (void)store.Remove(toggled);
    }
  });
  // The file's statements (less the toggled one) and the run of the
  // writer's own statements, read under one snapshot.
  auto check = [&](const std::string& text, const std::string& what) {
    TripleStore expected;
    EXPECT_TRUE(load(text, &expected).ok());
    EXPECT_TRUE(expected.Remove(toggled).ok());
    std::multiset<std::string> file_rows = Render(expected.Select({}));
    TripleStore::Snapshot snap(store);
    std::multiset<std::string> rows;
    std::set<uint64_t> own_rows;
    store.ForEach([&](const Triple& t) {
      if (t == toggled) return;
      if (t.subject == "writer") {
        own_rows.insert(std::stoull(t.object.text));
      } else {
        rows.insert(TripleToString(t));
      }
    });
    EXPECT_EQ(rows, file_rows) << what;
    if (!own_rows.empty()) {
      EXPECT_EQ(*own_rows.rbegin() - *own_rows.begin() + 1, own_rows.size())
          << what;
    }
  };
  for (int round = 0; round < kRounds; ++round) {
    const std::string& text = texts[round % 2];
    Status st = load(text, &store);
    EXPECT_TRUE(st.ok()) << st;
    check(text, "after load " + std::to_string(round));
    Status bad = load(text.substr(0, text.size() / 2), &store);
    EXPECT_FALSE(bad.ok());
    check(text, "after failed load " + std::to_string(round));
  }
  done.store(true, std::memory_order_release);
  writer.join();
}

TEST(StoreConcurrency, LoadsReplaceContentsWhileAWriterTogglesAFileStatement) {
  LoadUnderATogglingWriter(StoreToXml, StoreFromXml);
}

TEST(StoreConcurrency,
     BinaryLoadsReplaceContentsWhileAWriterTogglesAFileStatement) {
  LoadUnderATogglingWriter(
      StoreToBinary, [](std::string_view bytes, TripleStore* store) {
        TripleStore::Image image;
        SLIM_RETURN_NOT_OK(DecodeStore(std::string(bytes), &image));
        return store->InstallImage(image);
      });
}

}  // namespace
}  // namespace slim::trim
