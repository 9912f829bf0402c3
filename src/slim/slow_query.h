#ifndef SLIM_SLIM_SLOW_QUERY_H_
#define SLIM_SLIM_SLOW_QUERY_H_

/// \file slow_query.h
/// \brief Slow-query sampler: analyzed plans of queries over a latency
/// threshold, kept in a bounded ring and pushed into the diagnostics
/// substrate.
///
/// When a threshold is armed (`set_threshold_us`), `store::Execute` runs
/// every query analyzed (the one executor, with per-step stats on) and
/// hands the finished plan to `MaybeRecord`. A plan at or over the
/// threshold is (1) stored in a bounded ring readable via `Recent()`,
/// (2) counted into the `slim.query.slow.*` metric family, (3) emitted as
/// a warn-level log event carrying the plan JSON — which the flight
/// recorder captures, so a post-mortem bundle explains the slow query —
/// and (4) offered to the flight recorder for an on-disk bundle via
/// SLIM_OBS_DUMP_ON_ERROR semantics (a bundle is written only when a dump
/// path is configured).
///
/// The sampler is thread-safe: the threshold is an atomic read on the
/// query hot path, and the ring takes a mutex only when a slow query is
/// actually recorded.

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "slim/query_plan.h"
#include "util/instrumented_mutex.h"
#include "util/thread_annotations.h"

namespace slim::store {

class SlowQueryLog {
 public:
  explicit SlowQueryLog(size_t capacity = 32);

  /// Arms the sampler: queries taking >= `us` microseconds are recorded
  /// (0 samples every query — the test hook). Negative disarms.
  void set_threshold_us(int64_t us) {
    threshold_us_.store(us, std::memory_order_relaxed);
  }
  int64_t threshold_us() const {
    return threshold_us_.load(std::memory_order_relaxed);
  }
  /// True when armed; Execute consults this before paying ANALYZE costs.
  bool enabled() const { return threshold_us() >= 0; }

  /// Records `plan` if it crossed the threshold. Returns true when the
  /// plan was recorded.
  bool MaybeRecord(const QueryPlan& plan);

  /// Most recent recorded plans, oldest first.
  std::vector<QueryPlan> Recent() const;
  uint64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  void Clear();

 private:
  std::atomic<int64_t> threshold_us_{-1};
  std::atomic<uint64_t> recorded_{0};
  mutable util::InstrumentedMutex mu_{"slim.slow_query.ring"};
  size_t capacity_ GUARDED_BY(mu_);
  std::deque<QueryPlan> ring_ GUARDED_BY(mu_);
};

/// Process-wide sampler consulted by store::Execute. First use arms it
/// from the SLIM_SLOW_QUERY_US environment variable when that is set.
SlowQueryLog& DefaultSlowQueryLog();

}  // namespace slim::store

#endif  // SLIM_SLIM_SLOW_QUERY_H_
