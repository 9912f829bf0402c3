#ifndef SLIM_TRIM_STORE_STATS_H_
#define SLIM_TRIM_STORE_STATS_H_

/// \file store_stats.h
/// \brief Store introspection: a point-in-time statistical snapshot of a
/// triple store, for operators and the query planner.
///
/// The paper's TRIM layer serves every selection and reachability view, so
/// understanding *why* a store behaves the way it does — index shapes,
/// predicate skew, tombstone debt, resident bytes — matters as much as the
/// per-op `trim.*` counters. `ComputeStats` walks the store and returns one
/// `StoreStats`; `PublishStoreStats` refreshes the `slim.store.*` gauge
/// family in a metrics registry on demand, from where the Prometheus
/// endpoint and `obs_dump` pick it up.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "trim/triple_store.h"

namespace slim::trim {

/// \brief Point-in-time statistics for one store instance.
struct StoreStats {
  std::string backend;  ///< "hash": the hash-indexed TripleStore.

  uint64_t live_triples = 0;
  uint64_t tombstoned = 0;  ///< Dead slots awaiting reuse / compaction.

  /// Distinct keys per index ("entry count" of each hash/posting index).
  uint64_t subject_keys = 0;
  uint64_t property_keys = 0;
  uint64_t object_keys = 0;
  /// Total posting entries per index (>= keys; == live triples per index,
  /// kept explicit so an index bug shows up as a skew).
  uint64_t subject_postings = 0;
  uint64_t property_postings = 0;
  uint64_t object_postings = 0;
  /// Longest key chain in any hash bucket of the key table: a lookup's
  /// worst-case key compares.
  uint64_t longest_chain = 0;

  /// Predicate-cardinality histogram: bucket i counts predicates whose
  /// live-triple fanout n satisfies 2^(i-1) < n <= 2^i (bucket 0: n == 1).
  /// Skewed stores — one `bundleContent` predicate carrying most triples —
  /// show up as mass in the high buckets.
  std::vector<uint64_t> predicate_cardinality;
  uint64_t predicate_max_fanout = 0;

  /// Key-table occupancy: every string in the key table (until a
  /// compaction drops the unused ones), and their bytes.
  uint64_t interned_strings = 0;
  uint64_t interned_bytes = 0;

  /// \name Epoch domain: snapshot-read lag + limbo debt.
  /// `epoch_lag` is current minus the oldest pinned epoch — a reader
  /// pinned for a long time holds back reclamation by exactly this many
  /// committed batches.
  /// @{
  uint64_t epoch_current = 0;
  uint64_t epoch_oldest_pin = 0;
  uint64_t epoch_lag = 0;
  uint64_t epoch_retired = 0;
  uint64_t epoch_reclaimed = 0;
  uint64_t epoch_limbo = 0;
  /// @}

  /// Estimated resident heap bytes of triple data + indexes.
  uint64_t approximate_bytes = 0;

  /// Human-readable multi-line report (obs_dump's store section).
  std::string ToText() const;
  /// One JSON object, machine-readable.
  std::string ToJson() const;
};

/// Walks the hash-indexed store's key table (keys, postings and the
/// predicate histogram come from each key's per-field live counts) and its
/// buckets, plus its live triples for `approximate_bytes`. Holds the
/// store's writer lock.
StoreStats ComputeStats(const TripleStore& store);

/// Refreshes the `slim.store.*` gauge family in `registry` (the process
/// default when null) from `stats`. Gauges are Set, not added, so repeated
/// refreshes are idempotent; `slim.store.refresh.calls` counts refreshes.
void PublishStoreStats(const StoreStats& stats,
                       obs::MetricsRegistry* registry = nullptr);

}  // namespace slim::trim

#endif  // SLIM_TRIM_STORE_STATS_H_
