#ifndef SLIM_SLIM_QUERY_PLAN_H_
#define SLIM_SLIM_QUERY_PLAN_H_

/// \file query_plan.h
/// \brief Reified query plans: EXPLAIN / EXPLAIN ANALYZE output for the
/// SLIM query engine.
///
/// The planner (slim/query.cc) greedily orders clauses by estimated
/// candidate rows and the executor probes the TRIM indexes in that order.
/// `QueryPlan` is that plan as a first-class value, and the very value the
/// executor walks: the join order, the index path each pattern is
/// predicted to take, and estimated cardinalities — plus, in ANALYZE mode,
/// the actual probes issued, rows examined/matched/emitted and per-pattern
/// wall time. Plans render as aligned text (for humans) and as a single
/// JSON object (for the slow-query log and the flight recorder).

#include <cstdint>
#include <string>
#include <vector>

#include "trim/triple_store.h"

namespace slim::store {

/// \brief One join-order step: a single pattern probe.
struct PlanStep {
  /// Index of the clause in the *source* query (0-based; the plan reorders).
  size_t clause_index = 0;
  /// Canonical rendering of the clause ("?s scrapName \"K 4.9\"").
  std::string clause_text;
  /// Which fields are fixed when this step runs: a subset of "spo" —
  /// constants plus variables bound by earlier steps. Empty = full scan.
  std::string bound_fields;
  /// The index path the store is predicted to serve this pattern through.
  trim::TripleStore::IndexPath predicted_path =
      trim::TripleStore::IndexPath::kScan;
  /// Estimated candidate rows for one probe of this pattern.
  uint64_t estimated_rows = 0;
  /// True when every fixed field is a query constant, so `estimated_rows`
  /// is the store's exact answer; false when runtime-bound variables force
  /// an average-cardinality estimate.
  bool estimate_exact = false;

  /// \name ANALYZE actuals (zero unless the plan was analyzed).
  /// @{
  uint64_t probes = 0;         ///< SelectEach calls issued for this step.
  uint64_t rows_examined = 0;  ///< Live candidates tested against the pattern.
  uint64_t rows_matched = 0;   ///< Pattern matches returned by the store.
  uint64_t rows_out = 0;       ///< Bindings emitted after variable agreement.
  /// Wall time inside this step's own probes (nested steps excluded),
  /// summed in nanoseconds and rounded down to microseconds once.
  uint64_t wall_us = 0;
  /// @}
};

/// \brief A whole plan, in execution (join) order.
struct QueryPlan {
  std::string query_text;       ///< Canonical query rendering.
  std::vector<PlanStep> steps;  ///< Execution order, not source order.
  bool analyzed = false;        ///< True for EXPLAIN ANALYZE plans.
  uint64_t total_us = 0;        ///< End-to-end execution wall time (ANALYZE).
  uint64_t solutions = 0;       ///< Solutions produced (ANALYZE).

  /// Multi-line human-readable rendering.
  std::string ToText() const;
  /// One JSON object (machine-readable; embedded in slow-query events).
  std::string ToJson() const;
};

}  // namespace slim::store

#endif  // SLIM_SLIM_QUERY_PLAN_H_
