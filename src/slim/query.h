#ifndef SLIM_SLIM_QUERY_H_
#define SLIM_SLIM_QUERY_H_

/// \file query.h
/// \brief Declarative queries over the SLIM store (paper §6: "We are also
/// considering augmenting such interfaces with query capabilities, in
/// addition to the current navigational access").
///
/// The language is a conjunctive basic-graph-pattern over triples, in the
/// spirit of the RDF representation the store already uses:
///
///   ?s slim:type <schema:slimpad/Scrap> .
///   ?s scrapName ?name .
///   ?b bundleContent ?s
///
/// Terms: `?var` variables, `<...>` resources, `"..."` literals, and bare
/// tokens (resource/property names without angle brackets). Clauses are
/// separated by '.'.
///
/// Every entry point first builds one static plan (the `QueryPlan` that
/// `Explain` returns): clauses ordered greedily by the store's estimated
/// candidate rows per probe, given the variables earlier clauses bind, so
/// a query starts from its most selective clause — a rare literal, not a
/// bundle with hundreds of children. One index-nested-loop executor then
/// walks that plan's steps in order, binding variables into slots, for
/// `Execute`, `ExplainAnalyze` and the slow-query sampler alike
/// (bench_query and perfbench's consult workload measure it).

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "slim/query_plan.h"
#include "trim/triple_store.h"
#include "util/result.h"

namespace slim::store {

/// \brief One term of a pattern clause.
struct QueryTerm {
  enum class Kind { kVariable, kResource, kLiteral };
  Kind kind = Kind::kResource;
  std::string text;  ///< Variable name (no '?'), resource id, or literal.

  static QueryTerm Var(std::string name) {
    return {Kind::kVariable, std::move(name)};
  }
  static QueryTerm Res(std::string id) {
    return {Kind::kResource, std::move(id)};
  }
  static QueryTerm Lit(std::string value) {
    return {Kind::kLiteral, std::move(value)};
  }
  bool is_variable() const { return kind == Kind::kVariable; }

  friend bool operator==(const QueryTerm&, const QueryTerm&) = default;
};

/// \brief One triple pattern: subject / property / object terms.
struct QueryClause {
  QueryTerm subject;
  QueryTerm property;
  QueryTerm object;
};

/// \brief A value bound to a variable: a resource id or a literal.
using BoundValue = trim::Object;

/// \brief One solution: variable name -> bound value.
using Binding = std::map<std::string, BoundValue>;

/// \brief A conjunctive query.
class Query {
 public:
  Query() = default;
  explicit Query(std::vector<QueryClause> clauses)
      : clauses_(std::move(clauses)) {}

  /// Parses query text (see file comment for the syntax).
  static Result<Query> Parse(std::string_view text);

  /// Programmatic building.
  Query& Where(QueryTerm subject, QueryTerm property, QueryTerm object) {
    clauses_.push_back({std::move(subject), std::move(property),
                        std::move(object)});
    return *this;
  }

  const std::vector<QueryClause>& clauses() const { return clauses_; }

  /// Distinct variable names, in first-appearance order.
  std::vector<std::string> Variables() const;

  /// Canonical text form.
  std::string ToString() const;

 private:
  std::vector<QueryClause> clauses_;
};

/// \brief Evaluates the query; returns all solutions.
///
/// Unknown constants simply produce zero solutions; malformed queries (no
/// clauses, a literal in subject or property position of any clause)
/// produce InvalidArgument before any clause runs.
Result<std::vector<Binding>> Execute(const trim::TripleStore& store,
                                     const Query& query);

/// \brief Convenience: run a text query.
Result<std::vector<Binding>> ExecuteText(const trim::TripleStore& store,
                                         std::string_view query_text);

/// \brief EXPLAIN: the plan the executor runs, without executing it —
/// join order, per-step predicted index path and estimated candidate rows
/// per probe.
///
/// Each step is the remaining clause with the fewest estimated rows given
/// the variables earlier steps bind: the store's exact count when every
/// fixed field is a query constant, otherwise the smallest of the fixed
/// fields' estimates (a constant's exact posting count, a runtime-bound
/// variable's average index fanout). Ties go to a fixed subject, then
/// object, then property, then source order. The executor walks exactly
/// these steps; it never re-orders at run time.
Result<QueryPlan> Explain(const trim::TripleStore& store, const Query& query);

/// \brief EXPLAIN ANALYZE result: the analyzed plan plus the solutions the
/// run produced.
struct AnalyzedQuery {
  QueryPlan plan;
  std::vector<Binding> solutions;
};

/// \brief Executes the query while attributing actual probes, rows
/// examined/matched/emitted and wall time to each plan step. Same plan,
/// same executor and same solutions as `Execute`. The final step's
/// `rows_out` equals `plan.solutions`; a step's `wall_us` is its own probe
/// time (nested steps excluded), so the steps never sum past `total_us`.
Result<AnalyzedQuery> ExplainAnalyze(const trim::TripleStore& store,
                                     const Query& query);

}  // namespace slim::store

#endif  // SLIM_SLIM_QUERY_H_
