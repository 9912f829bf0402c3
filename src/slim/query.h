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

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
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

/// Most clauses a query may have. `Query::Parse` rejects longer text with
/// a `ParseError`, and every entry point rejects a longer built query with
/// `InvalidArgument` before planning: the planner is quadratic in the
/// clause count and the executor recurses once per clause.
inline constexpr size_t kMaxQueryClauses = 1000;

/// \brief One solution: variable name -> bound value.
///
/// A flat vector of (name, value) pairs, sorted by name with unique names,
/// so a solution is one heap block rather than one tree node per variable
/// (names and short values fit in their strings' inline buffers).
/// Iteration is in variable-name order. The class keeps the part of
/// `std::map`'s interface that callers use: iteration, `size`, `empty`,
/// `count`, `find`, `at` (throws `std::out_of_range`), `operator[]`
/// (default-inserts), `emplace` (never overwrites) and `==`.
class Binding {
 public:
  using value_type = std::pair<std::string, BoundValue>;
  using iterator = std::vector<value_type>::iterator;
  using const_iterator = std::vector<value_type>::const_iterator;

  iterator begin() { return entries_.begin(); }
  iterator end() { return entries_.end(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void reserve(size_t n) { entries_.reserve(n); }

  iterator find(std::string_view name) {
    iterator it = LowerBound(name);
    return it != end() && it->first == name ? it : end();
  }
  const_iterator find(std::string_view name) const {
    return const_cast<Binding*>(this)->find(name);
  }
  size_t count(std::string_view name) const { return find(name) != end(); }

  BoundValue& at(std::string_view name) {
    iterator it = find(name);
    if (it == end()) {
      throw std::out_of_range("Binding::at: no variable ?" +
                              std::string(name));
    }
    return it->second;
  }
  const BoundValue& at(std::string_view name) const {
    return const_cast<Binding*>(this)->at(name);
  }

  /// Inserts `name` -> `value` in name order unless `name` is bound; the
  /// iterator points at `name`'s entry either way. Appending in name
  /// order costs one comparison.
  std::pair<iterator, bool> emplace(std::string name, BoundValue value) {
    iterator it = entries_.empty() || entries_.back().first < name
                      ? end()
                      : LowerBound(name);
    if (it != end() && it->first == name) return {it, false};
    return {entries_.emplace(it, std::move(name), std::move(value)), true};
  }
  BoundValue& operator[](std::string_view name) {
    return emplace(std::string(name), BoundValue{}).first->second;
  }

  friend bool operator==(const Binding&, const Binding&) = default;

 private:
  iterator LowerBound(std::string_view name) {
    return std::lower_bound(
        entries_.begin(), entries_.end(), name,
        [](const value_type& entry, std::string_view n) {
          return entry.first < n;
        });
  }

  std::vector<value_type> entries_;
};

/// \brief A conjunctive query.
class Query {
 public:
  Query() = default;
  explicit Query(std::vector<QueryClause> clauses)
      : clauses_(std::move(clauses)) {}

  /// Parses query text (see file comment for the syntax). Text with more
  /// than kMaxQueryClauses clauses is a ParseError.
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
/// clauses, more than kMaxQueryClauses, a literal in subject or property
/// position of any clause) produce InvalidArgument before any clause runs.
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
