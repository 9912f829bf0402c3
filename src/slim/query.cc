#include "slim/query.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <chrono>
#include <set>

#include "obs/obs.h"
#include "slim/slow_query.h"

namespace slim::store {

namespace {

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

struct Cursor {
  std::string_view src;
  size_t i = 0;

  void SkipSpace() {
    while (i < src.size() && std::isspace(static_cast<unsigned char>(src[i]))) {
      ++i;
    }
  }
  bool Done() {
    SkipSpace();
    return i >= src.size();
  }
};

Result<QueryTerm> ParseTerm(Cursor* c) {
  c->SkipSpace();
  if (c->i >= c->src.size()) {
    return Status::ParseError("query: expected a term, found end of input");
  }
  char ch = c->src[c->i];
  if (ch == '?') {
    size_t start = ++c->i;
    while (c->i < c->src.size() &&
           (std::isalnum(static_cast<unsigned char>(c->src[c->i])) ||
            c->src[c->i] == '_')) {
      ++c->i;
    }
    if (c->i == start) return Status::ParseError("query: empty variable name");
    return QueryTerm::Var(std::string(c->src.substr(start, c->i - start)));
  }
  if (ch == '<') {
    size_t end = c->src.find('>', c->i);
    if (end == std::string_view::npos) {
      return Status::ParseError("query: unterminated '<resource>'");
    }
    QueryTerm t = QueryTerm::Res(
        std::string(c->src.substr(c->i + 1, end - c->i - 1)));
    c->i = end + 1;
    if (t.text.empty()) return Status::ParseError("query: empty resource");
    return t;
  }
  if (ch == '"') {
    std::string value;
    ++c->i;
    while (c->i < c->src.size()) {
      char cc = c->src[c->i++];
      if (cc == '\\' && c->i < c->src.size()) {
        value.push_back(c->src[c->i++]);
      } else if (cc == '"') {
        return QueryTerm::Lit(std::move(value));
      } else {
        value.push_back(cc);
      }
    }
    return Status::ParseError("query: unterminated string literal");
  }
  // Bare token up to whitespace or '.'-separator (a dot followed by
  // whitespace/end; dots inside tokens like "schema:x/y.z" stay).
  size_t start = c->i;
  while (c->i < c->src.size() &&
         !std::isspace(static_cast<unsigned char>(c->src[c->i]))) {
    ++c->i;
  }
  std::string_view token = c->src.substr(start, c->i - start);
  // A trailing bare '.' is the clause separator.
  if (token.size() > 1 && token.back() == '.') {
    token.remove_suffix(1);
    --c->i;
  }
  if (token.empty() || token == ".") {
    return Status::ParseError("query: expected a term before '.'");
  }
  return QueryTerm::Res(std::string(token));
}

std::string TermToString(const QueryTerm& t) {
  switch (t.kind) {
    case QueryTerm::Kind::kVariable: return "?" + t.text;
    case QueryTerm::Kind::kResource: return "<" + t.text + ">";
    case QueryTerm::Kind::kLiteral: {
      std::string out = "\"";
      for (char c : t.text) {
        if (c == '"' || c == '\\') out.push_back('\\');
        out.push_back(c);
      }
      out += '"';
      return out;
    }
  }
  return "?";
}

std::string ClauseText(const QueryClause& clause) {
  return TermToString(clause.subject) + " " + TermToString(clause.property) +
         " " + TermToString(clause.object);
}

// A clause's terms by field, in the order the executor binds them.
constexpr size_t kSubject = 0, kProperty = 1, kObject = 2;
std::array<const QueryTerm*, 3> Terms(const QueryClause& clause) {
  return {&clause.subject, &clause.property, &clause.object};
}

Status ValidateClause(const QueryClause& clause) {
  if (clause.subject.kind == QueryTerm::Kind::kLiteral) {
    return Status::InvalidArgument("query: literal in subject position: " +
                                   TermToString(clause.subject));
  }
  if (clause.property.kind == QueryTerm::Kind::kLiteral) {
    return Status::InvalidArgument("query: literal in property position: " +
                                   TermToString(clause.property));
  }
  return Status::OK();
}

// The clause's query constants as a selection; variables stay free.
trim::TriplePattern ConstantPattern(const QueryClause& clause) {
  trim::TriplePattern pattern;
  if (!clause.subject.is_variable()) pattern.subject = clause.subject.text;
  if (!clause.property.is_variable()) pattern.property = clause.property.text;
  if (clause.object.kind == QueryTerm::Kind::kResource) {
    pattern.object = trim::Object::Resource(clause.object.text);
  } else if (clause.object.kind == QueryTerm::Kind::kLiteral) {
    pattern.object = trim::Object::Literal(clause.object.text);
  }
  return pattern;
}

// ---------------------------------------------------------------------------
// Planning
// ---------------------------------------------------------------------------

// Average posting-list length for an index with `keys` distinct keys over
// `live` triples, rounded up. Zero keys means the index is empty: any probe
// through it yields nothing.
uint64_t AverageFanout(size_t live, size_t keys) {
  if (keys == 0) return 0;
  return (static_cast<uint64_t>(live) + keys - 1) / keys;
}

// The one planner. Orders clauses greedily: each step takes the remaining
// clause with the fewest estimated candidate rows per probe, given the
// variables earlier steps bind. A clause whose fixed fields are all query
// constants is estimated by the store's exact PlanAccess count; one with a
// runtime-bound variable by the smallest of its fixed fields' estimates —
// a constant's exact posting count, a bound variable's index average
// fanout. Ties go to a fixed subject, then object, then property, then
// none, then source order. Every clause is validated before any runs.
Result<QueryPlan> BuildPlan(const trim::TripleStore& store,
                            const Query& query) {
  using IndexPath = trim::TripleStore::IndexPath;
  const std::vector<QueryClause>& clauses = query.clauses();
  if (clauses.size() > kMaxQueryClauses) {
    return Status::InvalidArgument(
        "query: " + std::to_string(clauses.size()) + " clauses, more than " +
        std::to_string(kMaxQueryClauses));
  }
  std::vector<trim::TripleStore::AccessPlan> constant_access;
  for (const QueryClause& clause : clauses) {
    Status valid = ValidateClause(clause);
    if (!valid.ok()) return valid;
    constant_access.push_back(store.PlanAccess(ConstantPattern(clause)));
  }
  // Exact posting count of one constant field alone, read on first use.
  std::vector<std::array<std::optional<uint64_t>, 3>> field_rows(
      clauses.size());
  auto exact_rows = [&](size_t clause, size_t field) {
    std::optional<uint64_t>& rows = field_rows[clause][field];
    if (!rows) {
      trim::TriplePattern alone;
      trim::TriplePattern all = ConstantPattern(clauses[clause]);
      if (field == kSubject) alone.subject = std::move(all.subject);
      if (field == kProperty) alone.property = std::move(all.property);
      if (field == kObject) alone.object = std::move(all.object);
      rows = store.PlanAccess(alone).candidates;
    }
    return *rows;
  };
  const std::array<uint64_t, 3> fanout = {
      AverageFanout(store.size(), store.DistinctSubjects()),
      AverageFanout(store.size(), store.DistinctProperties()),
      AverageFanout(store.size(), store.DistinctObjects())};
  const std::array<IndexPath, 3> path_of = {
      IndexPath::kSubject, IndexPath::kProperty, IndexPath::kObject};

  std::set<std::string> bound_vars;
  // One probe of clause `i` under `bound_vars`; `rank` gets the tie-break.
  auto estimate = [&](size_t i, int* rank) {
    std::array<const QueryTerm*, 3> terms = Terms(clauses[i]);
    std::array<bool, 3> fixed{};
    bool runtime_bound = false;
    for (size_t f = 0; f < 3; ++f) {
      bool var = terms[f]->is_variable();
      fixed[f] = !var || bound_vars.count(terms[f]->text) > 0;
      runtime_bound |= var && fixed[f];
    }
    PlanStep ps;
    ps.clause_index = i;
    for (size_t f = 0; f < 3; ++f) {
      if (fixed[f]) ps.bound_fields += "spo"[f];
    }
    *rank = fixed[kSubject] ? 0 : fixed[kObject] ? 1 : fixed[kProperty] ? 2 : 3;
    if (!runtime_bound) {
      ps.predicted_path = constant_access[i].path;
      ps.estimated_rows = constant_access[i].candidates;
      ps.estimate_exact = true;
      return ps;
    }
    // The store takes the strictly smallest list in subject, object,
    // property order, and may still divert at run time: not exact.
    bool have = false;
    for (size_t f : {kSubject, kObject, kProperty}) {
      if (!fixed[f]) continue;
      uint64_t rows = terms[f]->is_variable() ? fanout[f] : exact_rows(i, f);
      if (!have || rows < ps.estimated_rows) {
        ps.estimated_rows = rows;
        ps.predicted_path = path_of[f];
        have = true;
      }
    }
    return ps;
  };

  QueryPlan plan;
  std::vector<bool> used(clauses.size(), false);
  for (size_t step = 0; step < clauses.size(); ++step) {
    PlanStep best;
    int best_rank = 0;
    bool have = false;
    for (size_t i = 0; i < clauses.size(); ++i) {
      if (used[i]) continue;
      int rank = 0;
      PlanStep ps = estimate(i, &rank);
      if (!have || ps.estimated_rows < best.estimated_rows ||
          (ps.estimated_rows == best.estimated_rows && rank < best_rank)) {
        best = std::move(ps);
        best_rank = rank;
        have = true;
      }
    }
    const QueryClause& clause = clauses[best.clause_index];
    used[best.clause_index] = true;
    for (const QueryTerm* t : Terms(clause)) {
      if (t->is_variable()) bound_vars.insert(t->text);
    }
    plan.steps.push_back(std::move(best));
  }
  return plan;
}

// The plan's query and clause text, for EXPLAIN output only: Execute
// never renders it.
void RenderText(const Query& query, QueryPlan* plan) {
  plan->query_text = query.ToString();
  for (PlanStep& step : plan->steps) {
    step.clause_text = ClauseText(query.clauses()[step.clause_index]);
  }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

// What an analyzed run attributes to one plan step.
struct StepActuals {
  uint64_t probes = 0;
  uint64_t rows_examined = 0;
  uint64_t rows_matched = 0;
  uint64_t rows_out = 0;
  int64_t wall_ns = 0;  // the step's own probes; nested steps excluded
};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

using KeyId = trim::TripleStore::KeyId;

// A variable's current value: the text it prints as and the key id the
// store gave that text in the execution's KeyView. `text` views a string
// inside a store record, which stays valid only while the view (and the
// execution's TripleStore::Snapshot) is held: a record visible at the
// pinned epoch has its payload cleared only after every pin passes its
// death epoch, and compaction frees old records only after the same wait.
struct Slot {
  trim::ObjectKind kind = trim::ObjectKind::kResource;
  std::string_view text;
  KeyId key = trim::TripleStore::kNoKey;
};

// How one field of one step is handled.
enum class Use {
  kConstant,  // a query constant, fixed in the step's pattern
  kProbe,     // bound by an earlier step: its key is probed per row
  kBind,      // first occurrence: binds the slot from the matched row
  kAgree,     // repeated within the clause: the row must match the slot
};

struct ExecStep {
  trim::TriplePattern constants;   // the clause's query constants
  trim::TripleStore::KeyPattern keys;  // constants resolved for one run
  std::array<Use, 3> use{};
  std::array<size_t, 3> slot{};
};

// The one executor: an index-nested-loop join over `plan.steps`, with
// bindings in a dense slot vector (one slot per variable, in variable-name
// order) copied into one flat Binding per solution. It probes and matches
// by key id through one KeyView, so a value read from one row reaches the
// next step's postings without hashing its text.
class Executor {
 public:
  Executor(const trim::TripleStore& store, const Query& query,
           const QueryPlan& plan)
      : store_(store), names_(query.Variables()), slots_(names_.size()) {
    // Slots in name order, so Emit appends each solution's entries in the
    // order a Binding keeps them.
    std::sort(names_.begin(), names_.end());
    std::vector<size_t> bound_at(names_.size(), 0);  // step + 1; 0 = free
    for (size_t step = 0; step < plan.steps.size(); ++step) {
      const QueryClause& clause =
          query.clauses()[plan.steps[step].clause_index];
      ExecStep es;
      es.constants = ConstantPattern(clause);
      std::array<const QueryTerm*, 3> terms = Terms(clause);
      for (size_t f = 0; f < 3; ++f) {
        if (!terms[f]->is_variable()) continue;
        size_t slot = static_cast<size_t>(
            std::find(names_.begin(), names_.end(), terms[f]->text) -
            names_.begin());
        es.slot[f] = slot;
        if (bound_at[slot] == 0) {
          es.use[f] = Use::kBind;
          bound_at[slot] = step + 1;
        } else {
          es.use[f] = bound_at[slot] == step + 1 ? Use::kAgree : Use::kProbe;
        }
      }
      steps_.push_back(std::move(es));
    }
  }

  // Appends every solution to `out`; with `actuals`, attributes each
  // step's probes, rows and wall time. The caller's `pin` must outlive the
  // run (see Slot); the run's KeyView nests under it and captures the
  // store's log once, and every constant is resolved against it once.
  void Run(const trim::TripleStore::Snapshot& /*pin*/,
           std::vector<Binding>* out, std::vector<StepActuals>* actuals) {
    trim::TripleStore::KeyView view(store_);
    for (ExecStep& step : steps_) step.keys = view.Resolve(step.constants);
    view_ = &view;
    out_ = out;
    actuals_ = actuals;
    Walk(0);
    view_ = nullptr;
  }

 private:
  // One probe of step `depth` under the current slots, recursing into the
  // next step for every row that binds.
  void Walk(size_t depth) {
    if (depth == steps_.size()) {
      Emit();
      return;
    }
    const ExecStep& step = steps_[depth];
    trim::TripleStore::KeyPattern pattern = step.keys;
    if (step.use[kSubject] == Use::kProbe) {
      pattern.subject = slots_[step.slot[kSubject]].key;
    }
    if (step.use[kProperty] == Use::kProbe) {
      pattern.property = slots_[step.slot[kProperty]].key;
    }
    if (step.use[kObject] == Use::kProbe) {
      const Slot& value = slots_[step.slot[kObject]];
      pattern.object = value.key;
      pattern.object_kind = value.kind;
    }
    StepActuals* actuals =
        actuals_ != nullptr ? &(*actuals_)[depth] : nullptr;
    int64_t nested_ns = 0;
    trim::TripleStore::SelectStats stats;
    int64_t start = actuals != nullptr ? NowNs() : 0;
    view_->SelectEach(
        pattern,
        [&](const trim::TripleStore::Row& row) {
          if (!Bind(step, row)) return true;
          if (actuals == nullptr) {
            Walk(depth + 1);
            return true;
          }
          ++actuals->rows_out;
          int64_t nested_start = NowNs();
          Walk(depth + 1);
          nested_ns += NowNs() - nested_start;
          return true;
        },
        actuals != nullptr ? &stats : nullptr);
    if (actuals != nullptr) {
      actuals->wall_ns += NowNs() - start - nested_ns;
      ++actuals->probes;
      actuals->rows_examined += stats.examined;
      actuals->rows_matched += stats.matched;
    }
  }

  // Binds the step's free variables from `row`. Subject and property
  // values are resources; a variable repeated within the clause must agree
  // with itself, kind and key id.
  bool Bind(const ExecStep& step, const trim::TripleStore::Row& row) {
    const trim::Triple& t = row.triple;
    const std::array<Slot, 3> values = {
        Slot{trim::ObjectKind::kResource, t.subject, row.subject},
        Slot{trim::ObjectKind::kResource, t.property, row.property},
        Slot{t.object.kind, t.object.text, row.object}};
    for (size_t f = 0; f < 3; ++f) {
      if (step.use[f] == Use::kBind) {
        slots_[step.slot[f]] = values[f];
      } else if (step.use[f] == Use::kAgree &&
                 (slots_[step.slot[f]].kind != values[f].kind ||
                  slots_[step.slot[f]].key != values[f].key)) {
        return false;
      }
    }
    return true;
  }

  void Emit() {
    Binding& binding = out_->emplace_back();
    binding.reserve(slots_.size());
    for (size_t slot = 0; slot < slots_.size(); ++slot) {
      binding.emplace(names_[slot], BoundValue{slots_[slot].kind,
                                               std::string(slots_[slot].text)});
    }
  }

  const trim::TripleStore& store_;
  std::vector<std::string> names_;  // slot -> variable name, sorted
  std::vector<Slot> slots_;
  std::vector<ExecStep> steps_;
  const trim::TripleStore::KeyView* view_ = nullptr;
  std::vector<Binding>* out_ = nullptr;
  std::vector<StepActuals>* actuals_ = nullptr;
};

}  // namespace

Result<Query> Query::Parse(std::string_view text) {
  Result<Query> out = [&]() -> Result<Query> {
    std::vector<QueryClause> clauses;
    Cursor cursor{text};
    while (!cursor.Done()) {
      if (clauses.size() == kMaxQueryClauses) {
        return Status::ParseError("query: more than " +
                                  std::to_string(kMaxQueryClauses) +
                                  " clauses");
      }
      QueryClause clause;
      SLIM_ASSIGN_OR_RETURN(clause.subject, ParseTerm(&cursor));
      SLIM_ASSIGN_OR_RETURN(clause.property, ParseTerm(&cursor));
      SLIM_ASSIGN_OR_RETURN(clause.object, ParseTerm(&cursor));
      clauses.push_back(std::move(clause));
      cursor.SkipSpace();
      if (cursor.i < cursor.src.size()) {
        if (cursor.src[cursor.i] != '.') {
          return Status::ParseError("query: expected '.' between clauses at "
                                    "position " +
                                    std::to_string(cursor.i));
        }
        ++cursor.i;
      }
    }
    if (clauses.empty()) {
      return Status::InvalidArgument("query has no clauses");
    }
    return Query(std::move(clauses));
  }();
  if (out.ok()) {
    SLIM_OBS_COUNT("slim.query.parse.ok");
  } else {
    SLIM_OBS_COUNT("slim.query.parse.error");
    SLIM_OBS_LOG(kWarn, "slim", "query parse failed",
                 {{"status", out.status().ToString()}});
  }
  return out;
}

std::vector<std::string> Query::Variables() const {
  std::vector<std::string> out;
  auto add = [&](const QueryTerm& t) {
    if (t.is_variable() &&
        std::find(out.begin(), out.end(), t.text) == out.end()) {
      out.push_back(t.text);
    }
  };
  for (const QueryClause& c : clauses_) {
    add(c.subject);
    add(c.property);
    add(c.object);
  }
  return out;
}

std::string Query::ToString() const {
  std::string out;
  for (size_t i = 0; i < clauses_.size(); ++i) {
    if (i) out += " . ";
    out += ClauseText(clauses_[i]);
  }
  return out;
}

Result<std::vector<Binding>> Execute(const trim::TripleStore& store,
                                     const Query& query) {
  SLIM_OBS_COUNT("slim.query.execute.calls");
  SLIM_OBS_HEARTBEAT("slim.query");
  SLIM_OBS_TIMER(timer, "slim.query.latency_us");
  SLIM_OBS_SPAN(span, "slim.query.execute");
  span.AddTag("clauses", std::to_string(query.clauses().size()));
  if (query.clauses().empty()) {
    SLIM_OBS_COUNT("slim.query.execute.error");
    return Status::InvalidArgument("query has no clauses");
  }
  // Pin one store snapshot for the whole execution: planning and every
  // SelectEach the join issues evaluate at this epoch, so a concurrent
  // writer can commit mid-query without ever tearing the result set.
  trim::TripleStore::Snapshot snapshot(store);
  // When the slow-query sampler is armed, run analyzed so a query that
  // crosses the threshold leaves its full plan behind.
  if (DefaultSlowQueryLog().enabled()) {
    Result<AnalyzedQuery> analyzed = ExplainAnalyze(store, query);
    if (!analyzed.ok()) {
      SLIM_OBS_COUNT("slim.query.execute.error");
      return analyzed.status();
    }
    DefaultSlowQueryLog().MaybeRecord(analyzed->plan);
    SLIM_OBS_HISTOGRAM("slim.query.solutions", analyzed->solutions.size());
    span.AddTag("solutions", std::to_string(analyzed->solutions.size()));
    return std::move(analyzed->solutions);
  }
  Result<QueryPlan> plan = BuildPlan(store, query);
  if (!plan.ok()) {
    SLIM_OBS_COUNT("slim.query.execute.error");
    return plan.status();
  }
  std::vector<Binding> out;
  Executor(store, query, *plan).Run(snapshot, &out, nullptr);
  SLIM_OBS_HISTOGRAM("slim.query.solutions", out.size());
  span.AddTag("solutions", std::to_string(out.size()));
  return out;
}

Result<std::vector<Binding>> ExecuteText(const trim::TripleStore& store,
                                         std::string_view query_text) {
  SLIM_ASSIGN_OR_RETURN(Query query, Query::Parse(query_text));
  return Execute(store, query);
}

Result<QueryPlan> Explain(const trim::TripleStore& store, const Query& query) {
  SLIM_OBS_COUNT("slim.query.explain.calls");
  SLIM_OBS_SPAN(span, "slim.query.explain");
  if (query.clauses().empty()) {
    return Status::InvalidArgument("query has no clauses");
  }
  // One snapshot across all PlanAccess probes keeps the estimates mutually
  // consistent under concurrent writes.
  trim::TripleStore::Snapshot snapshot(store);
  SLIM_ASSIGN_OR_RETURN(QueryPlan plan, BuildPlan(store, query));
  RenderText(query, &plan);
  return plan;
}

Result<AnalyzedQuery> ExplainAnalyze(const trim::TripleStore& store,
                                     const Query& query) {
  SLIM_OBS_COUNT("slim.query.analyze.calls");
  SLIM_OBS_SPAN(span, "slim.query.analyze");
  if (query.clauses().empty()) {
    return Status::InvalidArgument("query has no clauses");
  }
  // Plan estimates and the instrumented execution below read one pinned
  // epoch, so ANALYZE's predicted-vs-actual comparison is apples-to-apples
  // even while writers commit.
  trim::TripleStore::Snapshot snapshot(store);
  SLIM_ASSIGN_OR_RETURN(QueryPlan plan, BuildPlan(store, query));
  Executor executor(store, query, plan);
  std::vector<StepActuals> actuals(plan.steps.size());
  std::vector<Binding> out;
  int64_t run_start = NowNs();
  executor.Run(snapshot, &out, &actuals);
  int64_t run_ns = NowNs() - run_start;
  // Nanoseconds convert to microseconds once, so sub-microsecond probes
  // still add up and the steps never sum past the total.
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    PlanStep& step = plan.steps[i];
    step.probes = actuals[i].probes;
    step.rows_examined = actuals[i].rows_examined;
    step.rows_matched = actuals[i].rows_matched;
    step.rows_out = actuals[i].rows_out;
    step.wall_us = static_cast<uint64_t>(actuals[i].wall_ns / 1000);
  }
  RenderText(query, &plan);
  plan.analyzed = true;
  plan.total_us = static_cast<uint64_t>(run_ns / 1000);
  plan.solutions = out.size();
  span.AddTag("solutions", std::to_string(out.size()));
  return AnalyzedQuery{std::move(plan), std::move(out)};
}

}  // namespace slim::store
