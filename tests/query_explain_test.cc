// Tests for query EXPLAIN / EXPLAIN ANALYZE (slim/query_plan.h) and the
// slow-query sampler (slim/slow_query.h).
//
// The index-path property tests run against a store of fully distinct
// triples, so every posting list has size one: CandidateList's
// strictly-smaller rule then never overrides its consideration order and
// the predicted path must follow the documented preference exactly —
// bound subject > bound object > bound property > scan.
//
// The sampler's ring and counters are plain atomics/mutexes, so those
// tests pass under both SLIM_ENABLE_OBS settings; only the flight-recorder
// bundle test (which rides on SLIM_OBS_LOG / SLIM_OBS_DUMP_ON_ERROR) is
// compiled under OBS=ON.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/obs.h"
#include "slim/query.h"
#include "slim/slow_query.h"
#include "trim/triple_store.h"

namespace slim::store {
namespace {

using trim::TripleStore;
using IndexPath = trim::TripleStore::IndexPath;

// ---------------------------------------------------------------------------
// Index-path preference: all 8 binding shapes of a single clause.
// ---------------------------------------------------------------------------

class ExplainPathPreferenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Fully distinct fields: every posting list has exactly one entry.
    ASSERT_TRUE(store_.AddLiteral("s0", "p0", "o0").ok());
    ASSERT_TRUE(store_.AddLiteral("s1", "p1", "o1").ok());
    ASSERT_TRUE(store_.AddLiteral("s2", "p2", "o2").ok());
  }

  // One clause with each field either the matching constant or a variable.
  static Query Shape(bool s_const, bool p_const, bool o_const) {
    Query q;
    q.Where(s_const ? QueryTerm::Res("s1") : QueryTerm::Var("s"),
            p_const ? QueryTerm::Res("p1") : QueryTerm::Var("p"),
            o_const ? QueryTerm::Lit("o1") : QueryTerm::Var("o"));
    return q;
  }

  TripleStore store_;
};

TEST_F(ExplainPathPreferenceTest, AllBindingShapesFollowPreferenceOrder) {
  struct Case {
    bool s, p, o;
    IndexPath path;
    const char* bound;
    uint64_t rows;
  };
  const Case kCases[] = {
      // With unit posting lists, subject wins every tie it is part of,
      // object beats property, and no constant at all means a scan.
      {true, false, false, IndexPath::kSubject, "s", 1},
      {false, true, false, IndexPath::kProperty, "p", 1},
      {false, false, true, IndexPath::kObject, "o", 1},
      {true, true, false, IndexPath::kSubject, "sp", 1},
      {true, false, true, IndexPath::kSubject, "so", 1},
      {false, true, true, IndexPath::kObject, "po", 1},
      {true, true, true, IndexPath::kSubject, "spo", 1},
      {false, false, false, IndexPath::kScan, "", 3},
  };
  for (const Case& c : kCases) {
    Query q = Shape(c.s, c.p, c.o);
    auto plan = Explain(store_, q);
    ASSERT_TRUE(plan.ok()) << plan.status();
    ASSERT_EQ(plan->steps.size(), 1u) << q.ToString();
    const PlanStep& step = plan->steps[0];
    EXPECT_EQ(step.predicted_path, c.path) << q.ToString();
    EXPECT_EQ(step.bound_fields, c.bound) << q.ToString();
    EXPECT_EQ(step.estimated_rows, c.rows) << q.ToString();
    // All fixed fields are query constants, so every estimate is exact.
    EXPECT_TRUE(step.estimate_exact) << q.ToString();
    EXPECT_FALSE(plan->analyzed);
  }
}

TEST_F(ExplainPathPreferenceTest, MissingConstantPlansAsEmpty) {
  Query q;
  q.Where(QueryTerm::Res("no-such-subject"), QueryTerm::Var("p"),
          QueryTerm::Var("o"));
  auto plan = Explain(store_, q);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->steps.size(), 1u);
  EXPECT_EQ(plan->steps[0].predicted_path, IndexPath::kEmpty);
  EXPECT_EQ(plan->steps[0].estimated_rows, 0u);
  EXPECT_TRUE(plan->steps[0].estimate_exact);
}

TEST_F(ExplainPathPreferenceTest, RejectsEmptyAndMalformedQueries) {
  EXPECT_FALSE(Explain(store_, Query{}).ok());
  EXPECT_FALSE(ExplainAnalyze(store_, Query{}).ok());
  Query literal_subject;
  literal_subject.Where(QueryTerm::Lit("bad"), QueryTerm::Var("p"),
                        QueryTerm::Var("o"));
  EXPECT_FALSE(Explain(store_, literal_subject).ok());
}

// ---------------------------------------------------------------------------
// Multi-clause plans: join order, runtime-bound estimates, ANALYZE actuals.
// ---------------------------------------------------------------------------

class ExplainJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Two bundles over three scraps: 6 live triples, 5 distinct subjects.
    ASSERT_TRUE(store_.AddLiteral("s1", "scrapName", "dopamine").ok());
    ASSERT_TRUE(store_.AddLiteral("s2", "scrapName", "Na 140").ok());
    ASSERT_TRUE(store_.AddLiteral("s3", "scrapName", "K 4.2").ok());
    ASSERT_TRUE(store_.AddResource("b1", "bundleContent", "s1").ok());
    ASSERT_TRUE(store_.AddResource("b2", "bundleContent", "s2").ok());
    ASSERT_TRUE(store_.AddResource("b2", "bundleContent", "s3").ok());
  }

  TripleStore store_;
};

TEST_F(ExplainJoinTest, RuntimeBoundSubjectPredictsSubjectPath) {
  auto q = Query::Parse("?b bundleContent ?s . ?s scrapName ?n");
  ASSERT_TRUE(q.ok());
  auto plan = Explain(store_, *q);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->steps.size(), 2u);

  // Step 1: both clauses cost the same (property-only), so source order
  // decides: the bundleContent clause runs first through its exact posting
  // count.
  EXPECT_EQ(plan->steps[0].clause_index, 0u);
  EXPECT_EQ(plan->steps[0].bound_fields, "p");
  EXPECT_EQ(plan->steps[0].predicted_path, IndexPath::kProperty);
  EXPECT_EQ(plan->steps[0].estimated_rows, 3u);
  EXPECT_TRUE(plan->steps[0].estimate_exact);

  // Step 2: ?s is runtime-bound — subject preference, average fanout
  // (ceil(6 live / 5 distinct subjects) = 2), not exact.
  EXPECT_EQ(plan->steps[1].clause_index, 1u);
  EXPECT_EQ(plan->steps[1].bound_fields, "sp");
  EXPECT_EQ(plan->steps[1].predicted_path, IndexPath::kSubject);
  EXPECT_EQ(plan->steps[1].estimated_rows, 2u);
  EXPECT_FALSE(plan->steps[1].estimate_exact);
}

TEST_F(ExplainJoinTest, RuntimeBoundObjectPredictsObjectPath) {
  // The second clause sees ?s bound in *object* position: with no subject
  // key available the predicted path must fall to the object index.
  auto q = Query::Parse("?s scrapName ?n . ?b bundleContent ?s");
  ASSERT_TRUE(q.ok());
  auto plan = Explain(store_, *q);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->steps.size(), 2u);
  EXPECT_EQ(plan->steps[1].clause_index, 1u);
  EXPECT_EQ(plan->steps[1].bound_fields, "po");
  EXPECT_EQ(plan->steps[1].predicted_path, IndexPath::kObject);
  EXPECT_FALSE(plan->steps[1].estimate_exact);
}

TEST_F(ExplainJoinTest, AnalyzeActualsMatchExecution) {
  auto q = Query::Parse("?b bundleContent ?s . ?s scrapName ?n");
  ASSERT_TRUE(q.ok());
  auto analyzed = ExplainAnalyze(store_, *q);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  const QueryPlan& plan = analyzed->plan;

  EXPECT_TRUE(plan.analyzed);
  EXPECT_EQ(plan.solutions, 3u);
  EXPECT_EQ(analyzed->solutions.size(), 3u);

  // Step 1 probes the bundleContent posting list once and emits all three
  // content edges; step 2 probes once per emitted binding.
  ASSERT_EQ(plan.steps.size(), 2u);
  EXPECT_EQ(plan.steps[0].probes, 1u);
  EXPECT_EQ(plan.steps[0].rows_matched, 3u);
  EXPECT_EQ(plan.steps[0].rows_out, 3u);
  EXPECT_EQ(plan.steps[1].probes, 3u);
  EXPECT_EQ(plan.steps[1].rows_matched, 3u);
  // The final step's emitted bindings are exactly the query's solutions.
  EXPECT_EQ(plan.steps.back().rows_out, plan.solutions);

  // ANALYZE must agree with the plain executor.
  auto rows = Execute(store_, *q);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), analyzed->solutions.size());
  EXPECT_EQ(*rows, analyzed->solutions);
}

TEST_F(ExplainJoinTest, RenderedTextAndJsonCarryThePlan) {
  auto q = Query::Parse("?b bundleContent ?s . ?s scrapName ?n");
  ASSERT_TRUE(q.ok());
  auto analyzed = ExplainAnalyze(store_, *q);
  ASSERT_TRUE(analyzed.ok());

  std::string text = analyzed->plan.ToText();
  EXPECT_NE(text.find("QUERY PLAN (analyzed) for:"), std::string::npos);
  EXPECT_NE(text.find("path=property"), std::string::npos);
  EXPECT_NE(text.find("est_rows=3 (exact)"), std::string::npos);
  EXPECT_NE(text.find("(avg)"), std::string::npos);
  EXPECT_NE(text.find("solutions: 3"), std::string::npos);

  std::string json = analyzed->plan.ToJson();
  EXPECT_NE(json.find("\"analyzed\":true"), std::string::npos);
  EXPECT_NE(json.find("\"path\":\"property\""), std::string::npos);
  EXPECT_NE(json.find("\"path\":\"subject\""), std::string::npos);
  EXPECT_NE(json.find("\"rows_out\":3"), std::string::npos);
  EXPECT_NE(json.find("\"solutions\":3"), std::string::npos);

  // EXPLAIN without ANALYZE renders no actuals.
  auto plain = Explain(store_, *q);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->ToText().find("actual:"), std::string::npos);
  EXPECT_EQ(plain->ToJson().find("\"probes\""), std::string::npos);
}

// A consult-shaped path: root -> patient -> Electrolyte -> a scrap named by
// a rare literal -> handle -> mark id. The literal clause matches one
// triple while root nests four patients, so the plan must start there and
// then follow the one binding outward, instead of walking every
// Electrolyte scrap from the root.
TEST_F(ExplainJoinTest, RareLiteralAnchorsTheJoin) {
  for (int p = 0; p < 4; ++p) {
    std::string patient = "patient" + std::to_string(p);
    std::string lytes = "lytes" + std::to_string(p);
    ASSERT_TRUE(store_.AddResource("root", "nestedBundle", patient).ok());
    ASSERT_TRUE(store_.AddResource(patient, "nestedBundle", lytes).ok());
    ASSERT_TRUE(store_.AddLiteral(lytes, "bundleName", "Electrolyte").ok());
    for (int s = 0; s < 4; ++s) {
      std::string scrap = lytes + "_scrap" + std::to_string(s);
      std::string handle = scrap + "_handle";
      std::string name =
          p == 2 && s == 1 ? "Mg 1.9" : "K 4." + std::to_string(s);
      ASSERT_TRUE(store_.AddResource(lytes, "bundleContent", scrap).ok());
      ASSERT_TRUE(store_.AddLiteral(scrap, "scrapName", name).ok());
      ASSERT_TRUE(store_.AddResource(scrap, "scrapMark", handle).ok());
      ASSERT_TRUE(store_.AddLiteral(handle, "markId", "mark-" + scrap).ok());
    }
  }
  auto q = Query::Parse(
      "<root> nestedBundle ?p . ?p nestedBundle ?e . ?e bundleContent ?s . "
      "?s scrapName \"Mg 1.9\" . ?s scrapMark ?h . ?h markId ?m");
  ASSERT_TRUE(q.ok());
  auto analyzed = ExplainAnalyze(store_, *q);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  const QueryPlan& plan = analyzed->plan;
  ASSERT_EQ(plan.steps.size(), 6u);
  EXPECT_EQ(plan.steps[0].clause_index, 3u) << plan.ToText();
  EXPECT_EQ(plan.steps[0].estimated_rows, 1u);
  EXPECT_TRUE(plan.steps[0].estimate_exact);

  ASSERT_EQ(analyzed->solutions.size(), 1u);
  const Binding& row = analyzed->solutions[0];
  EXPECT_EQ(row.at("p").text, "patient2");
  EXPECT_EQ(row.at("e").text, "lytes2");
  EXPECT_EQ(row.at("s").text, "lytes2_scrap1");
  EXPECT_EQ(row.at("m").text, "mark-lytes2_scrap1");

  // One probe for the anchor, then at most one per solution for each
  // further clause; starting from the root would probe all 16 scraps.
  uint64_t probes = 0;
  for (const PlanStep& step : plan.steps) probes += step.probes;
  EXPECT_LE(probes, 1 + (plan.steps.size() - 1) * plan.solutions)
      << plan.ToText();
  auto rows = Execute(store_, *q);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, analyzed->solutions);
}

// Thousands of sub-microsecond probes must still add up to a visible step
// time: actuals accumulate in nanoseconds and convert once.
TEST(ExplainAnalyzeTimingTest, ManyShortProbesAddUp) {
  TripleStore store;
  constexpr int kRows = 2000;
  for (int i = 0; i < kRows; ++i) {
    std::string n = std::to_string(i);
    ASSERT_TRUE(store.AddResource("s" + n, "link", "t" + n).ok());
    ASSERT_TRUE(store.AddLiteral("t" + n, "label", "v" + n).ok());
  }
  auto q = Query::Parse("?s link ?t . ?t label ?v");
  ASSERT_TRUE(q.ok());
  auto analyzed = ExplainAnalyze(store, *q);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  const QueryPlan& plan = analyzed->plan;
  ASSERT_EQ(plan.steps.size(), 2u);
  EXPECT_EQ(plan.steps[1].probes, uint64_t{kRows});
  EXPECT_GT(plan.steps[1].wall_us, 0u) << plan.ToText();
  uint64_t step_us = 0;
  for (const PlanStep& step : plan.steps) step_us += step.wall_us;
  EXPECT_LE(step_us, plan.total_us) << plan.ToText();
}

// ---------------------------------------------------------------------------
// Slow-query sampler.
// ---------------------------------------------------------------------------

TEST(SlowQueryLogTest, ThresholdGatesRecording) {
  SlowQueryLog log;
  EXPECT_FALSE(log.enabled());  // disarmed by default
  QueryPlan plan;
  plan.query_text = "?s <p> ?o";
  plan.total_us = 10;
  EXPECT_FALSE(log.MaybeRecord(plan));

  log.set_threshold_us(0);  // the sample-everything test hook
  EXPECT_TRUE(log.enabled());
  EXPECT_TRUE(log.MaybeRecord(plan));
  EXPECT_EQ(log.recorded(), 1u);

  log.set_threshold_us(1000);  // plan is under threshold
  EXPECT_FALSE(log.MaybeRecord(plan));
  EXPECT_EQ(log.recorded(), 1u);

  ASSERT_EQ(log.Recent().size(), 1u);
  EXPECT_EQ(log.Recent()[0].query_text, plan.query_text);
  log.Clear();
  EXPECT_TRUE(log.Recent().empty());
}

TEST(SlowQueryLogTest, RingKeepsMostRecentPlans) {
  SlowQueryLog log(/*capacity=*/2);
  log.set_threshold_us(0);
  for (int i = 0; i < 3; ++i) {
    QueryPlan plan;
    plan.query_text = "q" + std::to_string(i);
    EXPECT_TRUE(log.MaybeRecord(plan));
  }
  std::vector<QueryPlan> recent = log.Recent();
  ASSERT_EQ(recent.size(), 2u);  // oldest plan evicted
  EXPECT_EQ(recent[0].query_text, "q1");
  EXPECT_EQ(recent[1].query_text, "q2");
  EXPECT_EQ(log.recorded(), 3u);
}

// Execute() consults the process-wide sampler, so these tests arm it and
// must always disarm it again — other tests share the singleton.
class SlowQuerySamplerTest : public ExplainJoinTest {
 protected:
  void TearDown() override {
    DefaultSlowQueryLog().set_threshold_us(-1);
    DefaultSlowQueryLog().Clear();
  }
};

TEST_F(SlowQuerySamplerTest, ArmedExecuteRecordsAnalyzedPlan) {
  auto q = Query::Parse("?b bundleContent ?s . ?s scrapName ?n");
  ASSERT_TRUE(q.ok());
  uint64_t before = DefaultSlowQueryLog().recorded();
  DefaultSlowQueryLog().set_threshold_us(0);

  auto rows = Execute(store_, *q);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);

  EXPECT_EQ(DefaultSlowQueryLog().recorded(), before + 1);
  std::vector<QueryPlan> recent = DefaultSlowQueryLog().Recent();
  ASSERT_FALSE(recent.empty());
  const QueryPlan& plan = recent.back();
  EXPECT_TRUE(plan.analyzed);
  EXPECT_EQ(plan.solutions, rows->size());
  EXPECT_EQ(plan.query_text, q->ToString());
}

TEST_F(SlowQuerySamplerTest, DisarmedExecuteRecordsNothing) {
  auto q = Query::Parse("?b bundleContent ?s");
  ASSERT_TRUE(q.ok());
  uint64_t before = DefaultSlowQueryLog().recorded();
  auto rows = Execute(store_, *q);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(DefaultSlowQueryLog().recorded(), before);
}

// The sampler is on the concurrent query path: N threads execute against a
// shared store with sampling armed at 0, so every query funnels through
// ExplainAnalyze + MaybeRecord. Exact totals after the join prove no lost
// updates; TSan (SLIM_SANITIZE=thread) proves no races.
TEST_F(SlowQuerySamplerTest, ConcurrentSamplingKeepsExactTotals) {
  auto q = Query::Parse("?b bundleContent ?s . ?s scrapName ?n");
  ASSERT_TRUE(q.ok());
  uint64_t before = DefaultSlowQueryLog().recorded();
  DefaultSlowQueryLog().set_threshold_us(0);

  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, &q] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        auto rows = Execute(store_, *q);
        EXPECT_TRUE(rows.ok());
        if (rows.ok()) {
          EXPECT_EQ(rows->size(), 3u);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(DefaultSlowQueryLog().recorded() - before,
            uint64_t(kThreads) * kQueriesPerThread);
  // The default ring holds 32 plans; 200 recordings keep it exactly full.
  EXPECT_EQ(DefaultSlowQueryLog().Recent().size(), 32u);
}

#if SLIM_OBS_ENABLED
// The recorded plan rides a warn-level log event into the flight recorder,
// and MaybeRecord offers a bundle dump — so a slow query with a dump path
// configured leaves a post-mortem file that explains itself.
TEST_F(SlowQuerySamplerTest, SlowQueryDumpsFlightRecorderBundle) {
  obs::FlightRecorder& recorder = obs::DefaultFlightRecorder();
  ASSERT_TRUE(recorder.Install());
  std::string path = ::testing::TempDir() + "/slim_slow_query_bundle.json";
  std::remove(path.c_str());
  recorder.set_dump_path(path);

  DefaultSlowQueryLog().set_threshold_us(0);
  auto q = Query::Parse("?b bundleContent ?s . ?s scrapName ?n");
  ASSERT_TRUE(q.ok());
  auto rows = Execute(store_, *q);
  ASSERT_TRUE(rows.ok());

  recorder.set_dump_path("");
  recorder.Uninstall();

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "no bundle at " << path;
  std::string bundle((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
  // The bundle names its trigger and carries the analyzed plan JSON
  // (escaped inside the log event's "plan" field).
  EXPECT_NE(bundle.find("slim.query.slow"), std::string::npos);
  EXPECT_NE(bundle.find("slow query"), std::string::npos);
  EXPECT_NE(bundle.find("estimate_exact"), std::string::npos);
  EXPECT_NE(bundle.find("bundleContent"), std::string::npos);

  recorder.Clear();
  std::remove(path.c_str());
}
#endif  // SLIM_OBS_ENABLED

}  // namespace
}  // namespace slim::store
