#include <gtest/gtest.h>

#include <stdexcept>

#include "mark/mark_manager.h"
#include "obs/obs.h"
#include "slim/query.h"
#include "slimpad/slimpad_app.h"
#include "slimpad/slimpad_dmi.h"
#include "trim/store_stats.h"

namespace slim::store {
namespace {

TEST(QueryParseTest, TermsAndClauses) {
  auto q = Query::Parse(
      "?s slim:type <schema:slimpad/Scrap> . ?s scrapName \"Na 140\"");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->clauses().size(), 2u);
  EXPECT_EQ(q->clauses()[0].subject, QueryTerm::Var("s"));
  EXPECT_EQ(q->clauses()[0].property, QueryTerm::Res("slim:type"));
  EXPECT_EQ(q->clauses()[0].object,
            QueryTerm::Res("schema:slimpad/Scrap"));
  EXPECT_EQ(q->clauses()[1].object, QueryTerm::Lit("Na 140"));
  EXPECT_EQ(q->Variables(), (std::vector<std::string>{"s"}));
}

TEST(QueryParseTest, EscapedLiteralAndRoundTrip) {
  auto q = Query::Parse("?x note \"he said \\\"hi\\\"\"");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->clauses()[0].object.text, "he said \"hi\"");
  // ToString -> Parse -> ToString is a fixpoint.
  auto q2 = Query::Parse(q->ToString());
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(q2->ToString(), q->ToString());
}

TEST(QueryParseTest, Rejections) {
  for (const char* bad :
       {"", "?s", "?s p", "?s p \"unterminated", "? p o", "?s <unclosed o",
        "?s p o x p2 o2", ". . ."}) {
    EXPECT_FALSE(Query::Parse(bad).ok()) << bad;
  }
}

// ---------------------------------------------------------------------------
// Binding: the std::map subset callers use, over one name-sorted vector
// ---------------------------------------------------------------------------

std::vector<std::string> Names(const Binding& b) {
  std::vector<std::string> out;
  for (const auto& [name, value] : b) out.push_back(name);
  return out;
}

TEST(BindingTest, AtThrowsOnMissingName) {
  Binding b;
  b.emplace("s", BoundValue::Resource("inst:1"));
  EXPECT_EQ(b.at("s").text, "inst:1");
  EXPECT_THROW((void)b.at("t"), std::out_of_range);
  const Binding& cb = b;
  EXPECT_THROW((void)cb.at(""), std::out_of_range);
  EXPECT_EQ(b.count("s"), 1u);
  EXPECT_EQ(b.count("t"), 0u);
  EXPECT_EQ(cb.find("t"), cb.end());
}

TEST(BindingTest, EmplaceNeverOverwritesAndIndexDefaultInserts) {
  Binding b;
  auto [first, inserted] = b.emplace("n", BoundValue::Literal("K 4.2"));
  EXPECT_TRUE(inserted);
  EXPECT_EQ(first->second.text, "K 4.2");
  auto [again, reinserted] = b.emplace("n", BoundValue::Literal("Na 140"));
  EXPECT_FALSE(reinserted);
  EXPECT_EQ(again->second.text, "K 4.2");
  EXPECT_EQ(b.size(), 1u);

  BoundValue& fresh = b["m"];
  EXPECT_EQ(fresh, BoundValue{});
  EXPECT_EQ(b.size(), 2u);
  b["m"] = BoundValue::Resource("inst:9");
  EXPECT_EQ(b.at("m").text, "inst:9");
  EXPECT_EQ(b["n"].text, "K 4.2");  // an existing name is not reset
  EXPECT_EQ(b.size(), 2u);
}

TEST(BindingTest, IterationFollowsNameOrderWhateverTheInsertionOrder) {
  const std::vector<std::string> sorted = {"a", "b", "m", "s", "z"};
  for (const std::vector<std::string>& order :
       std::vector<std::vector<std::string>>{{"z", "m", "a", "s", "b"},
                                             {"a", "b", "m", "s", "z"},
                                             {"z", "s", "m", "b", "a"}}) {
    Binding by_emplace, by_index;
    for (const std::string& name : order) {
      by_emplace.emplace(name, BoundValue::Literal(name));
      by_index[name] = BoundValue::Literal(name);
    }
    EXPECT_EQ(Names(by_emplace), sorted);
    EXPECT_EQ(Names(by_index), sorted);
    EXPECT_EQ(by_emplace, by_index);
    for (const auto& [name, value] : by_emplace) EXPECT_EQ(value.text, name);
  }
}

TEST(BindingTest, EqualityAndIndependentCopies) {
  Binding a;
  a.emplace("s", BoundValue::Resource("inst:1"));
  a.emplace("n", BoundValue::Literal("x"));
  Binding b = a;
  EXPECT_EQ(a, b);
  b["n"] = BoundValue::Literal("y");
  EXPECT_NE(a, b);
  EXPECT_EQ(a.at("n").text, "x");
  Binding c = a;
  c.at("s").kind = trim::ObjectKind::kLiteral;  // same text, other kind
  EXPECT_NE(a, c);
  Binding d = a;
  d.emplace("z", BoundValue::Literal("extra"));
  EXPECT_NE(a, d);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(Binding{}, Binding{});
}

// ---------------------------------------------------------------------------
// Bounded query size
// ---------------------------------------------------------------------------

// `?a p ?a` repeated `n` times, as text and as a built query.
std::string RepeatedClauseText(size_t n) {
  std::string text;
  for (size_t i = 0; i < n; ++i) text += i ? " . ?a p ?a" : "?a p ?a";
  return text;
}
Query RepeatedClauseQuery(size_t n) {
  Query q;
  for (size_t i = 0; i < n; ++i) {
    q.Where(QueryTerm::Var("a"), QueryTerm::Res("p"), QueryTerm::Var("a"));
  }
  return q;
}

TEST(QueryBoundTest, ParseAcceptsTheLimitAndRejectsOneMore) {
  auto at_limit = Query::Parse(RepeatedClauseText(kMaxQueryClauses));
  ASSERT_TRUE(at_limit.ok()) << at_limit.status();
  EXPECT_EQ(at_limit->clauses().size(), kMaxQueryClauses);
  auto past = Query::Parse(RepeatedClauseText(kMaxQueryClauses + 1));
  ASSERT_FALSE(past.ok());
  EXPECT_TRUE(past.status().IsParseError()) << past.status();
  EXPECT_NE(past.status().ToString().find("1000"), std::string::npos)
      << past.status();
}

TEST(QueryBoundTest, BuiltQueriesPastTheLimitFailBeforePlanning) {
  trim::TripleStore store;
  ASSERT_TRUE(store.AddResource("x", "p", "x").ok());
  auto rows = Execute(store, RepeatedClauseQuery(kMaxQueryClauses));
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].at("a").text, "x");

  const Query past = RepeatedClauseQuery(kMaxQueryClauses + 1);
  auto executed = Execute(store, past);
  EXPECT_TRUE(executed.status().IsInvalidArgument()) << executed.status();
  EXPECT_NE(executed.status().ToString().find("1001"), std::string::npos)
      << executed.status();
  EXPECT_TRUE(Explain(store, past).status().IsInvalidArgument());
  EXPECT_TRUE(ExplainAnalyze(store, past).status().IsInvalidArgument());
}

// About 200 KB of query text once planned for seconds and then overflowed
// the executor's stack; every entry point now answers with a status.
TEST(QueryBoundTest, TwentyThousandClausesReturnAStatus) {
  constexpr size_t kHuge = 20000;
  trim::TripleStore store;
  ASSERT_TRUE(store.AddResource("x", "p", "x").ok());
  const std::string text = RepeatedClauseText(kHuge);
  EXPECT_TRUE(ExecuteText(store, text).status().IsParseError());
  EXPECT_TRUE(
      Execute(store, RepeatedClauseQuery(kHuge)).status().IsInvalidArgument());

  mark::MarkManager marks;
  pad::SlimPadApp app(&marks);
  ASSERT_TRUE(app.NewPad("bounded").ok());
  EXPECT_TRUE(app.QueryPad(text).status().IsParseError());
}

class QueryExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A small pad: two bundles, three scraps, one handle.
    InstanceGraph graph(&store_);
    b1_ = *graph.Create("schema:slimpad/Bundle");
    (void)graph.SetValue(b1_, "bundleName", "John Smith");
    b2_ = *graph.Create("schema:slimpad/Bundle");
    (void)graph.SetValue(b2_, "bundleName", "Electrolyte");
    s1_ = *graph.Create("schema:slimpad/Scrap");
    (void)graph.SetValue(s1_, "scrapName", "dopamine");
    s2_ = *graph.Create("schema:slimpad/Scrap");
    (void)graph.SetValue(s2_, "scrapName", "Na 140");
    s3_ = *graph.Create("schema:slimpad/Scrap");
    (void)graph.SetValue(s3_, "scrapName", "K 4.2");
    (void)graph.Connect(b1_, "bundleContent", s1_);
    (void)graph.Connect(b2_, "bundleContent", s2_);
    (void)graph.Connect(b2_, "bundleContent", s3_);
    (void)graph.Connect(b1_, "nestedBundle", b2_);
    h1_ = *graph.Create("schema:slimpad/MarkHandle");
    (void)graph.SetValue(h1_, "markId", "mark7");
    (void)graph.Connect(s2_, "scrapMark", h1_);
  }

  trim::TripleStore store_;
  std::string b1_, b2_, s1_, s2_, s3_, h1_;
};

TEST_F(QueryExecTest, SingleClauseByType) {
  auto rows = ExecuteText(store_, "?s slim:type <schema:slimpad/Scrap>");
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->size(), 3u);
}

TEST_F(QueryExecTest, LiteralFilter) {
  auto rows = ExecuteText(store_, "?s scrapName \"Na 140\"");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].at("s").text, s2_);
}

TEST_F(QueryExecTest, JoinAcrossClauses) {
  // Scraps in the bundle named "Electrolyte", with their names.
  auto rows = ExecuteText(store_,
                          "?b bundleName \"Electrolyte\" . "
                          "?b bundleContent ?s . "
                          "?s scrapName ?name");
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), 2u);
  std::set<std::string> names;
  for (const Binding& row : *rows) names.insert(row.at("name").text);
  EXPECT_EQ(names, (std::set<std::string>{"Na 140", "K 4.2"}));
}

TEST_F(QueryExecTest, ThreeHopNavigation) {
  // From the top bundle through nesting to a marked scrap's mark id —
  // the "which marks does John Smith's worksheet reference?" question.
  auto rows = ExecuteText(store_,
                          "?top bundleName \"John Smith\" . "
                          "?top nestedBundle ?nested . "
                          "?nested bundleContent ?s . "
                          "?s scrapMark ?h . "
                          "?h markId ?m");
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].at("m").text, "mark7");
  EXPECT_EQ((*rows)[0].at("s").text, s2_);
}

TEST_F(QueryExecTest, PropertyVariable) {
  // What does s2 say about itself? Property position is a variable.
  auto rows = ExecuteText(store_, "<" + s2_ + "> ?p ?o");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);  // type, scrapName, scrapMark
}

TEST_F(QueryExecTest, RepeatedVariableMustAgree) {
  InstanceGraph graph(&store_);
  (void)graph.Connect(s1_, "scrapLink", s1_);  // self link
  (void)graph.Connect(s1_, "scrapLink", s2_);
  auto rows = ExecuteText(store_, "?x scrapLink ?x");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].at("x").text, s1_);
}

TEST_F(QueryExecTest, NoSolutions) {
  auto rows = ExecuteText(store_, "?s scrapName \"not present\"");
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
  rows = ExecuteText(store_, "?s neverAProperty ?o");
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

// Reads resolve constants against the key table but never add to it:
// 10,000 queries naming strings the store does not hold, and as many
// direct reads, leave every key count and the table itself as they were.
TEST_F(QueryExecTest, AbsentConstantsNeverInsertKeys) {
  const trim::StoreStats before = trim::ComputeStats(store_);
  ASSERT_GT(before.interned_strings, 0u);
  for (int i = 0; i < 10000; ++i) {
    const std::string absent = "absent" + std::to_string(i);
    const std::string text =
        i % 3 == 0   ? "?s scrapName \"" + absent + "\""
        : i % 3 == 1 ? "<" + absent + "> ?p ?o"
                     : "?s " + absent + " ?o . ?s scrapName ?n";
    auto rows = ExecuteText(store_, text);
    ASSERT_TRUE(rows.ok()) << text;
    EXPECT_TRUE(rows->empty()) << text;
    EXPECT_FALSE(store_.Contains(
        {absent, "scrapName", trim::Object::Literal(absent)}));
    EXPECT_FALSE(store_.GetOne(s1_, absent).has_value());
    EXPECT_TRUE(store_.ViewFrom(absent).empty());
  }
  const trim::StoreStats after = trim::ComputeStats(store_);
  EXPECT_EQ(after.subject_keys, before.subject_keys);
  EXPECT_EQ(after.property_keys, before.property_keys);
  EXPECT_EQ(after.object_keys, before.object_keys);
  EXPECT_EQ(after.interned_strings, before.interned_strings);
  EXPECT_EQ(after.interned_bytes, before.interned_bytes);
}

TEST_F(QueryExecTest, LiteralInSubjectPositionRejected) {
  auto rows = ExecuteText(store_, "\"lit\" p ?o");
  EXPECT_TRUE(rows.status().IsInvalidArgument());
}

// The first clause matches nothing, so a search that checked each clause
// only on reaching it would return OK with no rows. Every clause is
// validated before any of them runs, in all three entry points.
TEST_F(QueryExecTest, LiteralPositionRejectedBeforeAnyClauseRuns) {
  for (const char* text : {"<no-such> p ?o . \"x\" q ?z",
                           "<no-such> p ?o . ?s \"lit\" ?z"}) {
    auto q = Query::Parse(text);
    ASSERT_TRUE(q.ok()) << text;
#if SLIM_OBS_ENABLED
    uint64_t errors_before =
        obs::DefaultRegistry().CounterValue("slim.query.execute.error");
#endif
    EXPECT_TRUE(Execute(store_, *q).status().IsInvalidArgument()) << text;
#if SLIM_OBS_ENABLED
    EXPECT_EQ(obs::DefaultRegistry().CounterValue("slim.query.execute.error"),
              errors_before + 1)
        << text;
#endif
    EXPECT_TRUE(Explain(store_, *q).status().IsInvalidArgument()) << text;
    EXPECT_TRUE(ExplainAnalyze(store_, *q).status().IsInvalidArgument())
        << text;
  }
}

TEST_F(QueryExecTest, ObjectsDistinguishLiteralFromResource) {
  // bundleContent links are resources; a literal with the same text must
  // not match.
  auto rows = ExecuteText(store_, "?b bundleContent \"" + s1_ + "\"");
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
  rows = ExecuteText(store_, "?b bundleContent <" + s1_ + ">");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
}

TEST_F(QueryExecTest, ProgrammaticBuilder) {
  Query q;
  q.Where(QueryTerm::Var("s"), QueryTerm::Res("scrapName"),
          QueryTerm::Var("n"));
  auto rows = Execute(store_, q);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);
}

TEST_F(QueryExecTest, SolutionsIterateInVariableNameOrder) {
  // Variables first appear as ?z ?a ?m; every solution lists a, m, z.
  auto rows = ExecuteText(store_,
                          "?z scrapMark ?a . ?a markId ?m");
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ(Names((*rows)[0]), (std::vector<std::string>{"a", "m", "z"}));
  EXPECT_EQ((*rows)[0].at("z").text, s2_);
  EXPECT_EQ((*rows)[0].at("a").text, h1_);
  EXPECT_EQ((*rows)[0].at("m").text, "mark7");
}

TEST_F(QueryExecTest, QueryOverRealPad) {
  // Query data written by the actual SLIMPad DMI, not hand-rolled triples.
  trim::TripleStore store;
  pad::SlimPadDmi dmi(&store);
  const pad::Bundle* bundle = *dmi.Create_Bundle("Meds", {0, 0}, 10, 10);
  const pad::Scrap* scrap = *dmi.Create_Scrap("heparin", {1, 1});
  (void)dmi.AddScrapToBundle(bundle->id(), scrap->id());

  auto rows = ExecuteText(store,
                          "?b bundleName \"Meds\" . ?b bundleContent ?s . "
                          "?s scrapName ?n");
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].at("n").text, "heparin");
  EXPECT_EQ((*rows)[0].at("s").text, scrap->id());
}

}  // namespace
}  // namespace slim::store
