#include <gtest/gtest.h>

#include "baseapp/text_app.h"
#include "mark/mark_manager.h"
#include "mark/modules.h"
#include "mark/validator.h"
#include "slim/query.h"
#include "util/rng.h"

namespace slim {
namespace {

// ---------------------------------------------------------------------------
// Text editing + text-mark drift
// ---------------------------------------------------------------------------

TEST(TextEditTest, ReplaceSpanEditsInPlace) {
  doc::text::TextDocument note;
  note.AddParagraph("patient stable overnight");
  ASSERT_TRUE(note.ReplaceSpan({0, 8, 14}, "deteriorating").ok());
  EXPECT_EQ((*note.GetParagraph(0))->text,
            "patient deteriorating overnight");
  ASSERT_TRUE(note.InsertText(0, 0, ">> ").ok());
  EXPECT_EQ((*note.GetParagraph(0))->text,
            ">> patient deteriorating overnight");
  EXPECT_TRUE(note.ReplaceSpan({5, 0, 1}, "x").IsOutOfRange());
  EXPECT_TRUE(note.ReplaceSpan({0, 0, 9999}, "x").IsOutOfRange());
}

TEST(TextEditTest, EditBeforeMarkCausesDrift) {
  // The §3 staleness scenario for span marks: an insertion earlier in the
  // paragraph shifts the characters a mark's span covers.
  baseapp::TextApp word;
  auto note = std::make_unique<doc::text::TextDocument>();
  note->AddParagraph("assessment: potassium low, replete and recheck");
  ASSERT_TRUE(word.RegisterDocument("note.txt", std::move(note)).ok());

  mark::MarkManager marks;
  mark::TextMarkModule module(&word);
  ASSERT_TRUE(marks.RegisterModule(&module).ok());

  ASSERT_TRUE(word.Select("note.txt", {0, 12, 25}).ok());  // "potassium low"
  std::string id = *marks.CreateMarkFromSelection("text");
  EXPECT_EQ((*marks.GetMark(id))->excerpt(), "potassium low");

  // Edit after the span: mark unaffected.
  doc::text::TextDocument* live = *word.GetDocument("note.txt");
  ASSERT_TRUE(live->ReplaceSpan({0, 27, 34}, "bolus").ok());
  mark::ValidationReport report = mark::ValidateAllMarks(&marks);
  EXPECT_TRUE(report.all_valid()) << report.ToString();

  // Edit before the span: the span now covers shifted characters.
  ASSERT_TRUE(live->InsertText(0, 0, "URGENT ").ok());
  report = mark::ValidateAllMarks(&marks);
  EXPECT_EQ(report.changed, 1u);
  EXPECT_EQ(report.audits[0].health, mark::MarkHealth::kContentChanged);
}

// ---------------------------------------------------------------------------
// Query engine vs brute-force evaluator on random stores/queries
// ---------------------------------------------------------------------------

// Naive reference: enumerate every assignment of triples to clauses.
std::vector<store::Binding> BruteForce(const trim::TripleStore& triples,
                                       const store::Query& query) {
  std::vector<trim::Triple> all = triples.Select(trim::TriplePattern{});
  std::vector<store::Binding> solutions;

  std::function<void(size_t, store::Binding)> recurse =
      [&](size_t clause_idx, store::Binding binding) {
        if (clause_idx == query.clauses().size()) {
          solutions.push_back(std::move(binding));
          return;
        }
        const store::QueryClause& c = query.clauses()[clause_idx];
        for (const trim::Triple& t : all) {
          store::Binding next = binding;
          // Binds a variable (constants are checked by the explicit
          // position tests below); repeated variables must agree.
          auto try_bind = [&](const store::QueryTerm& term,
                              trim::Object value) {
            auto it = next.find(term.text);
            if (it != next.end()) return it->second == value;
            next[term.text] = std::move(value);
            return true;
          };
          // Subject/property positions compare on text only.
          if (!c.subject.is_variable() && c.subject.text != t.subject) {
            continue;
          }
          if (c.subject.is_variable() &&
              !try_bind(c.subject, trim::Object::Resource(t.subject))) {
            continue;
          }
          if (!c.property.is_variable() && c.property.text != t.property) {
            continue;
          }
          if (c.property.is_variable() &&
              !try_bind(c.property, trim::Object::Resource(t.property))) {
            continue;
          }
          // Object position is kind-sensitive.
          if (!c.object.is_variable()) {
            bool want_resource =
                c.object.kind == store::QueryTerm::Kind::kResource;
            if (t.object.is_resource() != want_resource ||
                t.object.text != c.object.text) {
              continue;
            }
          } else if (!try_bind(c.object, t.object)) {
            continue;
          }
          recurse(clause_idx + 1, next);
        }
      };
  recurse(0, {});
  return solutions;
}

std::multiset<std::string> Canonical(const std::vector<store::Binding>& rows) {
  std::multiset<std::string> out;
  for (const store::Binding& row : rows) {
    std::string s;
    for (const auto& [var, val] : row) {
      s += var + "=" + (val.is_resource() ? "<" : "\"") + val.text + ";";
    }
    out.insert(s);
  }
  return out;
}

class QueryEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QueryEquivalence, EngineMatchesBruteForce) {
  Rng rng(GetParam());
  trim::TripleStore triples;
  std::vector<std::string> subjects = {"inst:1", "inst:2", "inst:3"};
  std::vector<std::string> properties = {"p", "q"};
  std::vector<std::string> literals = {"a", "b"};
  int n = 6 + static_cast<int>(rng.Below(8));
  for (int i = 0; i < n; ++i) {
    trim::Triple t{rng.Pick(subjects), rng.Pick(properties),
                   rng.Chance(0.5)
                       ? trim::Object::Literal(rng.Pick(literals))
                       : trim::Object::Resource(rng.Pick(subjects))};
    (void)triples.Add(t);
  }

  // Random query of 1-3 clauses over variables ?x ?y ?z and constants.
  auto random_term = [&](bool allow_literal) {
    switch (rng.Below(allow_literal ? 4u : 3u)) {
      case 0: return store::QueryTerm::Var(rng.Chance(0.5) ? "x" : "y");
      case 1: return store::QueryTerm::Var("z");
      case 2: return store::QueryTerm::Res(rng.Chance(0.5)
                                               ? rng.Pick(subjects)
                                               : rng.Pick(properties));
      default: return store::QueryTerm::Lit(rng.Pick(literals));
    }
  };
  store::Query query;
  size_t clauses = 1 + rng.Below(3);
  for (size_t i = 0; i < clauses; ++i) {
    query.Where(random_term(false),
                rng.Chance(0.7) ? store::QueryTerm::Res(rng.Pick(properties))
                                : store::QueryTerm::Var("p" + std::to_string(i)),
                random_term(true));
  }

  auto engine = store::Execute(triples, query);
  ASSERT_TRUE(engine.ok()) << query.ToString() << ": " << engine.status();
  std::vector<store::Binding> reference = BruteForce(triples, query);
  EXPECT_EQ(Canonical(*engine), Canonical(reference))
      << query.ToString() << " over " << triples.size() << " triples";

  // ANALYZE walks the same plan through the same executor: same answers,
  // and its last step emits exactly the solutions.
  auto analyzed = store::ExplainAnalyze(triples, query);
  ASSERT_TRUE(analyzed.ok()) << query.ToString() << ": " << analyzed.status();
  EXPECT_EQ(Canonical(analyzed->solutions), Canonical(reference))
      << query.ToString();
  ASSERT_FALSE(analyzed->plan.steps.empty());
  EXPECT_EQ(analyzed->plan.steps.back().rows_out, analyzed->plan.solutions)
      << query.ToString();
  EXPECT_EQ(analyzed->plan.solutions, analyzed->solutions.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryEquivalence,
                         ::testing::Range<uint64_t>(1, 40));

}  // namespace
}  // namespace slim
