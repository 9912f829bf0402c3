#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "trim/persistence.h"
#include "trim/triple_store.h"
#include "util/rng.h"

namespace slim::trim {
namespace {

Triple T(const std::string& s, const std::string& p, Object o) {
  return Triple{s, p, std::move(o)};
}

TEST(TripleStoreTest, AddAndContains) {
  TripleStore store;
  ASSERT_TRUE(store.AddLiteral("b1", "bundleName", "John Smith").ok());
  ASSERT_TRUE(store.AddResource("b1", "bundleContent", "s1").ok());
  EXPECT_EQ(store.size(), 2u);
  EXPECT_TRUE(store.Contains(
      T("b1", "bundleName", Object::Literal("John Smith"))));
  // Literal vs resource with the same text are distinct statements.
  EXPECT_FALSE(store.Contains(
      T("b1", "bundleContent", Object::Literal("s1"))));
  EXPECT_TRUE(store.Contains(
      T("b1", "bundleContent", Object::Resource("s1"))));
}

TEST(TripleStoreTest, DuplicatesRejectedByDefault) {
  TripleStore store;
  ASSERT_TRUE(store.AddLiteral("a", "p", "v").ok());
  EXPECT_TRUE(store.AddLiteral("a", "p", "v").IsAlreadyExists());
  EXPECT_TRUE(store.Add(T("a", "p", Object::Literal("v"))).IsAlreadyExists());
  EXPECT_EQ(store.size(), 1u);
}

TEST(TripleStoreTest, EmptyFieldsRejected) {
  TripleStore store;
  EXPECT_TRUE(store.AddLiteral("", "p", "v").IsInvalidArgument());
  EXPECT_TRUE(store.AddLiteral("s", "", "v").IsInvalidArgument());
  // Empty literal object is fine.
  EXPECT_TRUE(store.AddLiteral("s", "p", "").ok());
}

TEST(TripleStoreTest, RemoveExact) {
  TripleStore store;
  ASSERT_TRUE(store.AddLiteral("a", "p", "1").ok());
  ASSERT_TRUE(store.AddLiteral("a", "p", "2").ok());
  ASSERT_TRUE(store.Remove(T("a", "p", Object::Literal("1"))).ok());
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.Remove(T("a", "p", Object::Literal("1"))).IsNotFound());
  EXPECT_FALSE(store.Contains(T("a", "p", Object::Literal("1"))));
  EXPECT_TRUE(store.Contains(T("a", "p", Object::Literal("2"))));
}

TEST(TripleStoreTest, SlotReuseAfterRemove) {
  TripleStore store;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store.AddLiteral("s" + std::to_string(i), "p", "v").ok());
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        store.Remove(T("s" + std::to_string(i), "p", Object::Literal("v")))
            .ok());
  }
  EXPECT_TRUE(store.empty());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store.AddLiteral("t" + std::to_string(i), "p", "v").ok());
  }
  EXPECT_EQ(store.size(), 10u);
  EXPECT_EQ(store.Select(TriplePattern::ByProperty("p")).size(), 10u);
}

TEST(TripleStoreTest, SelectionByEachField) {
  TripleStore store;
  ASSERT_TRUE(store.AddLiteral("b1", "bundleName", "X").ok());
  ASSERT_TRUE(store.AddLiteral("b2", "bundleName", "Y").ok());
  ASSERT_TRUE(store.AddResource("b1", "bundleContent", "s1").ok());
  ASSERT_TRUE(store.AddResource("b2", "bundleContent", "s1").ok());

  EXPECT_EQ(store.Select(TriplePattern::BySubject("b1")).size(), 2u);
  EXPECT_EQ(store.Select(TriplePattern::ByProperty("bundleName")).size(), 2u);
  EXPECT_EQ(
      store.Select(TriplePattern::ByObject(Object::Resource("s1"))).size(),
      2u);
  EXPECT_EQ(store
                .Select(TriplePattern::BySubjectProperty("b1",
                                                         "bundleContent"))
                .size(),
            1u);
  // Fully fixed pattern.
  TriplePattern exact{"b2", "bundleName", Object::Literal("Y")};
  EXPECT_EQ(store.Select(exact).size(), 1u);
  // Empty pattern matches everything.
  EXPECT_EQ(store.Select(TriplePattern{}).size(), 4u);
  // Non-matching key short-circuits.
  EXPECT_TRUE(store.Select(TriplePattern::BySubject("zzz")).empty());
}

TEST(TripleStoreTest, ObjectPatternDistinguishesKind) {
  TripleStore store;
  ASSERT_TRUE(store.AddLiteral("a", "p", "x").ok());
  ASSERT_TRUE(store.AddResource("b", "p", "x").ok());
  EXPECT_EQ(
      store.Select(TriplePattern::ByObject(Object::Literal("x"))).size(), 1u);
  EXPECT_EQ(
      store.Select(TriplePattern::ByObject(Object::Resource("x"))).size(),
      1u);
}

TEST(TripleStoreTest, SelectEachEarlyStop) {
  TripleStore store;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store.AddLiteral("s", "p" + std::to_string(i), "v").ok());
  }
  int count = 0;
  store.SelectEach(TriplePattern::BySubject("s"), [&](const Triple&) {
    return ++count < 3;
  });
  EXPECT_EQ(count, 3);
}

TEST(TripleStoreTest, GetOneSetOne) {
  TripleStore store;
  EXPECT_FALSE(store.GetOne("pad1", "padName").has_value());
  ASSERT_TRUE(store.SetOne("pad1", "padName", Object::Literal("Rounds")).ok());
  EXPECT_EQ(store.GetOne("pad1", "padName")->text, "Rounds");
  // SetOne replaces.
  ASSERT_TRUE(
      store.SetOne("pad1", "padName", Object::Literal("Evening Rounds")).ok());
  EXPECT_EQ(store.GetOne("pad1", "padName")->text, "Evening Rounds");
  EXPECT_EQ(store.Select(TriplePattern::BySubject("pad1")).size(), 1u);
}

TEST(TripleStoreTest, ViewFromFollowsResourceEdges) {
  TripleStore store;
  // pad -> bundle -> {scrap1, scrap2}; scrap2 -> handle.
  ASSERT_TRUE(store.AddResource("pad", "rootBundle", "bundle").ok());
  ASSERT_TRUE(store.AddLiteral("bundle", "bundleName", "B").ok());
  ASSERT_TRUE(store.AddResource("bundle", "bundleContent", "scrap1").ok());
  ASSERT_TRUE(store.AddResource("bundle", "bundleContent", "scrap2").ok());
  ASSERT_TRUE(store.AddLiteral("scrap1", "scrapName", "S1").ok());
  ASSERT_TRUE(store.AddResource("scrap2", "scrapMark", "handle").ok());
  ASSERT_TRUE(store.AddLiteral("handle", "markId", "mark9").ok());
  // An unrelated island must not appear.
  ASSERT_TRUE(store.AddLiteral("other", "x", "y").ok());

  std::vector<Triple> view = store.ViewFrom("pad");
  EXPECT_EQ(view.size(), 7u);
  std::vector<std::string> reachable = store.ReachableResources("pad");
  std::set<std::string> set(reachable.begin(), reachable.end());
  EXPECT_EQ(set, (std::set<std::string>{"pad", "bundle", "scrap1", "scrap2",
                                        "handle"}));
}

TEST(TripleStoreTest, ViewFromIsCycleSafe) {
  TripleStore store;
  ASSERT_TRUE(store.AddResource("a", "next", "b").ok());
  ASSERT_TRUE(store.AddResource("b", "next", "a").ok());
  EXPECT_EQ(store.ViewFrom("a").size(), 2u);
}

TEST(TripleStoreTest, RemoveMatching) {
  TripleStore store;
  ASSERT_TRUE(store.AddLiteral("s1", "a", "1").ok());
  ASSERT_TRUE(store.AddLiteral("s1", "b", "2").ok());
  ASSERT_TRUE(store.AddLiteral("s2", "a", "3").ok());
  EXPECT_EQ(store.RemoveMatching(TriplePattern::BySubject("s1")), 2u);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.RemoveMatching(TriplePattern::BySubject("s1")), 0u);
}

TEST(TripleStoreTest, ClearResetsEverything) {
  TripleStore store;
  ASSERT_TRUE(store.AddLiteral("a", "p", "v").ok());
  store.Clear();
  EXPECT_TRUE(store.empty());
  EXPECT_TRUE(store.Select(TriplePattern{}).empty());
  ASSERT_TRUE(store.AddLiteral("a", "p", "v").ok());
  EXPECT_EQ(store.size(), 1u);
}

TEST(TripleStoreTest, ApproximateBytesGrows) {
  TripleStore store;
  size_t empty = store.ApproximateBytes();
  ASSERT_TRUE(store.AddLiteral("subject", "property", "value").ok());
  EXPECT_GT(store.ApproximateBytes(), empty);
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

TEST(TrimPersistenceTest, XmlRoundTrip) {
  TripleStore store;
  ASSERT_TRUE(store.AddLiteral("b1", "bundleName", "John <Smith> & Co").ok());
  ASSERT_TRUE(store.AddResource("b1", "bundleContent", "s1").ok());
  ASSERT_TRUE(store.AddLiteral("s1", "scrapName", "Na 140\nnext line").ok());
  ASSERT_TRUE(store.AddLiteral("s1", "empty", "").ok());

  std::string xml_text = StoreToXml(store);
  TripleStore loaded;
  ASSERT_TRUE(StoreFromXml(xml_text, &loaded).ok());
  EXPECT_EQ(loaded.size(), store.size());
  store.ForEach([&](const Triple& t) {
    EXPECT_TRUE(loaded.Contains(t)) << TripleToString(t);
  });
  // Canonical: second serialization identical.
  EXPECT_EQ(StoreToXml(loaded), xml_text);
}

TEST(TrimPersistenceTest, LoadClearsExisting) {
  TripleStore a, b;
  ASSERT_TRUE(a.AddLiteral("x", "p", "1").ok());
  ASSERT_TRUE(b.AddLiteral("y", "q", "2").ok());
  ASSERT_TRUE(StoreFromXml(StoreToXml(a), &b).ok());
  EXPECT_EQ(b.size(), 1u);
  EXPECT_TRUE(b.Contains(T("x", "p", Object::Literal("1"))));
}

TEST(TrimPersistenceTest, Rejections) {
  TripleStore store;
  EXPECT_FALSE(StoreFromXml("<wrong/>", &store).ok());
  EXPECT_FALSE(StoreFromXml(
                   "<trim:store><trim:statement property=\"p\">"
                   "<trim:literal>v</trim:literal></trim:statement>"
                   "</trim:store>",
                   &store)
                   .ok());
  EXPECT_FALSE(StoreFromXml(
                   "<trim:store><trim:statement subject=\"s\" property=\"p\"/>"
                   "</trim:store>",
                   &store)
                   .ok());
  EXPECT_FALSE(
      StoreFromXml(
          "<trim:store><trim:statement subject=\"s\" property=\"p\">"
          "<trim:literal>v</trim:literal><trim:resource>r</trim:resource>"
          "</trim:statement></trim:store>",
          &store)
          .ok());
}

TEST(TrimPersistenceTest, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "/store_roundtrip.xml";
  TripleStore store;
  ASSERT_TRUE(store.AddLiteral("a", "p", "v").ok());
  ASSERT_TRUE(SaveStore(store, path).ok());
  TripleStore loaded;
  ASSERT_TRUE(LoadStore(path, &loaded).ok());
  EXPECT_EQ(loaded.size(), 1u);
  std::remove(path.c_str());
  EXPECT_TRUE(LoadStore(path, &loaded).IsIoError());
}

// ---------------------------------------------------------------------------
// Property test: indexes agree with a model set under random op sequences.
// ---------------------------------------------------------------------------

class TripleStoreRandomOps : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TripleStoreRandomOps, IndexesMatchModel) {
  Rng rng(GetParam());
  TripleStore store;
  std::set<Triple> model;
  std::vector<std::string> subjects = {"s1", "s2", "s3", "s4"};
  std::vector<std::string> properties = {"p1", "p2", "p3"};
  std::vector<std::string> values = {"a", "b", "c", "d", "e"};

  for (int op = 0; op < 400; ++op) {
    Triple t{rng.Pick(subjects), rng.Pick(properties),
             rng.Chance(0.5) ? Object::Literal(rng.Pick(values))
                             : Object::Resource(rng.Pick(subjects))};
    if (rng.Chance(0.6)) {
      Status st = store.Add(t);
      bool was_new = model.insert(t).second;
      EXPECT_EQ(st.ok(), was_new) << TripleToString(t);
    } else {
      Status st = store.Remove(t);
      bool was_present = model.erase(t) > 0;
      EXPECT_EQ(st.ok(), was_present) << TripleToString(t);
    }
    ASSERT_EQ(store.size(), model.size());
  }

  // Every selection path returns exactly the model's matching subset.
  for (const std::string& s : subjects) {
    auto got = store.Select(TriplePattern::BySubject(s));
    size_t expected = std::count_if(model.begin(), model.end(),
                                    [&](const Triple& t) {
                                      return t.subject == s;
                                    });
    EXPECT_EQ(got.size(), expected) << s;
    for (const Triple& t : got) EXPECT_TRUE(model.count(t));
  }
  for (const std::string& p : properties) {
    EXPECT_EQ(store.Select(TriplePattern::ByProperty(p)).size(),
              static_cast<size_t>(std::count_if(
                  model.begin(), model.end(),
                  [&](const Triple& t) { return t.property == p; })));
  }
  // Persistence of the random store round-trips exactly.
  TripleStore loaded;
  ASSERT_TRUE(StoreFromXml(StoreToXml(store), &loaded).ok());
  EXPECT_EQ(loaded.size(), model.size());
  for (const Triple& t : model) EXPECT_TRUE(loaded.Contains(t));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TripleStoreRandomOps,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace slim::trim
