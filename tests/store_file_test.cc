// Store files (trim/persistence.h): the binary pad form and the XML form
// against each other, against the source store and against a std::set
// reference model. The corruption and truncation sweeps over the binary
// form are in fuzz_test.cc, loads under a concurrent writer in
// store_concurrency_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "trim/persistence.h"
#include "trim/triple_store.h"
#include "util/file.h"
#include "util/rng.h"

namespace slim::trim {
namespace {

std::set<Triple> AsSet(const std::vector<Triple>& triples) {
  return {triples.begin(), triples.end()};
}

std::vector<Triple> InOrder(const TripleStore& store) {
  std::vector<Triple> out;
  store.ForEach([&out](const Triple& t) { out.push_back(t); });
  return out;
}

std::vector<Triple> Sorted(const TripleStore& store) {
  std::vector<Triple> out = InOrder(store);
  std::sort(out.begin(), out.end());
  return out;
}

// Decodes `bytes` as a store file and installs it, as LoadStore does.
Status LoadBytes(std::string bytes, TripleStore* store) {
  TripleStore::Image image;
  SLIM_RETURN_NOT_OK(DecodeStore(std::move(bytes), &image));
  return store->InstallImage(image);
}

// The model's ViewFrom: every triple reachable from `resource` by
// following resource-valued objects.
std::set<Triple> ModelView(const std::set<Triple>& model,
                           const std::string& resource) {
  std::set<std::string> reached = {resource};
  std::vector<std::string> frontier = {resource};
  std::set<Triple> out;
  while (!frontier.empty()) {
    const std::string subject = frontier.back();
    frontier.pop_back();
    for (const Triple& t : model) {
      if (t.subject != subject) continue;
      out.insert(t);
      if (t.object.is_resource() && reached.insert(t.object.text).second) {
        frontier.push_back(t.object.text);
      }
    }
  }
  return out;
}

// Property test: the store agrees with a std::set<Triple> model under
// random adds and removes, through the subject and property selections and
// ViewFrom, and after a binary and an XML round trip.
class StoreEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StoreEquivalence, MatchesReferenceModel) {
  Rng rng(GetParam());
  TripleStore store;
  std::set<Triple> model;
  std::vector<std::string> subjects = {"s1", "s2", "s3"};
  std::vector<std::string> properties = {"p1", "p2"};
  std::vector<std::string> values = {"a", "b", "c"};

  for (int op = 0; op < 300; ++op) {
    Triple t{rng.Pick(subjects), rng.Pick(properties),
             rng.Chance(0.5) ? Object::Literal(rng.Pick(values))
                             : Object::Resource(rng.Pick(subjects))};
    if (rng.Chance(0.6)) {
      EXPECT_EQ(store.Add(t).ok(), model.insert(t).second);
    } else {
      EXPECT_EQ(store.Remove(t).ok(), model.erase(t) == 1);
    }
    ASSERT_EQ(store.size(), model.size());
  }
  auto model_where = [&model](auto keep) {
    std::set<Triple> out;
    for (const Triple& t : model) {
      if (keep(t)) out.insert(t);
    }
    return out;
  };
  for (const std::string& s : subjects) {
    EXPECT_EQ(AsSet(store.Select(TriplePattern::BySubject(s))),
              model_where([&s](const Triple& t) { return t.subject == s; }));
    EXPECT_EQ(AsSet(store.ViewFrom(s)), ModelView(model, s));
  }
  for (const std::string& p : properties) {
    EXPECT_EQ(AsSet(store.Select(TriplePattern::ByProperty(p))),
              model_where([&p](const Triple& t) { return t.property == p; }));
  }
  TripleStore from_binary;
  ASSERT_TRUE(LoadBytes(StoreToBinary(store), &from_binary).ok());
  EXPECT_EQ(AsSet(from_binary.Select(TriplePattern{})), model);
  TripleStore from_xml;
  ASSERT_TRUE(StoreFromXml(StoreToXml(store), &from_xml).ok());
  EXPECT_EQ(AsSet(from_xml.Select(TriplePattern{})), model);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreEquivalence,
                         ::testing::Values(2, 4, 6, 10, 16, 26));

// Strings the two forms find hardest: empty and whitespace-only text,
// markup and quotes, non-ASCII UTF-8, and long runs.
std::string HardText(Rng* rng) {
  static const char* kPieces[] = {"",  " ",  "\n\t ", "<a&b>", "\"q'",
                                  "é", "日本", "x",    "]]>",   "&amp;"};
  std::string out;
  for (size_t n = rng->Below(4); n > 0; --n) {
    out += kPieces[rng->Below(std::size(kPieces))];
  }
  if (rng->Chance(0.05)) out += std::string(5000, 'L');
  return out;
}

void FillHardStore(uint64_t seed, size_t n, TripleStore* store) {
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const std::string subject = "s" + HardText(&rng) + std::to_string(i % 9);
    const std::string property = "p" + HardText(&rng);
    (void)store->Add(
        {subject, property,
         rng.Chance(0.3) ? Object::Resource("s" + std::to_string(i % 5))
                         : Object::Literal(HardText(&rng))});
  }
}

TEST(StoreFileTest, BinaryAndXmlRoundTripsGiveTheSourceTriples) {
  for (uint64_t seed = 0; seed <= 30; ++seed) {
    TripleStore source;
    FillHardStore(seed, seed == 0 ? 0 : 60, &source);  // seed 0: empty
    TripleStore from_binary;
    ASSERT_TRUE(LoadBytes(StoreToBinary(source), &from_binary).ok()) << seed;
    // The binary form keeps ForEach order as well.
    EXPECT_EQ(InOrder(from_binary), InOrder(source)) << seed;
    TripleStore from_xml;
    ASSERT_TRUE(StoreFromXml(StoreToXml(source), &from_xml).ok()) << seed;
    EXPECT_EQ(Sorted(from_xml), Sorted(source)) << seed;
    EXPECT_EQ(Sorted(from_binary), Sorted(from_xml)) << seed;
  }
}

TEST(StoreFileTest, SaveWritesBinaryAndLoadReadsBothForms) {
  TripleStore source;
  FillHardStore(7, 80, &source);
  const std::string path = ::testing::TempDir() + "/store_file_test.pad";
  ASSERT_TRUE(SaveStore(source, path).ok());
  TripleStore loaded;
  ASSERT_TRUE(LoadStore(path, &loaded).ok());
  EXPECT_EQ(InOrder(loaded), InOrder(source));

  // An XML store file loads through the same call.
  TripleStore other;
  ASSERT_TRUE(other.AddLiteral("x", "y", "z").ok());
  {
    FileReplacer file(path);
    *file.buffer() = StoreToXml(other);
    ASSERT_TRUE(file.Commit().ok());
  }
  ASSERT_TRUE(LoadStore(path, &loaded).ok());
  EXPECT_EQ(Sorted(loaded), Sorted(other));
  std::remove(path.c_str());
}

// The binary form holds each distinct string once: repeated subjects,
// properties and objects cost a 13-byte record, not their text again.
TEST(StoreFileTest, BinaryFormWritesEachStringOnce) {
  TripleStore store;
  const std::string long_value(1000, 'v');
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        store.AddLiteral("subject" + std::to_string(i), "property", long_value)
            .ok());
  }
  const std::string binary = StoreToBinary(store);
  EXPECT_LT(binary.size(), long_value.size() + 100 * (13 + 4 + 10) + 64);
  EXPECT_LT(binary.size() * 10, StoreToXml(store).size());
}

// Images reject what a file must not hold, before any store is touched.
TEST(StoreFileTest, ImageChecksEveryStatement) {
  TripleStore::Image image;
  ASSERT_TRUE(image.AddString("s"));
  ASSERT_TRUE(image.AddString("p"));
  ASSERT_TRUE(image.AddString(""));
  EXPECT_FALSE(image.AddString("p"));  // a repeated string
  EXPECT_EQ(image.Intern("p"), 1u);
  EXPECT_EQ(image.Intern("o"), 3u);
  using St = TripleStore::ImageStatement;
  EXPECT_TRUE(image.AddStatement(St{0, 1, 9, ObjectKind::kLiteral})
                  .IsParseError());
  EXPECT_TRUE(image.AddStatement(St{2, 1, 3, ObjectKind::kLiteral})
                  .IsInvalidArgument());
  ASSERT_TRUE(image.AddStatement(St{0, 1, 3, ObjectKind::kLiteral}).ok());
  ASSERT_TRUE(image.AddStatement(St{0, 1, 3, ObjectKind::kResource}).ok());
  Status repeat = image.AddStatement(St{0, 1, 3, ObjectKind::kLiteral});
  EXPECT_TRUE(repeat.IsAlreadyExists());
  EXPECT_NE(repeat.ToString().find("duplicate statement (s, p, \"o\")"),
            std::string::npos)
      << repeat;

  TripleStore store;
  ASSERT_TRUE(store.AddLiteral("old", "p", "gone").ok());
  ASSERT_TRUE(store.InstallImage(image).ok());
  EXPECT_EQ(store.size(), 2u);
  EXPECT_TRUE(store.Contains({"s", "p", Object::Literal("o")}));
  EXPECT_TRUE(store.Contains({"s", "p", Object::Resource("o")}));
  EXPECT_FALSE(store.Contains({"old", "p", Object::Literal("gone")}));
  EXPECT_EQ(store.DistinctSubjects(), 1u);
  EXPECT_EQ(store.DistinctProperties(), 1u);
  EXPECT_EQ(store.DistinctObjects(), 1u);
}

}  // namespace
}  // namespace slim::trim
