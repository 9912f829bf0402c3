#include <gtest/gtest.h>

#include "obs/obs.h"
#include "slim/conformance.h"
#include "slimpad/slimpad_app.h"
#include "slimpad/slimpad_dmi.h"
#include "trim/persistence.h"
#include "util/rng.h"
#include "workload/icu.h"
#include "workload/session.h"

namespace slim::pad {
namespace {

TEST(CoordinateTest, RoundTrip) {
  Coordinate c{12.5, -3};
  auto back = Coordinate::Parse(c.ToString());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, c);
  EXPECT_FALSE(Coordinate::Parse("1").ok());
  EXPECT_FALSE(Coordinate::Parse("1,x").ok());
}

class SlimPadDmiTest : public ::testing::Test {
 protected:
  trim::TripleStore store_;
  SlimPadDmi dmi_{&store_};
};

TEST_F(SlimPadDmiTest, CreateEntitiesMirrorsTriples) {
  const SlimPad* pad = *dmi_.Create_SlimPad("Rounds");
  EXPECT_EQ(pad->pad_name(), "Rounds");
  // The triple layer holds the same fact.
  EXPECT_EQ(store_.GetOne(pad->id(), "padName")->text, "Rounds");

  const Bundle* bundle = *dmi_.Create_Bundle("John", {10, 20}, 300, 200);
  EXPECT_EQ(store_.GetOne(bundle->id(), "bundleName")->text, "John");
  EXPECT_EQ(store_.GetOne(bundle->id(), "bundlePos")->text, "10,20");
  EXPECT_EQ(store_.GetOne(bundle->id(), "bundleWidth")->text, "300");

  const Scrap* scrap = *dmi_.Create_Scrap("Na 140", {1, 2});
  EXPECT_EQ(store_.GetOne(scrap->id(), "scrapName")->text, "Na 140");

  const MarkHandle* handle = *dmi_.Create_MarkHandle("mark7");
  EXPECT_EQ(handle->mark_id(), "mark7");
  EXPECT_EQ(store_.GetOne(handle->id(), "markId")->text, "mark7");
  EXPECT_TRUE(dmi_.Create_MarkHandle("").status().IsInvalidArgument());
}

TEST_F(SlimPadDmiTest, UpdatesKeepBothRepresentationsInSync) {
  const Bundle* b = *dmi_.Create_Bundle("Old", {0, 0}, 10, 10);
  ASSERT_TRUE(dmi_.Update_bundleName(b->id(), "New").ok());
  ASSERT_TRUE(dmi_.Update_bundlePos(b->id(), {5, 6}).ok());
  ASSERT_TRUE(dmi_.Update_bundleSize(b->id(), 42, 24).ok());
  EXPECT_EQ(b->name(), "New");
  EXPECT_EQ(b->pos(), (Coordinate{5, 6}));
  EXPECT_EQ(b->width(), 42);
  EXPECT_EQ(store_.GetOne(b->id(), "bundleName")->text, "New");
  EXPECT_EQ(store_.GetOne(b->id(), "bundlePos")->text, "5,6");
  EXPECT_EQ(store_.GetOne(b->id(), "bundleWidth")->text, "42");
  EXPECT_TRUE(dmi_.Update_bundleName("inst:404", "x").IsNotFound());
}

TEST_F(SlimPadDmiTest, StructureEditsAndInvariants) {
  const SlimPad* pad = *dmi_.Create_SlimPad("P");
  const Bundle* root = *dmi_.Create_Bundle("root", {0, 0}, 10, 10);
  const Bundle* child = *dmi_.Create_Bundle("child", {0, 0}, 5, 5);
  const Scrap* scrap = *dmi_.Create_Scrap("s", {1, 1});

  ASSERT_TRUE(dmi_.Update_rootBundle(pad->id(), root->id()).ok());
  EXPECT_EQ(pad->root_bundle(), root->id());
  ASSERT_TRUE(dmi_.AddNestedBundle(root->id(), child->id()).ok());
  EXPECT_EQ(child->parent(), root->id());
  // No double parenting.
  const Bundle* other = *dmi_.Create_Bundle("other", {0, 0}, 5, 5);
  ASSERT_TRUE(dmi_.AddNestedBundle(root->id(), other->id()).ok());
  EXPECT_TRUE(
      dmi_.AddNestedBundle(other->id(), child->id()).IsFailedPrecondition());
  // No cycles.
  EXPECT_TRUE(
      dmi_.AddNestedBundle(child->id(), root->id()).IsInvalidArgument());

  ASSERT_TRUE(dmi_.AddScrapToBundle(child->id(), scrap->id()).ok());
  // A scrap lives in one bundle only.
  EXPECT_TRUE(dmi_.AddScrapToBundle(root->id(), scrap->id())
                  .IsFailedPrecondition());
  ASSERT_TRUE(dmi_.RemoveScrapFromBundle(child->id(), scrap->id()).ok());
  ASSERT_TRUE(dmi_.AddScrapToBundle(root->id(), scrap->id()).ok());

  ASSERT_TRUE(dmi_.RemoveNestedBundle(root->id(), child->id()).ok());
  EXPECT_EQ(child->parent(), "");
  EXPECT_TRUE(
      dmi_.RemoveNestedBundle(root->id(), child->id()).IsFailedPrecondition());
}

TEST_F(SlimPadDmiTest, MarkHandlesAndExtensions) {
  const Scrap* scrap = *dmi_.Create_Scrap("med", {0, 0});
  const MarkHandle* handle = *dmi_.Create_MarkHandle("mark1");
  ASSERT_TRUE(dmi_.SetScrapMark(scrap->id(), handle->id()).ok());
  EXPECT_EQ(scrap->mark_handles(), (std::vector<std::string>{handle->id()}));

  // §6 extensions.
  ASSERT_TRUE(dmi_.AddScrapAnnotation(scrap->id(), "verify dose").ok());
  ASSERT_TRUE(dmi_.AddScrapAnnotation(scrap->id(), "check renal fn").ok());
  EXPECT_EQ(scrap->annotations().size(), 2u);
  const Scrap* other = *dmi_.Create_Scrap("lab", {0, 0});
  ASSERT_TRUE(dmi_.LinkScraps(scrap->id(), other->id()).ok());
  EXPECT_EQ(scrap->linked_scraps(), (std::vector<std::string>{other->id()}));
  ASSERT_TRUE(dmi_.UnlinkScraps(scrap->id(), other->id()).ok());
  EXPECT_TRUE(scrap->linked_scraps().empty());
}

TEST_F(SlimPadDmiTest, DeleteBundleCascades) {
  const SlimPad* pad = *dmi_.Create_SlimPad("P");
  const Bundle* root = *dmi_.Create_Bundle("root", {0, 0}, 10, 10);
  ASSERT_TRUE(dmi_.Update_rootBundle(pad->id(), root->id()).ok());
  const Bundle* nested = *dmi_.Create_Bundle("nested", {0, 0}, 5, 5);
  ASSERT_TRUE(dmi_.AddNestedBundle(root->id(), nested->id()).ok());
  const Scrap* scrap = *dmi_.Create_Scrap("s", {0, 0});
  ASSERT_TRUE(dmi_.AddScrapToBundle(nested->id(), scrap->id()).ok());
  const MarkHandle* handle = *dmi_.Create_MarkHandle("m1");
  ASSERT_TRUE(dmi_.SetScrapMark(scrap->id(), handle->id()).ok());

  std::string root_id = root->id(), nested_id = nested->id(),
              scrap_id = scrap->id(), handle_id = handle->id();
  ASSERT_TRUE(dmi_.Delete_Bundle(root_id).ok());
  EXPECT_TRUE(dmi_.GetBundle(root_id).status().IsNotFound());
  EXPECT_TRUE(dmi_.GetBundle(nested_id).status().IsNotFound());
  EXPECT_TRUE(dmi_.GetScrap(scrap_id).status().IsNotFound());
  EXPECT_TRUE(dmi_.GetMarkHandle(handle_id).status().IsNotFound());
  EXPECT_EQ(pad->root_bundle(), "");
  // Triples for the cascade are gone too.
  EXPECT_TRUE(store_.Select(trim::TriplePattern::BySubject(nested_id)).empty());
  EXPECT_TRUE(store_.Select(trim::TriplePattern::BySubject(scrap_id)).empty());
}

TEST_F(SlimPadDmiTest, DeleteScrapDropsHandlesAndBackLinks) {
  const Bundle* b = *dmi_.Create_Bundle("b", {0, 0}, 1, 1);
  const Scrap* s1 = *dmi_.Create_Scrap("s1", {0, 0});
  const Scrap* s2 = *dmi_.Create_Scrap("s2", {0, 0});
  ASSERT_TRUE(dmi_.AddScrapToBundle(b->id(), s1->id()).ok());
  ASSERT_TRUE(dmi_.AddScrapToBundle(b->id(), s2->id()).ok());
  ASSERT_TRUE(dmi_.LinkScraps(s2->id(), s1->id()).ok());
  std::string s1_id = s1->id();
  ASSERT_TRUE(dmi_.Delete_Scrap(s1_id).ok());
  EXPECT_EQ(b->scraps(), (std::vector<std::string>{s2->id()}));
  EXPECT_TRUE(s2->linked_scraps().empty());
}

TEST_F(SlimPadDmiTest, PadDataConformsToBundleScrapSchema) {
  const SlimPad* pad = *dmi_.Create_SlimPad("Rounds");
  const Bundle* root = *dmi_.Create_Bundle("root", {0, 0}, 800, 600);
  ASSERT_TRUE(dmi_.Update_rootBundle(pad->id(), root->id()).ok());
  const Scrap* s = *dmi_.Create_Scrap("scrap", {1, 1});
  ASSERT_TRUE(dmi_.AddScrapToBundle(root->id(), s->id()).ok());
  const MarkHandle* h = *dmi_.Create_MarkHandle("mark1");
  ASSERT_TRUE(dmi_.SetScrapMark(s->id(), h->id()).ok());

  store::ConformanceReport report =
      store::CheckConformance(store_, dmi_.schema(), dmi_.model());
  EXPECT_TRUE(report.conforms()) << report.ToString();
}

TEST_F(SlimPadDmiTest, SaveLoadRebuildsIdenticalPad) {
  std::string path = ::testing::TempDir() + "/pad_roundtrip.xml";
  const SlimPad* pad = *dmi_.Create_SlimPad("Rounds");
  const Bundle* root = *dmi_.Create_Bundle("John Smith", {20, 20}, 640, 160);
  ASSERT_TRUE(dmi_.Update_rootBundle(pad->id(), root->id()).ok());
  const Bundle* lytes = *dmi_.Create_Bundle("Electrolyte", {320, 10}, 280, 140);
  ASSERT_TRUE(dmi_.AddNestedBundle(root->id(), lytes->id()).ok());
  const Scrap* s = *dmi_.Create_Scrap("Na 141", {20, 40});
  ASSERT_TRUE(dmi_.AddScrapToBundle(lytes->id(), s->id()).ok());
  const MarkHandle* h = *dmi_.Create_MarkHandle("mark3");
  ASSERT_TRUE(dmi_.SetScrapMark(s->id(), h->id()).ok());
  ASSERT_TRUE(dmi_.AddScrapAnnotation(s->id(), "trending up").ok());
  ASSERT_TRUE(dmi_.save(path).ok());

  trim::TripleStore store2;
  SlimPadDmi dmi2(&store2);
  ASSERT_TRUE(dmi2.load(path).ok());
  const SlimPad* pad2 = *dmi2.GetPad(pad->id());
  EXPECT_EQ(pad2->pad_name(), "Rounds");
  EXPECT_EQ(pad2->root_bundle(), root->id());
  const Bundle* root2 = *dmi2.GetBundle(root->id());
  EXPECT_EQ(root2->name(), "John Smith");
  EXPECT_EQ(root2->pos(), (Coordinate{20, 20}));
  EXPECT_EQ(root2->nested_bundles(), (std::vector<std::string>{lytes->id()}));
  const Bundle* lytes2 = *dmi2.GetBundle(lytes->id());
  EXPECT_EQ(lytes2->parent(), root->id());
  EXPECT_EQ(lytes2->scraps(), (std::vector<std::string>{s->id()}));
  const Scrap* s2 = *dmi2.GetScrap(s->id());
  EXPECT_EQ(s2->name(), "Na 141");
  EXPECT_EQ(s2->mark_handles(), (std::vector<std::string>{h->id()}));
  EXPECT_EQ(s2->annotations(), (std::vector<std::string>{"trending up"}));
  const MarkHandle* h2 = *dmi2.GetMarkHandle(h->id());
  EXPECT_EQ(h2->mark_id(), "mark3");
  // Ids minted after a load don't collide.
  const Scrap* fresh = *dmi2.Create_Scrap("new", {0, 0});
  EXPECT_TRUE(dmi2.GetScrap(fresh->id()).ok());
  EXPECT_NE(fresh->id(), s->id());
  std::remove(path.c_str());
}

// Every native object of `b` equals the one with its id in `a`, field by
// field, and both hold the same ids in the same order.
void ExpectSameObjects(const SlimPadDmi& a, const SlimPadDmi& b) {
  auto ids = [](const auto& objects) {
    std::vector<std::string> out;
    for (const auto* o : objects) out.push_back(o->id());
    return out;
  };
  ASSERT_EQ(ids(a.Pads()), ids(b.Pads()));
  ASSERT_EQ(ids(a.Bundles()), ids(b.Bundles()));
  ASSERT_EQ(ids(a.Scraps()), ids(b.Scraps()));
  for (const SlimPad* x : a.Pads()) {
    const SlimPad* y = *b.GetPad(x->id());
    EXPECT_EQ(x->pad_name(), y->pad_name());
    EXPECT_EQ(x->root_bundle(), y->root_bundle());
  }
  for (const Bundle* x : a.Bundles()) {
    const Bundle* y = *b.GetBundle(x->id());
    EXPECT_EQ(x->name(), y->name());
    EXPECT_EQ(x->pos(), y->pos());
    EXPECT_EQ(x->width(), y->width());
    EXPECT_EQ(x->height(), y->height());
    EXPECT_EQ(x->parent(), y->parent());
    EXPECT_EQ(x->scraps(), y->scraps());
    EXPECT_EQ(x->nested_bundles(), y->nested_bundles());
  }
  for (const Scrap* x : a.Scraps()) {
    const Scrap* y = *b.GetScrap(x->id());
    EXPECT_EQ(x->name(), y->name());
    EXPECT_EQ(x->pos(), y->pos());
    EXPECT_EQ(x->mark_handles(), y->mark_handles());
    EXPECT_EQ(x->annotations(), y->annotations());
    EXPECT_EQ(x->linked_scraps(), y->linked_scraps());
    for (const std::string& h : x->mark_handles()) {
      EXPECT_EQ((*a.GetMarkHandle(h))->mark_id(),
                (*b.GetMarkHandle(h))->mark_id());
    }
  }
  EXPECT_EQ(a.NativeObjectCount(), b.NativeObjectCount());
}

TEST_F(SlimPadDmiTest, ReloadedDmiEqualsTheSavingOneObjectForObject) {
  const SlimPad* pad = *dmi_.Create_SlimPad("Rounds");
  const Bundle* root = *dmi_.Create_Bundle("Census", {0, 0}, 800, 600);
  ASSERT_TRUE(dmi_.Update_rootBundle(pad->id(), root->id()).ok());
  std::vector<std::string> scraps;
  for (int b = 0; b < 4; ++b) {
    const Bundle* bed = *dmi_.Create_Bundle("Bed " + std::to_string(b),
                                            {10.5 * b, 20}, 300 + b, 200);
    ASSERT_TRUE(dmi_.AddNestedBundle(root->id(), bed->id()).ok());
    const Bundle* lytes =
        *dmi_.Create_Bundle("Electrolyte", {5, 7.25}, 120, 80 + b);
    ASSERT_TRUE(dmi_.AddNestedBundle(bed->id(), lytes->id()).ok());
    for (int i = 0; i < 5; ++i) {
      const Scrap* scrap =
          *dmi_.Create_Scrap("K " + std::to_string(4 + i), {1.5 * i, 2});
      // Scraps go into the two bundles alternately, so content order is
      // not creation order.
      ASSERT_TRUE(
          dmi_.AddScrapToBundle(i % 2 ? bed->id() : lytes->id(), scrap->id())
              .ok());
      const MarkHandle* handle =
          *dmi_.Create_MarkHandle("mark" + std::to_string(b * 5 + i));
      ASSERT_TRUE(dmi_.SetScrapMark(scrap->id(), handle->id()).ok());
      for (int n = 0; n < i % 3; ++n) {
        ASSERT_TRUE(
            dmi_.AddScrapAnnotation(scrap->id(), "note " + std::to_string(n))
                .ok());
      }
      if (scraps.size() > 1) {
        ASSERT_TRUE(dmi_.LinkScraps(scrap->id(), scraps.back()).ok());
        ASSERT_TRUE(dmi_.LinkScraps(scrap->id(), scraps.front()).ok());
      }
      scraps.push_back(scrap->id());
    }
    ASSERT_TRUE(dmi_.Update_bundleName(bed->id(), "Bed " + std::to_string(b) +
                                                      " (moved)")
                    .ok());
  }
  ASSERT_TRUE(dmi_.Update_scrapPos(scraps[3], {99, 98}).ok());
  ASSERT_TRUE(dmi_.Update_bundleSize(root->id(), 1024, 768).ok());

  std::string path = ::testing::TempDir() + "/pad_objects.xml";
  ASSERT_TRUE(dmi_.save(path).ok());
  trim::TripleStore store2;
  SlimPadDmi dmi2(&store2);
  ASSERT_TRUE(dmi2.load(path).ok());
  ExpectSameObjects(dmi_, dmi2);
  // Rebuilding in place gives the same objects too.
  ASSERT_TRUE(dmi_.RebuildFromTriples().ok());
  ExpectSameObjects(dmi2, dmi_);
  std::remove(path.c_str());
}

TEST_F(SlimPadDmiTest, BundleMissingWidthFailsRebuildWithNotFound) {
  // A rebuild drops the native objects, so keep the id, not the bundle.
  const std::string id =
      (*dmi_.Create_Bundle("John", {10, 20}, 300, 200))->id();
  ASSERT_TRUE(store_
                  .Remove(trim::Triple{id, "bundleWidth",
                                       trim::Object::Literal("300")})
                  .ok());
  const std::string expected =
      "instance '" + id + "' has no literal value for 'bundleWidth'";
  Status st = dmi_.RebuildFromTriples();
  EXPECT_TRUE(st.IsNotFound()) << st;
  EXPECT_EQ(st.message(), expected);
  // A resource where the attribute's first value should be is no value
  // either, whatever follows it.
  ASSERT_TRUE(store_.AddResource(id, "bundleWidth", "inst:1").ok());
  ASSERT_TRUE(store_.AddLiteral(id, "bundleWidth", "300").ok());
  st = dmi_.RebuildFromTriples();
  EXPECT_TRUE(st.IsNotFound()) << st;
  EXPECT_EQ(st.message(), expected);
}

// Ids minted after a load or a rebuild continue past every loaded
// instance: none names an instance the saved pad already has.
TEST_F(SlimPadDmiTest, IdsMintedAfterALoadContinuePastTheLoadedOnes) {
  const SlimPad* pad = *dmi_.Create_SlimPad("Rounds");
  const Bundle* root = *dmi_.Create_Bundle("root", {0, 0}, 800, 600);
  ASSERT_TRUE(dmi_.Update_rootBundle(pad->id(), root->id()).ok());
  const Scrap* s = *dmi_.Create_Scrap("K 4.9", {1, 2});
  ASSERT_TRUE(dmi_.AddScrapToBundle(root->id(), s->id()).ok());
  std::string path = ::testing::TempDir() + "/pad_ids.pad";
  ASSERT_TRUE(dmi_.save(path).ok());
  auto is_new = [this](const std::string& id) {
    return store_.Select(trim::TriplePattern::BySubject(id)).empty();
  };

  trim::TripleStore store2;
  SlimPadDmi dmi2(&store2);
  ASSERT_TRUE(dmi2.load(path).ok());
  const std::string loaded_scrap = (*dmi2.Create_Scrap("new", {0, 0}))->id();
  EXPECT_TRUE(is_new(loaded_scrap)) << loaded_scrap;

  trim::TripleStore store3;
  ASSERT_TRUE(trim::StoreFromXml(trim::StoreToXml(store_), &store3).ok());
  SlimPadDmi dmi3(&store3);
  ASSERT_TRUE(dmi3.RebuildFromTriples().ok());
  const std::string rebuilt_bundle =
      (*dmi3.Create_Bundle("new", {0, 0}, 1, 1))->id();
  EXPECT_TRUE(is_new(rebuilt_bundle)) << rebuilt_bundle;
  EXPECT_EQ(store3.Select(trim::TriplePattern::BySubject(rebuilt_bundle))
                .size(),
            5u);  // one type and four attributes
  std::remove(path.c_str());
}

// The store is a set: the same annotation twice is rejected, the scrap
// keeps one copy, and the saved pad loads back.
TEST_F(SlimPadDmiTest, RepeatedAnnotationIsRejectedAndThePadReloads) {
  const Scrap* s = *dmi_.Create_Scrap("K 5.9", {1, 2});
  ASSERT_TRUE(dmi_.AddScrapAnnotation(s->id(), "recheck K").ok());
  EXPECT_TRUE(dmi_.AddScrapAnnotation(s->id(), "recheck K").IsAlreadyExists());
  ASSERT_TRUE(dmi_.AddScrapAnnotation(s->id(), "recheck Na").ok());
  EXPECT_EQ(s->annotations(),
            (std::vector<std::string>{"recheck K", "recheck Na"}));

  std::string path = ::testing::TempDir() + "/pad_annotations.pad";
  ASSERT_TRUE(dmi_.save(path).ok());
  trim::TripleStore store2;
  SlimPadDmi dmi2(&store2);
  Status st = dmi2.load(path);
  ASSERT_TRUE(st.ok()) << st;
  ExpectSameObjects(dmi_, dmi2);
  std::remove(path.c_str());
}

// A load or a rebuild that fails keeps the objects it would have replaced,
// the store and the next instance id.
TEST_F(SlimPadDmiTest, FailedLoadAndRebuildChangeNothing) {
  const SlimPad* pad = *dmi_.Create_SlimPad("Rounds");
  const Bundle* root = *dmi_.Create_Bundle("root", {0, 0}, 800, 600);
  ASSERT_TRUE(dmi_.Update_rootBundle(pad->id(), root->id()).ok());

  // A pad file with more instances than dmi_, one of them unbuildable.
  std::string path = ::testing::TempDir() + "/pad_unbuildable.pad";
  {
    trim::TripleStore other_store;
    SlimPadDmi other(&other_store);
    for (int i = 0; i < 8; ++i) (void)*other.Create_Scrap("s", {0, 0});
    const std::string broken =
        (*other.Create_Bundle("broken", {0, 0}, 30, 20))->id();
    ASSERT_EQ(other_store.RemoveMatching(trim::TriplePattern::BySubjectProperty(
                  broken, "bundleWidth")),
              1u);
    ASSERT_TRUE(other.save(path).ok());
  }
  const std::string triples = trim::StoreToXml(store_);
  const std::vector<const Bundle*> bundles = dmi_.Bundles();
  Status st = dmi_.load(path);
  EXPECT_TRUE(st.IsNotFound()) << st;
  EXPECT_EQ(trim::StoreToXml(store_), triples);
  EXPECT_EQ(dmi_.Pads(), (std::vector<const SlimPad*>{pad}));
  EXPECT_EQ(dmi_.Bundles(), bundles);
  EXPECT_EQ(pad->root_bundle(), root->id());

  ASSERT_EQ(store_.RemoveMatching(trim::TriplePattern::BySubjectProperty(
                root->id(), "bundlePos")),
            1u);
  st = dmi_.RebuildFromTriples();
  EXPECT_TRUE(st.IsNotFound()) << st;
  EXPECT_EQ(dmi_.Bundles(), bundles);
  EXPECT_EQ(root->pos(), (Coordinate{0, 0}));
  // The failed load reserved none of the file's ids.
  EXPECT_EQ((*dmi_.Create_Scrap("next", {0, 0}))->id(), "inst:3");
  std::remove(path.c_str());
}

// Property test: random pads survive the triple round trip bit-exactly.
class PadRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PadRoundTrip, RandomPadSurvivesTripleRebuild) {
  Rng rng(GetParam());
  trim::TripleStore store;
  SlimPadDmi dmi(&store);

  const SlimPad* pad = *dmi.Create_SlimPad("pad" + std::to_string(GetParam()));
  const Bundle* root = *dmi.Create_Bundle("root", {0, 0}, 800, 600);
  ASSERT_TRUE(dmi.Update_rootBundle(pad->id(), root->id()).ok());

  std::vector<std::string> bundles{root->id()};
  std::vector<std::string> scraps;
  int ops = 30 + static_cast<int>(rng.Below(40));
  for (int i = 0; i < ops; ++i) {
    switch (rng.Below(4)) {
      case 0: {
        const Bundle* b = *dmi.Create_Bundle(
            rng.Word(6), {rng.NextDouble() * 500, rng.NextDouble() * 500},
            rng.NextDouble() * 300 + 1, rng.NextDouble() * 300 + 1);
        ASSERT_TRUE(dmi.AddNestedBundle(rng.Pick(bundles), b->id()).ok());
        bundles.push_back(b->id());
        break;
      }
      case 1: {
        const Scrap* s = *dmi.Create_Scrap(
            rng.Word(8), {rng.NextDouble() * 100, rng.NextDouble() * 100});
        ASSERT_TRUE(dmi.AddScrapToBundle(rng.Pick(bundles), s->id()).ok());
        scraps.push_back(s->id());
        break;
      }
      case 2: {
        if (scraps.empty()) break;
        const MarkHandle* h =
            *dmi.Create_MarkHandle("mark" + std::to_string(i));
        ASSERT_TRUE(dmi.SetScrapMark(rng.Pick(scraps), h->id()).ok());
        break;
      }
      case 3: {
        if (scraps.empty()) break;
        ASSERT_TRUE(
            dmi.AddScrapAnnotation(rng.Pick(scraps), rng.Word(12)).ok());
        break;
      }
    }
  }

  // Round trip through the triple store's XML form.
  std::string xml_text = trim::StoreToXml(store);
  trim::TripleStore store2;
  ASSERT_TRUE(trim::StoreFromXml(xml_text, &store2).ok());
  SlimPadDmi dmi2(&store2);
  ASSERT_TRUE(dmi2.RebuildFromTriples().ok());

  // Every bundle/scrap matches field by field.
  ASSERT_EQ(dmi2.Bundles().size(), bundles.size());
  for (const std::string& id : bundles) {
    const Bundle* a = *dmi.GetBundle(id);
    const Bundle* b = *dmi2.GetBundle(id);
    EXPECT_EQ(a->name(), b->name());
    EXPECT_EQ(a->pos(), b->pos());
    EXPECT_EQ(a->width(), b->width());
    EXPECT_EQ(a->height(), b->height());
    EXPECT_EQ(a->parent(), b->parent());
    EXPECT_EQ(a->scraps(), b->scraps());
    EXPECT_EQ(a->nested_bundles(), b->nested_bundles());
  }
  for (const std::string& id : scraps) {
    const Scrap* a = *dmi.GetScrap(id);
    const Scrap* b = *dmi2.GetScrap(id);
    EXPECT_EQ(a->name(), b->name());
    EXPECT_EQ(a->pos(), b->pos());
    EXPECT_EQ(a->mark_handles(), b->mark_handles());
    EXPECT_EQ(a->annotations(), b->annotations());
  }
  // And the rebuilt store re-serializes identically.
  EXPECT_EQ(trim::StoreToXml(store2), xml_text);
}

// Random pads with every kind of edit load back object for object, the
// same through LoadPad, load and RebuildFromTriples.
TEST_P(PadRoundTrip, RandomPadReloadsObjectForObject) {
  Rng rng(GetParam());
  mark::MarkManager marks;
  SlimPadApp app(&marks);
  ASSERT_TRUE(app.NewPad("pad" + std::to_string(GetParam())).ok());
  SlimPadDmi& dmi = app.dmi();
  std::vector<std::string> bundles{*app.RootBundle()};
  std::vector<std::string> scraps;
  auto point = [&rng] {
    return Coordinate{rng.NextDouble() * 500, rng.NextDouble() * 500};
  };
  const int ops = 60 + static_cast<int>(rng.Below(60));
  for (int i = 0; i < ops; ++i) {
    const std::string name = rng.Word(6);
    switch (rng.Below(10)) {
      case 0: {
        auto b = app.CreateBundle(rng.Pick(bundles), name, point(),
                                  rng.NextDouble() * 300 + 1, 120.5);
        ASSERT_TRUE(b.ok()) << b.status();
        bundles.push_back(*b);
        break;
      }
      case 1: {
        auto s = app.AddGraphicScrap(rng.Pick(bundles), name, point());
        ASSERT_TRUE(s.ok()) << s.status();
        scraps.push_back(*s);
        break;
      }
      case 2: {
        if (scraps.empty()) break;
        const MarkHandle* h =
            *dmi.Create_MarkHandle("mark" + std::to_string(i));
        ASSERT_TRUE(dmi.SetScrapMark(rng.Pick(scraps), h->id()).ok());
        break;
      }
      case 3: {
        if (scraps.empty()) break;
        const std::string& s = rng.Pick(scraps);
        ASSERT_TRUE(dmi.AddScrapAnnotation(s, "note " + name).ok());
        EXPECT_TRUE(
            dmi.AddScrapAnnotation(s, "note " + name).IsAlreadyExists());
        break;
      }
      case 4: {
        if (scraps.size() < 2) break;
        const std::string& from = rng.Pick(scraps);
        const std::string& to = rng.Pick(scraps);
        Status st = dmi.LinkScraps(from, to);
        ASSERT_TRUE(st.ok() || st.IsAlreadyExists()) << st;
        if (rng.Below(4) == 0) {
          ASSERT_TRUE(dmi.UnlinkScraps(from, to).ok());
        }
        break;
      }
      case 5: {
        if (scraps.empty()) break;
        ASSERT_TRUE(dmi.Update_scrapName(rng.Pick(scraps), name).ok());
        ASSERT_TRUE(dmi.Update_scrapPos(rng.Pick(scraps), point()).ok());
        break;
      }
      case 6: {
        const std::string& b = rng.Pick(bundles);
        ASSERT_TRUE(dmi.Update_bundleName(b, name).ok());
        ASSERT_TRUE(dmi.Update_bundlePos(b, point()).ok());
        ASSERT_TRUE(dmi.Update_bundleSize(b, rng.NextDouble() * 90, 7).ok());
        break;
      }
      case 7: {
        if (scraps.empty()) break;
        const size_t at = rng.Below(scraps.size());
        ASSERT_TRUE(dmi.Delete_Scrap(scraps[at]).ok());
        scraps.erase(scraps.begin() + static_cast<ptrdiff_t>(at));
        break;
      }
      case 8: {
        if (bundles.size() < 2) break;
        // Deleting a bundle takes its nested bundles and scraps along.
        const size_t at = 1 + rng.Below(bundles.size() - 1);
        ASSERT_TRUE(dmi.Delete_Bundle(bundles[at]).ok());
        auto gone = [&dmi](const auto& get) { return !get.ok(); };
        std::erase_if(bundles, [&](const std::string& id) {
          return gone(dmi.GetBundle(id));
        });
        std::erase_if(scraps, [&](const std::string& id) {
          return gone(dmi.GetScrap(id));
        });
        break;
      }
      case 9:
        ASSERT_TRUE(dmi.Update_padName(app.pad()->id(), name).ok());
        break;
    }
  }

  const std::string path = ::testing::TempDir() + "/random_pad_" +
                           std::to_string(GetParam()) + ".pad";
  ASSERT_TRUE(app.SavePad(path).ok());
  mark::MarkManager marks2;
  SlimPadApp app2(&marks2);
  Status st = app2.LoadPad(path);
  ASSERT_TRUE(st.ok()) << st;
  ExpectSameObjects(dmi, app2.dmi());
  EXPECT_EQ(app2.pad()->id(), app.pad()->id());

  trim::TripleStore store3;
  SlimPadDmi dmi3(&store3);
  ASSERT_TRUE(dmi3.load(path).ok());
  ExpectSameObjects(dmi, dmi3);

  trim::TripleStore store4;
  ASSERT_TRUE(trim::StoreFromXml(trim::StoreToXml(app.store()), &store4).ok());
  SlimPadDmi dmi4(&store4);
  ASSERT_TRUE(dmi4.RebuildFromTriples().ok());
  ExpectSameObjects(dmi, dmi4);
  std::remove(path.c_str());
  std::remove((path + ".marks").c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PadRoundTrip,
                         ::testing::Values(1, 7, 42, 99, 1234, 777));

#if SLIM_OBS_ENABLED

/// Attaches a fresh ring buffer to the default tracer for one test.
class ScopedSpanCapture {
 public:
  ScopedSpanCapture() { obs::DefaultTracer().AddSink(&sink_); }
  ~ScopedSpanCapture() { obs::DefaultTracer().RemoveSink(&sink_); }
  obs::RingBufferSink& sink() { return sink_; }

 private:
  obs::RingBufferSink sink_;
};

TEST(SlimPadObsTest, OpenScrapEmitsNestedSpansAndGestureCounters) {
  workload::Session session;
  workload::IcuOptions options;
  options.patients = 1;
  ASSERT_TRUE(session.LoadIcuWorkload(GenerateIcuWorkload(options)).ok());
  ASSERT_TRUE(session.BuildRoundsPad(1).ok());
  SlimPadApp& app = session.app();
  app.set_viewing_style(ViewingStyle::kIndependent);

  // One marked scrap to open.
  std::vector<const Scrap*> scraps = app.dmi().Scraps();
  const Scrap* marked = nullptr;
  for (const Scrap* s : scraps) {
    if (!s->mark_handles().empty()) marked = s;
  }
  ASSERT_NE(marked, nullptr);

  ScopedSpanCapture capture;
  uint64_t opened_before =
      app.metrics().CounterValue("slimpad.open_scrap.independent");
  ASSERT_TRUE(app.OpenScrap(marked->id()).ok());

  // Independent viewing extracts content, so the gesture span nests a
  // mark.extract child; delivery is in end order (child first, parent
  // last) with the parent/child ids linked.
  std::vector<obs::SpanRecord> spans = capture.sink().Spans();
  ASSERT_GE(spans.size(), 2u);
  const obs::SpanRecord& parent = spans.back();
  EXPECT_EQ(parent.name, "slimpad.open_scrap");
  EXPECT_EQ(parent.depth, 0);
  bool found_child = false;
  for (const obs::SpanRecord& span : spans) {
    if (span.name == "mark.extract" && span.parent_id == parent.id) {
      EXPECT_EQ(span.depth, 1);
      EXPECT_LE(span.duration_ns, parent.duration_ns);
      found_child = true;
    }
  }
  EXPECT_TRUE(found_child);

  // The style tag names the viewing style that served the gesture.
  bool found_style_tag = false;
  for (const auto& [key, value] : parent.tags) {
    if (key == "style") {
      EXPECT_EQ(value, "independent");
      found_style_tag = true;
    }
  }
  EXPECT_TRUE(found_style_tag);

  // The per-app gesture counter moved too.
  EXPECT_EQ(app.metrics().CounterValue("slimpad.open_scrap.independent"),
            opened_before + 1);
}

TEST(SlimPadObsTest, SimultaneousOpenNestsMarkResolve) {
  workload::Session session;
  workload::IcuOptions options;
  options.patients = 1;
  ASSERT_TRUE(session.LoadIcuWorkload(GenerateIcuWorkload(options)).ok());
  ASSERT_TRUE(session.BuildRoundsPad(1).ok());
  SlimPadApp& app = session.app();
  app.set_viewing_style(ViewingStyle::kSimultaneous);

  const Scrap* marked = nullptr;
  for (const Scrap* s : app.dmi().Scraps()) {
    if (!s->mark_handles().empty()) marked = s;
  }
  ASSERT_NE(marked, nullptr);

  ScopedSpanCapture capture;
  ASSERT_TRUE(app.OpenScrap(marked->id()).ok());

  std::vector<obs::SpanRecord> spans = capture.sink().Spans();
  ASSERT_GE(spans.size(), 2u);
  EXPECT_EQ(spans.back().name, "slimpad.open_scrap");
  bool found_resolve = false;
  for (const obs::SpanRecord& span : spans) {
    if (span.name == "mark.resolve" && span.parent_id == spans.back().id) {
      found_resolve = true;
    }
  }
  EXPECT_TRUE(found_resolve);
}

#endif  // SLIM_OBS_ENABLED

}  // namespace
}  // namespace slim::pad
