// Tests for store introspection (trim/store_stats.h): ComputeStats, the
// predicate-cardinality histogram, the text/JSON
// renderings, and PublishStoreStats refreshing the slim.store.* gauge
// family. Everything here is data-path math, so it must pass under both
// SLIM_ENABLE_OBS settings.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "trim/store_stats.h"
#include "trim/triple_store.h"

namespace slim::trim {
namespace {

// Subject "a" carries three triples, predicate "p" has fanout 3, "q"
// fanout 1; objects are all distinct.
void Populate(TripleStore* store) {
  ASSERT_TRUE(store->AddLiteral("a", "p", "x").ok());
  ASSERT_TRUE(store->AddLiteral("a", "p", "y").ok());
  ASSERT_TRUE(store->AddResource("a", "q", "b").ok());
  ASSERT_TRUE(store->AddLiteral("b", "p", "z").ok());
}

TEST(StoreStatsTest, HashBackendCounts) {
  TripleStore store;
  Populate(&store);
  StoreStats stats = ComputeStats(store);

  EXPECT_EQ(stats.backend, "hash");
  EXPECT_EQ(stats.live_triples, 4u);
  EXPECT_EQ(stats.tombstoned, 0u);
  EXPECT_EQ(stats.subject_keys, 2u);    // a, b
  EXPECT_EQ(stats.property_keys, 2u);   // p, q
  EXPECT_EQ(stats.object_keys, 4u);     // x, y, b, z
  EXPECT_EQ(stats.subject_postings, 4u);
  EXPECT_EQ(stats.property_postings, 4u);
  EXPECT_EQ(stats.object_postings, 4u);

  // Fanouts: q -> 1 (bucket 0: n == 1), p -> 3 (bucket 2: 2 < n <= 4).
  ASSERT_EQ(stats.predicate_cardinality.size(), 3u);
  EXPECT_EQ(stats.predicate_cardinality[0], 1u);
  EXPECT_EQ(stats.predicate_cardinality[1], 0u);
  EXPECT_EQ(stats.predicate_cardinality[2], 1u);
  EXPECT_EQ(stats.predicate_max_fanout, 3u);

  // The key table holds each distinct string once: a, p, x, y, q, b, z.
  EXPECT_EQ(stats.interned_strings, 7u);
  EXPECT_EQ(stats.interned_bytes, 7u);
  EXPECT_EQ(stats.approximate_bytes, store.ApproximateBytes());
  EXPECT_GT(stats.approximate_bytes, 0u);
}

TEST(StoreStatsTest, HashBackendTracksTombstones) {
  TripleStore store;
  Populate(&store);
  ASSERT_TRUE(store.Remove({"a", "q", Object::Resource("b")}).ok());

  StoreStats stats = ComputeStats(store);
  EXPECT_EQ(stats.live_triples, 3u);
  EXPECT_EQ(stats.tombstoned, 1u);
  // The removed triple was predicate q's only posting, so the key is gone.
  EXPECT_EQ(stats.property_keys, 1u);
  EXPECT_EQ(stats.property_postings, 3u);
  EXPECT_EQ(stats.predicate_max_fanout, 3u);
  ASSERT_EQ(stats.predicate_cardinality.size(), 3u);
  EXPECT_EQ(stats.predicate_cardinality[0], 0u);  // no fanout-1 predicate left
}

// Sequential ids differ only in their last bytes; the index buckets must
// still spread them (16,384 buckets, so a fair hash keeps every chain of
// 8,000 keys short).
TEST(StoreStatsTest, SequentialSubjectsSpreadOverBuckets) {
  TripleStore store;
  for (int i = 0; i < 8000; ++i) {
    ASSERT_TRUE(store.AddLiteral("inst:" + std::to_string(i), "p", "v").ok());
  }
  StoreStats stats = ComputeStats(store);
  EXPECT_EQ(stats.subject_keys, 8000u);
  EXPECT_GE(stats.longest_chain, 1u);
  EXPECT_LE(stats.longest_chain, 8u);
  EXPECT_NE(stats.ToText().find("longest index chain"), std::string::npos);
  EXPECT_NE(stats.ToJson().find("\"longest_chain\":"), std::string::npos);
}

TEST(StoreStatsTest, TextAndJsonRenderings) {
  TripleStore store;
  Populate(&store);
  StoreStats stats = ComputeStats(store);

  std::string text = stats.ToText();
  EXPECT_NE(text.find("store backend"), std::string::npos);
  EXPECT_NE(text.find(": hash"), std::string::npos);
  EXPECT_NE(text.find("2 keys / 4 postings"), std::string::npos);
  EXPECT_NE(text.find("max 3"), std::string::npos);
  EXPECT_EQ(text.find("interned strings"), std::string::npos);

  std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"backend\":\"hash\""), std::string::npos);
  EXPECT_NE(json.find("\"live_triples\":4"), std::string::npos);
  EXPECT_NE(json.find("\"predicate_max_fanout\":3"), std::string::npos);
  EXPECT_NE(json.find("\"predicate_cardinality\":[1,0,1]"),
            std::string::npos);
}

TEST(StoreStatsTest, PublishRefreshesGaugeFamily) {
  TripleStore store;
  Populate(&store);
  StoreStats stats = ComputeStats(store);

  obs::MetricsRegistry registry;
  PublishStoreStats(stats, &registry);

  EXPECT_EQ(registry.CounterValue("slim.store.refresh.calls"), 1u);
  EXPECT_EQ(registry.GetGauge("slim.store.live_triples")->value(), 4);
  EXPECT_EQ(registry.GetGauge("slim.store.tombstones")->value(), 0);
  EXPECT_EQ(registry.GetGauge("slim.store.index.subject.keys")->value(), 2);
  EXPECT_EQ(registry.GetGauge("slim.store.index.property.keys")->value(), 2);
  EXPECT_EQ(registry.GetGauge("slim.store.index.object.keys")->value(), 4);
  EXPECT_EQ(registry.GetGauge("slim.store.index.subject.postings")->value(),
            4);
  EXPECT_EQ(registry.GetGauge("slim.store.index.property.postings")->value(),
            4);
  EXPECT_EQ(registry.GetGauge("slim.store.index.object.postings")->value(),
            4);
  EXPECT_EQ(registry.GetGauge("slim.store.predicate.max_fanout")->value(), 3);
  EXPECT_EQ(registry.GetGauge("slim.store.interned.strings")->value(), 7);
  EXPECT_EQ(registry.GetGauge("slim.store.approx_bytes")->value(),
            static_cast<int64_t>(stats.approximate_bytes));

  // Refreshes Set (not Add): republishing after a mutation replaces the
  // values and only the refresh counter accumulates.
  ASSERT_TRUE(store.Remove({"a", "q", Object::Resource("b")}).ok());
  PublishStoreStats(ComputeStats(store), &registry);
  EXPECT_EQ(registry.CounterValue("slim.store.refresh.calls"), 2u);
  EXPECT_EQ(registry.GetGauge("slim.store.live_triples")->value(), 3);
  EXPECT_EQ(registry.GetGauge("slim.store.tombstones")->value(), 1);
  EXPECT_EQ(registry.GetGauge("slim.store.index.property.keys")->value(), 1);
}

}  // namespace
}  // namespace slim::trim
