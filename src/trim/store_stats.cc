#include "trim/store_stats.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "obs/json.h"

namespace slim::trim {

namespace {

/// Bucket index for a predicate fanout n >= 1: the smallest i with
/// n <= 2^i (bucket 0 holds n == 1).
size_t FanoutBucket(uint64_t n) {
  size_t idx = 0;
  while ((uint64_t{1} << idx) < n) ++idx;
  return idx;
}

void RecordFanout(uint64_t n, StoreStats* stats) {
  if (n == 0) return;
  size_t bucket = FanoutBucket(n);
  if (stats->predicate_cardinality.size() <= bucket) {
    stats->predicate_cardinality.resize(bucket + 1, 0);
  }
  ++stats->predicate_cardinality[bucket];
  stats->predicate_max_fanout = std::max(stats->predicate_max_fanout, n);
}

void AppendU64(const char* key, uint64_t value, bool* first,
               std::string* out) {
  if (!*first) *out += ",";
  *first = false;
  *out += "\"";
  *out += key;
  *out += "\":";
  *out += std::to_string(value);
}

}  // namespace

std::string StoreStats::ToText() const {
  std::string out;
  auto line = [&out](const std::string& label, const std::string& value) {
    out += label;
    for (size_t i = label.size(); i < 26; ++i) out += ' ';
    out += ": " + value + "\n";
  };
  line("store backend", backend);
  line("live triples", std::to_string(live_triples));
  line("tombstoned slots", std::to_string(tombstoned));
  line("index subject", std::to_string(subject_keys) + " keys / " +
                            std::to_string(subject_postings) + " postings");
  line("index property", std::to_string(property_keys) + " keys / " +
                             std::to_string(property_postings) + " postings");
  line("index object", std::to_string(object_keys) + " keys / " +
                           std::to_string(object_postings) + " postings");
  line("longest index chain", std::to_string(longest_chain));
  std::string fanout = "max " + std::to_string(predicate_max_fanout);
  if (!predicate_cardinality.empty()) {
    fanout += ";";
    for (size_t i = 0; i < predicate_cardinality.size(); ++i) {
      fanout += " [<=" + std::to_string(uint64_t{1} << i) +
                "]=" + std::to_string(predicate_cardinality[i]);
    }
  }
  line("predicate fanout", fanout);
  line("epoch", std::to_string(epoch_current) + " (lag " +
                    std::to_string(epoch_lag) + ", limbo " +
                    std::to_string(epoch_limbo) + ", reclaimed " +
                    std::to_string(epoch_reclaimed) + "/" +
                    std::to_string(epoch_retired) + ")");
  line("approx resident bytes", std::to_string(approximate_bytes));
  return out;
}

std::string StoreStats::ToJson() const {
  std::string out = "{\"backend\":" + obs::JsonQuote(backend);
  bool first = false;
  AppendU64("live_triples", live_triples, &first, &out);
  AppendU64("tombstoned", tombstoned, &first, &out);
  AppendU64("subject_keys", subject_keys, &first, &out);
  AppendU64("property_keys", property_keys, &first, &out);
  AppendU64("object_keys", object_keys, &first, &out);
  AppendU64("subject_postings", subject_postings, &first, &out);
  AppendU64("property_postings", property_postings, &first, &out);
  AppendU64("object_postings", object_postings, &first, &out);
  AppendU64("longest_chain", longest_chain, &first, &out);
  AppendU64("predicate_max_fanout", predicate_max_fanout, &first, &out);
  out += ",\"predicate_cardinality\":[";
  for (size_t i = 0; i < predicate_cardinality.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(predicate_cardinality[i]);
  }
  out += "]";
  AppendU64("interned_strings", interned_strings, &first, &out);
  AppendU64("interned_bytes", interned_bytes, &first, &out);
  AppendU64("epoch_current", epoch_current, &first, &out);
  AppendU64("epoch_oldest_pin", epoch_oldest_pin, &first, &out);
  AppendU64("epoch_lag", epoch_lag, &first, &out);
  AppendU64("epoch_retired", epoch_retired, &first, &out);
  AppendU64("epoch_reclaimed", epoch_reclaimed, &first, &out);
  AppendU64("epoch_limbo", epoch_limbo, &first, &out);
  AppendU64("approximate_bytes", approximate_bytes, &first, &out);
  out += "}";
  return out;
}

StoreStats ComputeStats(const TripleStore& store) {
  StoreStats stats;
  stats.backend = "hash";
  // Key live counts and the dead-record count are writer state: hold the
  // writer lock for a consistent reading (stats refreshes are rare; the
  // pause is one walk over the key table and its buckets).
  util::MutexLock lock(&store.write_mu_);
  stats.live_triples = store.live_count_.load(std::memory_order_relaxed);
  stats.tombstoned = store.dead_count_;
  if (const TripleStore::Guts* guts =
          store.guts_.load(std::memory_order_relaxed)) {
    uint64_t* keys[3] = {&stats.subject_keys, &stats.property_keys,
                         &stats.object_keys};
    uint64_t* postings[3] = {&stats.subject_postings, &stats.property_postings,
                             &stats.object_postings};
    const TripleStore::KeyId count =
        guts->key_count.load(std::memory_order_relaxed);
    stats.interned_strings = count;
    for (TripleStore::KeyId id = 0; id < count; ++id) {
      const TripleStore::KeyNode* node = TripleStore::NodeOf(*guts, id);
      stats.interned_bytes += node->key_size;
      for (size_t f = 0; f < 3; ++f) {
        uint64_t live = node->postings[f].live.load(std::memory_order_relaxed);
        if (live == 0) continue;
        ++*keys[f];
        *postings[f] += live;
        if (f == TripleStore::kPropertyField) RecordFanout(live, &stats);
      }
    }
    const TripleStore::KeyIndex* index =
        guts->index.load(std::memory_order_relaxed);
    for (const auto& head : index->heads) {
      uint64_t chain = 0;
      for (uint32_t next = head.load(std::memory_order_relaxed); next != 0;
           next = static_cast<uint32_t>(
               index->links[next - 1].load(std::memory_order_relaxed))) {
        ++chain;
      }
      stats.longest_chain = std::max(stats.longest_chain, chain);
    }
  }
  EpochManager::Stats epoch = store.epoch_.GetStats();
  stats.epoch_current = epoch.current;
  stats.epoch_oldest_pin = epoch.oldest_pin;
  stats.epoch_lag = epoch.lag;
  stats.epoch_retired = epoch.retired;
  stats.epoch_reclaimed = epoch.reclaimed;
  stats.epoch_limbo = epoch.limbo;
  stats.approximate_bytes = store.ApproximateBytes();
  return stats;
}

void PublishStoreStats(const StoreStats& stats,
                       obs::MetricsRegistry* registry) {
  obs::MetricsRegistry& reg =
      registry != nullptr ? *registry : obs::DefaultRegistry();
  reg.GetCounter("slim.store.refresh.calls")->Increment();
  auto set = [&reg](const std::string& name, uint64_t value) {
    reg.GetGauge(name)->Set(static_cast<int64_t>(value));
  };
  set("slim.store.live_triples", stats.live_triples);
  set("slim.store.tombstones", stats.tombstoned);
  set("slim.store.index.subject.keys", stats.subject_keys);
  set("slim.store.index.property.keys", stats.property_keys);
  set("slim.store.index.object.keys", stats.object_keys);
  set("slim.store.index.subject.postings", stats.subject_postings);
  set("slim.store.index.property.postings", stats.property_postings);
  set("slim.store.index.object.postings", stats.object_postings);
  set("slim.store.predicate.max_fanout", stats.predicate_max_fanout);
  set("slim.store.interned.strings", stats.interned_strings);
  set("slim.store.interned.bytes", stats.interned_bytes);
  set("slim.store.approx_bytes", stats.approximate_bytes);
  set("slim.store.epoch.current", stats.epoch_current);
  set("slim.store.epoch.oldest_pin", stats.epoch_oldest_pin);
  set("slim.store.epoch.lag", stats.epoch_lag);
  set("slim.store.epoch.retired", stats.epoch_retired);
  set("slim.store.epoch.reclaimed", stats.epoch_reclaimed);
  set("slim.store.epoch.limbo", stats.epoch_limbo);
}

}  // namespace slim::trim
