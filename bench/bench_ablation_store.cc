// Ablation (paper §6: "some data sets are quite large and we are
// developing alternative implementation mechanisms"): TRIM's two store-file
// forms on its one store — the XML interchange form (paper §4.4) and the
// binary pad form SaveStore writes (trim/persistence.h).
//
// Regenerates, at matched pad-shaped sizes: file bytes per triple, save
// time (serialize to bytes) and cold load time (decode, check and install
// into an empty store) for both forms, and the store's in-memory bytes per
// triple twice — its own ApproximateBytes and glibc's mallinfo2 heap delta
// across the build — so the formula can be read against the heap.

#include <benchmark/benchmark.h>

#include <memory>

#include "bench/bench_common.h"
#include "trim/persistence.h"
#include "trim/triple_store.h"
#include "util/rng.h"

namespace slim::trim {
namespace {

// Pad-shaped filler (mirrors bench_trim_store): 6 triples per scrap.
void FillPadShaped(TripleStore* store, int64_t scraps, Rng* rng) {
  int64_t bundles = (scraps + 15) / 16;
  for (int64_t b = 0; b < bundles; ++b) {
    std::string bid = "bundle" + std::to_string(b);
    SLIM_BENCH_CHECK(store->AddLiteral(bid, "bundleName", rng->Word(8)));
    if (b > 0) {
      SLIM_BENCH_CHECK(store->AddResource("bundle0", "nestedBundle", bid));
    }
  }
  for (int64_t s = 0; s < scraps; ++s) {
    std::string sid = "scrap" + std::to_string(s);
    std::string bid = "bundle" + std::to_string(s / 16);
    SLIM_BENCH_CHECK(store->AddResource(bid, "bundleContent", sid));
    SLIM_BENCH_CHECK(store->AddLiteral(sid, "scrapName", rng->Word(10)));
    SLIM_BENCH_CHECK(store->AddLiteral(
        sid, "scrapPos",
        std::to_string(s % 640) + "," + std::to_string(s % 480)));
    std::string hid = "handle" + std::to_string(s);
    SLIM_BENCH_CHECK(store->AddResource(sid, "scrapMark", hid));
    SLIM_BENCH_CHECK(
        store->AddLiteral(hid, "markId", "mark" + std::to_string(s)));
  }
}

std::unique_ptr<TripleStore> PadStore(int64_t scraps) {
  auto store = std::make_unique<TripleStore>();
  Rng rng(7);
  FillPadShaped(store.get(), scraps, &rng);
  return store;
}

Status LoadBinary(const std::string& bytes, TripleStore* store) {
  TripleStore::Image image;
  SLIM_RETURN_NOT_OK(DecodeStore(bytes, &image));
  return store->InstallImage(image);
}

// Memory and file size, reported as counters.
void BM_Footprint(benchmark::State& state) {
  const size_t heap_before = bench::HeapInUseBytes();
  std::unique_ptr<TripleStore> store = PadStore(state.range(0));
  const size_t heap_after = bench::HeapInUseBytes();
  const double triples = static_cast<double>(store->size());
  const std::string xml = StoreToXml(*store);
  const std::string binary = StoreToBinary(*store);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store->ApproximateBytes());
  }
  state.counters["approx_bytes_per_triple"] =
      static_cast<double>(store->ApproximateBytes()) / triples;
  state.counters["heap_bytes_per_triple"] =
      static_cast<double>(heap_after - heap_before) / triples;
  state.counters["xml_file_bytes_per_triple"] =
      static_cast<double>(xml.size()) / triples;
  state.counters["binary_file_bytes_per_triple"] =
      static_cast<double>(binary.size()) / triples;
}
BENCHMARK(BM_Footprint)->Arg(1000)->Arg(10000);

void BM_Save_Xml(benchmark::State& state) {
  std::unique_ptr<TripleStore> store = PadStore(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(StoreToXml(*store));
  }
  state.SetItemsProcessed(state.iterations() * store->size());
}
void BM_Save_Binary(benchmark::State& state) {
  std::unique_ptr<TripleStore> store = PadStore(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(StoreToBinary(*store));
  }
  state.SetItemsProcessed(state.iterations() * store->size());
}
BENCHMARK(BM_Save_Xml)->Arg(10000);
BENCHMARK(BM_Save_Binary)->Arg(10000);

void BM_ColdLoad_Xml(benchmark::State& state) {
  std::unique_ptr<TripleStore> store = PadStore(state.range(0));
  const std::string xml = StoreToXml(*store);
  for (auto _ : state) {
    TripleStore loaded;
    SLIM_BENCH_CHECK(StoreFromXml(xml, &loaded));
    benchmark::DoNotOptimize(loaded.size());
  }
  state.SetItemsProcessed(state.iterations() * store->size());
}
void BM_ColdLoad_Binary(benchmark::State& state) {
  std::unique_ptr<TripleStore> store = PadStore(state.range(0));
  const std::string binary = StoreToBinary(*store);
  for (auto _ : state) {
    TripleStore loaded;
    SLIM_BENCH_CHECK(LoadBinary(binary, &loaded));
    benchmark::DoNotOptimize(loaded.size());
  }
  state.SetItemsProcessed(state.iterations() * store->size());
}
BENCHMARK(BM_ColdLoad_Xml)->Arg(10000);
BENCHMARK(BM_ColdLoad_Binary)->Arg(10000);

}  // namespace
}  // namespace slim::trim

SLIM_BENCH_MAIN();
