// Experiment T2 (paper §6): the *space* half of the flexibility trade-off.
//
// "The trade-off for this flexibility was space efficiency of the data..."
//
// Regenerates: bytes per scrap in the generic triple representation (store
// + indexes), in its XML and binary persisted forms, and in the native
// object graph — reported as benchmark counters, with the triple:native
// ratio the headline number. Beside the stores' own byte formulas, glibc's
// mallinfo2 heap delta measures the whole pad (triples and native objects)
// as it is built and the triples alone as a fresh store loads them. The
// paper's justification ("we expect the volume of superimposed information
// to be a fraction of the base data") is quantified by bench_lightweight.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "slimpad/slimpad_dmi.h"
#include "trim/persistence.h"

namespace slim::pad {
namespace {

void BuildPad(SlimPadDmi* dmi, int64_t scraps) {
  const SlimPad* pad = *dmi->Create_SlimPad("bench");
  const Bundle* root = *dmi->Create_Bundle("root", {0, 0}, 800, 600);
  SLIM_BENCH_CHECK(dmi->Update_rootBundle(pad->id(), root->id()));
  std::string current = root->id();
  for (int64_t i = 0; i < scraps; ++i) {
    if (i % 16 == 0 && i > 0) {
      const Bundle* b = *dmi->Create_Bundle("b" + std::to_string(i),
                                            {double(i), 0}, 200, 150);
      SLIM_BENCH_CHECK(dmi->AddNestedBundle(root->id(), b->id()));
      current = b->id();
    }
    const Scrap* s =
        *dmi->Create_Scrap("scrap " + std::to_string(i), {double(i % 640), 8});
    SLIM_BENCH_CHECK(dmi->AddScrapToBundle(current, s->id()));
    const MarkHandle* h = *dmi->Create_MarkHandle("mark" + std::to_string(i));
    SLIM_BENCH_CHECK(dmi->SetScrapMark(s->id(), h->id()));
  }
}

void BM_SpacePerScrap(benchmark::State& state) {
  const int64_t scraps = state.range(0);
  const size_t heap_before_pad = bench::HeapInUseBytes();
  trim::TripleStore store;
  SlimPadDmi dmi(&store);
  BuildPad(&dmi, scraps);
  const size_t heap_pad = bench::HeapInUseBytes() - heap_before_pad;
  std::string xml = trim::StoreToXml(store);
  size_t binary_bytes = trim::StoreToBinary(store).size();
  size_t heap_triples = 0;
  {
    trim::TripleStore loaded;
    const size_t heap_before_load = bench::HeapInUseBytes();
    SLIM_BENCH_CHECK(trim::StoreFromXml(xml, &loaded));
    heap_triples = bench::HeapInUseBytes() - heap_before_load;
  }

  size_t triple_bytes = store.ApproximateBytes();
  size_t native_bytes = dmi.ApproximateNativeBytes();
  size_t xml_bytes = xml.size();

  for (auto _ : state) {
    // The measured operation is the byte accounting itself (cheap); the
    // counters below are the experiment's actual output.
    benchmark::DoNotOptimize(store.ApproximateBytes());
  }
  state.counters["scraps"] = static_cast<double>(scraps);
  state.counters["triples"] = static_cast<double>(store.size());
  state.counters["triple_bytes_per_scrap"] =
      static_cast<double>(triple_bytes) / static_cast<double>(scraps);
  state.counters["native_bytes_per_scrap"] =
      static_cast<double>(native_bytes) / static_cast<double>(scraps);
  state.counters["xml_bytes_per_scrap"] =
      static_cast<double>(xml_bytes) / static_cast<double>(scraps);
  state.counters["binary_bytes_per_scrap"] =
      static_cast<double>(binary_bytes) / static_cast<double>(scraps);
  state.counters["heap_pad_bytes_per_scrap"] =
      static_cast<double>(heap_pad) / static_cast<double>(scraps);
  state.counters["heap_triple_bytes_per_scrap"] =
      static_cast<double>(heap_triples) / static_cast<double>(scraps);
  state.counters["triple_vs_native_ratio"] =
      static_cast<double>(triple_bytes) / static_cast<double>(native_bytes);
}
BENCHMARK(BM_SpacePerScrap)->Arg(100)->Arg(1000)->Arg(10000);

// The same pad built directly as triples WITHOUT the duplicate native
// objects (a DMI-less superimposed app): isolates what the dual
// representation costs on top of pure triples.
void BM_SpaceDualRepresentationDelta(benchmark::State& state) {
  const int64_t scraps = state.range(0);
  trim::TripleStore store;
  SlimPadDmi dmi(&store);
  BuildPad(&dmi, scraps);

  for (auto _ : state) {
    benchmark::DoNotOptimize(dmi.NativeObjectCount());
  }
  state.counters["native_objects"] =
      static_cast<double>(dmi.NativeObjectCount());
  state.counters["dual_overhead_pct"] =
      100.0 * static_cast<double>(dmi.ApproximateNativeBytes()) /
      static_cast<double>(store.ApproximateBytes());
}
BENCHMARK(BM_SpaceDualRepresentationDelta)->Arg(1000);

}  // namespace
}  // namespace slim::pad

SLIM_BENCH_MAIN();
