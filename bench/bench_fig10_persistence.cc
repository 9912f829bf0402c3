// Experiment F10 (paper Fig. 10): save(fileName) / load(fileName).
//
// Regenerates: whole-pad persistence as the pad grows — serialize and parse
// the triple store's XML interchange form, rebuild the native object graph
// (the load path exercises TRIM parse + object rebuild, the paper's
// "consistency between the triple representation and the application
// data"), and the save/load disk round trip through the pad file, which is
// binary (trim/persistence.h).

#include <benchmark/benchmark.h>

#include <cstdio>

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

class PadFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State& state) override {
    if (dmi_ && scraps_ == state.range(0)) return;
    scraps_ = state.range(0);
    store_ = std::make_unique<trim::TripleStore>();
    dmi_ = std::make_unique<SlimPadDmi>(store_.get());
    BuildPad(dmi_.get(), scraps_);
    xml_ = trim::StoreToXml(*store_);
  }

  int64_t scraps_ = -1;
  std::unique_ptr<trim::TripleStore> store_;
  std::unique_ptr<SlimPadDmi> dmi_;
  std::string xml_;
};

BENCHMARK_DEFINE_F(PadFixture, Serialize)(benchmark::State& state) {
  for (auto _ : state) {
    std::string xml = trim::StoreToXml(*store_);
    benchmark::DoNotOptimize(xml);
    state.counters["xml_bytes"] = static_cast<double>(xml.size());
    state.counters["triples"] = static_cast<double>(store_->size());
  }
  state.SetItemsProcessed(state.iterations() * scraps_);
}
BENCHMARK_REGISTER_F(PadFixture, Serialize)->Arg(100)->Arg(1000)->Arg(10000);

BENCHMARK_DEFINE_F(PadFixture, ParseTriples)(benchmark::State& state) {
  for (auto _ : state) {
    trim::TripleStore loaded;
    SLIM_BENCH_CHECK(trim::StoreFromXml(xml_, &loaded));
    benchmark::DoNotOptimize(loaded.size());
  }
  state.SetItemsProcessed(state.iterations() * scraps_);
}
BENCHMARK_REGISTER_F(PadFixture, ParseTriples)->Arg(100)->Arg(1000)->Arg(10000);

BENCHMARK_DEFINE_F(PadFixture, FullLoadWithObjectRebuild)
(benchmark::State& state) {
  for (auto _ : state) {
    trim::TripleStore store;
    SLIM_BENCH_CHECK(trim::StoreFromXml(xml_, &store));
    SlimPadDmi dmi(&store);
    SLIM_BENCH_CHECK(dmi.RebuildFromTriples());
    benchmark::DoNotOptimize(dmi.NativeObjectCount());
  }
  state.SetItemsProcessed(state.iterations() * scraps_);
}
BENCHMARK_REGISTER_F(PadFixture, FullLoadWithObjectRebuild)
    ->Arg(100)->Arg(1000)->Arg(10000);

BENCHMARK_DEFINE_F(PadFixture, SaveLoadThroughDisk)(benchmark::State& state) {
  std::string path = "/tmp/bench_pad_persistence.pad";
  for (auto _ : state) {
    SLIM_BENCH_CHECK(dmi_->save(path));
    trim::TripleStore store;
    SlimPadDmi dmi(&store);
    SLIM_BENCH_CHECK(dmi.load(path));
    benchmark::DoNotOptimize(dmi.NativeObjectCount());
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(state.iterations() * scraps_);
}
BENCHMARK_REGISTER_F(PadFixture, SaveLoadThroughDisk)->Arg(100)->Arg(1000);

}  // namespace
}  // namespace slim::pad

SLIM_BENCH_MAIN();
