// Experiment F4 (paper Fig. 4): the SLIMPad 'Rounds' scenario end to end.
//
// Regenerates: building the resident's-worksheet pad for a census of P
// patients (bundles + scraps + marks created from live base-application
// selections), and the interactive click-to-resolve latency for the two
// mark types the figure shows (Excel medication rows, XML electrolyte
// results).

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "workload/session.h"

namespace slim::workload {
namespace {

void BM_BuildRoundsPad(benchmark::State& state) {
  const int patients = static_cast<int>(state.range(0));
  IcuOptions options;
  options.patients = patients;
  options.seed = 42;
  for (auto _ : state) {
    state.PauseTiming();
    Session session;
    SLIM_BENCH_CHECK(session.LoadIcuWorkload(GenerateIcuWorkload(options)));
    state.ResumeTiming();
    SLIM_BENCH_CHECK(session.BuildRoundsPad());
    benchmark::DoNotOptimize(session.marks().size());
    state.counters["scraps"] =
        static_cast<double>(session.app().dmi().Scraps().size());
    state.counters["marks"] = static_cast<double>(session.marks().size());
  }
  state.SetItemsProcessed(state.iterations() * patients);
}
BENCHMARK(BM_BuildRoundsPad)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

// The complete Fig. 2 worksheet (all six source types on the pad).
void BM_BuildFullRoundsPad(benchmark::State& state) {
  const int patients = static_cast<int>(state.range(0));
  IcuOptions options;
  options.patients = patients;
  options.seed = 42;
  for (auto _ : state) {
    state.PauseTiming();
    Session session;
    SLIM_BENCH_CHECK(session.LoadIcuWorkload(GenerateIcuWorkload(options)));
    state.ResumeTiming();
    SLIM_BENCH_CHECK(session.BuildFullRoundsPad());
    state.counters["scraps"] =
        static_cast<double>(session.app().dmi().Scraps().size());
  }
  state.SetItemsProcessed(state.iterations() * patients);
}
BENCHMARK(BM_BuildFullRoundsPad)->Arg(4)->Arg(16);

class RoundsFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State& state) override {
    if (session_ && patients_ == state.range(0)) return;
    patients_ = state.range(0);
    IcuOptions options;
    options.patients = static_cast<int>(patients_);
    options.seed = 42;
    session_ = std::make_unique<Session>();
    SLIM_BENCH_CHECK(session_->LoadIcuWorkload(GenerateIcuWorkload(options)));
    SLIM_BENCH_CHECK(session_->BuildRoundsPad());
    med_scraps_.clear();
    lyte_scraps_.clear();
    for (const std::string& bundle_id : session_->patient_bundles()) {
      const pad::Bundle* patient =
          *session_->app().dmi().GetBundle(bundle_id);
      for (const auto& s : patient->scraps()) med_scraps_.push_back(s);
      const pad::Bundle* lytes =
          *session_->app().dmi().GetBundle(patient->nested_bundles()[0]);
      for (const auto& s : lytes->scraps()) {
        const pad::Scrap* scrap = *session_->app().dmi().GetScrap(s);
        if (!scrap->mark_handles().empty()) lyte_scraps_.push_back(s);
      }
    }
  }

  int64_t patients_ = -1;
  std::unique_ptr<Session> session_;
  std::vector<std::string> med_scraps_;
  std::vector<std::string> lyte_scraps_;
};

// Fig. 4 left: "By clicking on the scrap ... the medication list is
// displayed with the appropriate medication highlighted."
BENCHMARK_DEFINE_F(RoundsFixture, ClickMedScrap)(benchmark::State& state) {
  int64_t i = 0;
  for (auto _ : state) {
    auto result =
        session_->app().OpenScrap(med_scraps_[i++ % med_scraps_.size()]);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_REGISTER_F(RoundsFixture, ClickMedScrap)->Arg(4)->Arg(16)->Arg(64);

// Fig. 4 right: "Each of these scraps can be double-clicked, which opens
// the lab report and highlights the appropriate section of the XML."
BENCHMARK_DEFINE_F(RoundsFixture, ClickElectrolyteScrap)
(benchmark::State& state) {
  int64_t i = 0;
  for (auto _ : state) {
    auto result =
        session_->app().OpenScrap(lyte_scraps_[i++ % lyte_scraps_.size()]);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_REGISTER_F(RoundsFixture, ClickElectrolyteScrap)
    ->Arg(4)->Arg(16)->Arg(64);

// The whole-shift sweep: open every scrap on the pad once.
BENCHMARK_DEFINE_F(RoundsFixture, OpenAllScraps)(benchmark::State& state) {
  for (auto _ : state) {
    auto opened = session_->OpenAllScraps();
    if (!opened.ok()) state.SkipWithError(opened.status().ToString().c_str());
    state.counters["scraps_opened"] = static_cast<double>(*opened);
  }
  state.SetItemsProcessed(state.iterations() *
                          (med_scraps_.size() + lyte_scraps_.size()));
}
BENCHMARK_REGISTER_F(RoundsFixture, OpenAllScraps)->Arg(4)->Arg(16);

// Handoff (paper §6): save + reload the whole pad.
BENCHMARK_DEFINE_F(RoundsFixture, HandoffSaveLoad)(benchmark::State& state) {
  std::string path = "/tmp/bench_handoff.pad";
  for (auto _ : state) {
    SLIM_BENCH_CHECK(session_->app().SavePad(path));
    Session doctor2;
    IcuOptions options;
    options.patients = static_cast<int>(patients_);
    options.seed = 42;
    SLIM_BENCH_CHECK(doctor2.LoadIcuWorkload(GenerateIcuWorkload(options)));
    SLIM_BENCH_CHECK(doctor2.app().LoadPad(path));
    benchmark::DoNotOptimize(doctor2.app().dmi().Scraps().size());
  }
  std::remove(path.c_str());
  std::remove((path + ".marks").c_str());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_REGISTER_F(RoundsFixture, HandoffSaveLoad)->Arg(4)->Arg(16);

}  // namespace
}  // namespace slim::workload

SLIM_BENCH_MAIN();
