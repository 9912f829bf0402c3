// Ablation (paper §6): navigational access vs declarative query.
//
// "We are also considering augmenting such interfaces with query
// capabilities, in addition to the current navigational access."
//
// Regenerates: the same four questions answered two ways — hand-written
// navigation through the DMI's object graph, and the declarative query
// engine over the triples — plus query cost vs clause count and vs pad
// size. Q1–Q3 return one row per patient; Q4 returns every scrap (8 per
// patient), the fan-out shape of perfbench's consult Q4, so its cost is
// dominated by building solutions. Expected shape: navigation wins on
// point lookups by a constant factor; the query engine's
// selectivity-ordered joins keep multi-hop questions in the same order of
// magnitude while being one line of text.

#include <benchmark/benchmark.h>

#include <array>

#include "bench/bench_common.h"
#include "slim/query.h"
#include "slimpad/slimpad_dmi.h"

namespace slim {
namespace {

// A rounds-shaped pad: `patients` bundles under a root, each with 8 scraps
// (every scrap marked), one scrap per patient named "K 4.9" (the question
// target).
struct BenchPad {
  trim::TripleStore store;
  std::unique_ptr<pad::SlimPadDmi> dmi;
  std::string root;
  std::vector<std::string> patient_bundles;
};

std::unique_ptr<BenchPad> BuildBenchPad(int patients) {
  auto out = std::make_unique<BenchPad>();
  out->dmi = std::make_unique<pad::SlimPadDmi>(&out->store);
  pad::SlimPadDmi& dmi = *out->dmi;
  const pad::SlimPad* p = *dmi.Create_SlimPad("Rounds");
  const pad::Bundle* root = *dmi.Create_Bundle("root", {0, 0}, 800, 600);
  SLIM_BENCH_CHECK(dmi.Update_rootBundle(p->id(), root->id()));
  out->root = root->id();
  for (int i = 0; i < patients; ++i) {
    const pad::Bundle* b = *dmi.Create_Bundle(
        "patient" + std::to_string(i), {0, double(i)}, 640, 160);
    SLIM_BENCH_CHECK(dmi.AddNestedBundle(root->id(), b->id()));
    out->patient_bundles.push_back(b->id());
    for (int s = 0; s < 8; ++s) {
      std::string name = s == 3 ? "K 4.9"
                                : "med" + std::to_string(i) + "_" +
                                      std::to_string(s);
      const pad::Scrap* scrap = *dmi.Create_Scrap(name, {double(s), 0});
      SLIM_BENCH_CHECK(dmi.AddScrapToBundle(b->id(), scrap->id()));
      const pad::MarkHandle* h = *dmi.Create_MarkHandle(
          "mark" + std::to_string(i * 8 + s));
      SLIM_BENCH_CHECK(dmi.SetScrapMark(scrap->id(), h->id()));
    }
  }
  return out;
}

// Q1: find every scrap named "K 4.9" (single attribute filter).
void BM_Q1_Navigational(benchmark::State& state) {
  auto pad = BuildBenchPad(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::vector<std::string> hits;
    for (const pad::Scrap* s : pad->dmi->Scraps()) {
      if (s->name() == "K 4.9") hits.push_back(s->id());
    }
    benchmark::DoNotOptimize(hits);
    state.counters["hits"] = static_cast<double>(hits.size());
  }
  state.SetItemsProcessed(state.iterations());
}
void BM_Q1_Query(benchmark::State& state) {
  auto pad = BuildBenchPad(static_cast<int>(state.range(0)));
  store::Query q = *store::Query::Parse("?s scrapName \"K 4.9\"");
  for (auto _ : state) {
    auto rows = store::Execute(pad->store, q);
    if (!rows.ok()) state.SkipWithError("query failed");
    benchmark::DoNotOptimize(rows);
    state.counters["hits"] = static_cast<double>(rows->size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Q1_Navigational)->Arg(8)->Arg(64)->Arg(256);
BENCHMARK(BM_Q1_Query)->Arg(8)->Arg(64)->Arg(256);

// Q2: which bundles contain a scrap named "K 4.9"? (one join)
void BM_Q2_Navigational(benchmark::State& state) {
  auto pad = BuildBenchPad(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::vector<std::string> hits;
    for (const pad::Bundle* b : pad->dmi->Bundles()) {
      for (const std::string& sid : b->scraps()) {
        const pad::Scrap* s = *pad->dmi->GetScrap(sid);
        if (s->name() == "K 4.9") hits.push_back(b->id());
      }
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations());
}
void BM_Q2_Query(benchmark::State& state) {
  auto pad = BuildBenchPad(static_cast<int>(state.range(0)));
  store::Query q = *store::Query::Parse(
      "?b bundleContent ?s . ?s scrapName \"K 4.9\"");
  for (auto _ : state) {
    auto rows = store::Execute(pad->store, q);
    if (!rows.ok()) state.SkipWithError("query failed");
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Q2_Navigational)->Arg(8)->Arg(64)->Arg(256);
BENCHMARK(BM_Q2_Query)->Arg(8)->Arg(64)->Arg(256);

// Q3: mark ids referenced from bundles nested under the root whose scraps
// are named "K 4.9" (three joins).
void BM_Q3_Navigational(benchmark::State& state) {
  auto pad = BuildBenchPad(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::vector<std::string> hits;
    const pad::Bundle* root = *pad->dmi->GetBundle(pad->root);
    for (const std::string& bid : root->nested_bundles()) {
      const pad::Bundle* b = *pad->dmi->GetBundle(bid);
      for (const std::string& sid : b->scraps()) {
        const pad::Scrap* s = *pad->dmi->GetScrap(sid);
        if (s->name() != "K 4.9") continue;
        for (const std::string& hid : s->mark_handles()) {
          const pad::MarkHandle* h = *pad->dmi->GetMarkHandle(hid);
          hits.push_back(h->mark_id());
        }
      }
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations());
}
void BM_Q3_Query(benchmark::State& state) {
  auto pad = BuildBenchPad(static_cast<int>(state.range(0)));
  store::Query q = *store::Query::Parse(
      "<" + pad->root + "> nestedBundle ?b . "
      "?b bundleContent ?s . "
      "?s scrapName \"K 4.9\" . "
      "?s scrapMark ?h . "
      "?h markId ?m");
  for (auto _ : state) {
    auto rows = store::Execute(pad->store, q);
    if (!rows.ok()) state.SkipWithError("query failed");
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Q3_Navigational)->Arg(8)->Arg(64)->Arg(256);
BENCHMARK(BM_Q3_Query)->Arg(8)->Arg(64)->Arg(256);

// Q4: every scrap of every bundle, with its name (one fan-out join: 8 rows
// per patient).
void BM_Q4_Navigational(benchmark::State& state) {
  auto pad = BuildBenchPad(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::vector<std::array<std::string, 3>> rows;
    for (const pad::Bundle* b : pad->dmi->Bundles()) {
      for (const std::string& sid : b->scraps()) {
        const pad::Scrap* s = *pad->dmi->GetScrap(sid);
        rows.push_back({b->id(), sid, s->name()});
      }
    }
    benchmark::DoNotOptimize(rows);
    state.counters["rows"] = static_cast<double>(rows.size());
  }
  state.SetItemsProcessed(state.iterations());
}
void BM_Q4_Query(benchmark::State& state) {
  auto pad = BuildBenchPad(static_cast<int>(state.range(0)));
  store::Query q =
      *store::Query::Parse("?b bundleContent ?s . ?s scrapName ?n");
  for (auto _ : state) {
    auto rows = store::Execute(pad->store, q);
    if (!rows.ok()) state.SkipWithError("query failed");
    benchmark::DoNotOptimize(rows);
    state.counters["rows"] = static_cast<double>(rows->size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Q4_Navigational)->Arg(8)->Arg(64)->Arg(256);
BENCHMARK(BM_Q4_Query)->Arg(8)->Arg(64)->Arg(256);

// Clause-count sweep on a fixed pad: cost of each extra join hop.
void BM_QueryClauseSweep(benchmark::State& state) {
  auto pad = BuildBenchPad(64);
  const int clauses = static_cast<int>(state.range(0));
  std::string text;
  switch (clauses) {
    case 1: text = "?s scrapName \"K 4.9\""; break;
    case 2: text = "?b bundleContent ?s . ?s scrapName \"K 4.9\""; break;
    case 3:
      text = "?b bundleContent ?s . ?s scrapName \"K 4.9\" . "
             "?s scrapMark ?h";
      break;
    default:
      text = "?b bundleContent ?s . ?s scrapName \"K 4.9\" . "
             "?s scrapMark ?h . ?h markId ?m";
      break;
  }
  store::Query q = *store::Query::Parse(text);
  for (auto _ : state) {
    auto rows = store::Execute(pad->store, q);
    if (!rows.ok()) state.SkipWithError("query failed");
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["clauses"] = clauses;
}
BENCHMARK(BM_QueryClauseSweep)->DenseRange(1, 4, 1);

}  // namespace
}  // namespace slim

SLIM_BENCH_MAIN();
