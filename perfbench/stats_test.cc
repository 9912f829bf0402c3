// Checks the rounds benchmark's arithmetic (stats.h) on synthetic samples
// and a synthetic span list. Run: python3 perfbench/run.py --selftest
// (or ctest in the benchmark's build directory).

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "stats_test.cc:%d: FAILED: %s\n", line, what);
    ++failures;
  }
}
#define CHECK(expr) Check((expr), #expr, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

using perfbench::Span;

Span MakeSpan(int64_t start, int64_t end, int32_t parent, uint8_t layer,
              uint8_t flags = 0) {
  Span s;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  s.layer = layer;
  s.name = layer;
  s.flags = flags;
  return s;
}

void TestNearestRank() {
  using perfbench::NearestRank;
  CHECK(NearestRank(0, 50) == 0);
  CHECK(NearestRank(1, 50) == 1);
  CHECK(NearestRank(1, 99) == 1);
  CHECK(NearestRank(10, 50) == 5);
  CHECK(NearestRank(10, 90) == 9);   // exactly 9.0, no round-up to 10
  CHECK(NearestRank(100, 99) == 99);
  CHECK(NearestRank(101, 99) == 100);  // ceil(99.99)
  CHECK(NearestRank(4, 75) == 3);

  std::vector<double> v = {5, 1, 4, 2, 3};
  CHECK(Near(perfbench::Percentile(v, 50), 3));
  CHECK(Near(perfbench::Percentile(v, 100), 5));
  CHECK(Near(perfbench::Percentile(v, 1), 1));
  std::vector<double> empty;
  CHECK(Near(perfbench::Percentile(empty, 50), 0));
}

void TestSampleCountRule() {
  using perfbench::HighestReportableTail;
  using perfbench::SamplesBeyond;
  using perfbench::TailReportable;
  // p99 needs rank <= n - 10: n = 1000 -> rank 990, 10 beyond.
  CHECK(SamplesBeyond(1000, 99) == 10);
  CHECK(TailReportable(1000, 99));
  CHECK(!TailReportable(999, 99));  // rank 990 of 999: 9 beyond
  CHECK(TailReportable(100, 90));
  CHECK(!TailReportable(99, 90));
  CHECK(TailReportable(40, 75));
  CHECK(!TailReportable(39, 75));
  CHECK(Near(HighestReportableTail(5000), 99));
  CHECK(Near(HighestReportableTail(999), 90));
  CHECK(Near(HighestReportableTail(60), 75));
  CHECK(Near(HighestReportableTail(20), 50));
  CHECK(Near(HighestReportableTail(19), 0));

  std::vector<double> samples;
  for (int i = 1; i <= 200; ++i) samples.push_back(i);
  perfbench::Summary s = perfbench::Summarize(samples);
  CHECK(s.n == 200);
  CHECK(Near(s.p50, 100));
  CHECK(Near(s.p75, 150));
  CHECK(Near(s.p99, 198));
  CHECK(Near(s.tail_p, 90));  // p99 of 200 has only 2 beyond
  CHECK(Near(s.tail, 180));
}

// One op, timed wall 100 ns, three layers:
//   [0] app 10..60      real, top level
//   [1] mark 20..50     real, child of 0
//   [2] base 30..40     real, child of 1
//   [3] mark 70..80     real, top level, error
//   [4] base 200..215   replay, child of 3 (outlasts its parent)
//   [5] trim 300..303   derived replay, child of 1
void TestSpanAccounting() {
  std::vector<Span> spans = {
      MakeSpan(10, 60, -1, 0),
      MakeSpan(20, 50, 0, 1),
      MakeSpan(30, 40, 1, 2),
      MakeSpan(70, 80, -1, 1, Span::kError),
      MakeSpan(200, 215, 3, 2, Span::kReplay),
      MakeSpan(300, 303, 1, 3, Span::kReplay | Span::kDerived),
  };
  std::vector<int64_t> self = perfbench::SelfTimes(spans);
  CHECK(self[0] == 20);  // 50 - 30
  CHECK(self[1] == 17);  // 30 - 10 - 3
  CHECK(self[2] == 10);
  CHECK(self[3] == 0);   // 10 - 15, clamped
  CHECK(self[4] == 15);
  CHECK(self[5] == 3);

  std::vector<perfbench::LayerTotals> totals =
      perfbench::TotalsByLayer(spans, 4);
  CHECK(totals[0].calls == 1 && totals[0].self_ns == 20);
  CHECK(totals[1].calls == 2 && totals[1].errors == 1);
  CHECK(totals[1].self_ns == 17);
  CHECK(totals[2].calls == 2 && totals[2].self_ns == 25);
  CHECK(totals[3].calls == 0 && totals[3].self_ns == 3);  // derived

  // Covered: spans 0 and 3 (50 + 10) of a 100 ns timed wall.
  CHECK(Near(perfbench::UnattributedShare(spans, 100), 0.4));
  CHECK(Near(perfbench::UnattributedShare(spans, 0), 0));

  // Probe-pass spans count toward neither layer totals nor coverage.
  spans.push_back(MakeSpan(400, 490, -1, 0, Span::kProbe));
  CHECK(Near(perfbench::UnattributedShare(spans, 100), 0.4));
  CHECK(perfbench::TotalsByLayer(spans, 4)[0].calls == 1);

  std::vector<double> base = perfbench::DurationsOf(spans, 2, 1.0);
  CHECK(base.size() == 2 && Near(base[0], 10) && Near(base[1], 15));
}

void TestSamples() {
  perfbench::Samples small(8, 3);
  for (int i = 1; i <= 5; ++i) small.Add(i);
  CHECK(small.count() == 5 && small.values().size() == 5);
  perfbench::Summary s = perfbench::Summarize(small);
  CHECK(s.n == 5 && Near(s.p50, 3));

  // Past capacity the reservoir keeps `capacity` values, all ever added.
  perfbench::Samples res(100, 7);
  for (int i = 0; i < 10000; ++i) res.Add(i);
  std::vector<double> kept = res.values();
  CHECK(res.count() == 10000 && kept.size() == 100);
  bool in_range = true;
  for (double v : kept) in_range = in_range && v >= 0 && v < 10000;
  CHECK(in_range);
  perfbench::Summary r = perfbench::Summarize(res);
  CHECK(r.n == 10000 && Near(r.tail_p, 99));  // rule uses the count seen
  CHECK(r.p50 > 2500 && r.p50 < 7500);

  perfbench::Samples merged(8, 1);
  merged.Merge(small);
  CHECK(merged.count() == 5 && Near(perfbench::Summarize(merged).p50, 3));
}

void TestOverhead() {
  // 110 ns/op traced against 100 ns/op untraced: 10 %.
  CHECK(Near(perfbench::OverheadPct(1100, 10, 2000, 20), 10));
  CHECK(Near(perfbench::OverheadPct(900, 10, 1000, 10), -10));
  CHECK(Near(perfbench::OverheadPct(1, 0, 1, 1), 0));
  // 125 ns/op with obs against 100 ns/op without: obs takes 20 % of 125.
  CHECK(Near(perfbench::ShareOfOverhead(
                 perfbench::OverheadPct(1250, 10, 1000, 10)),
             0.2));
  CHECK(Near(perfbench::ShareOfOverhead(0), 0));
  CHECK(Near(perfbench::ShareOfOverhead(-20), -0.25));
}

}  // namespace

int main() {
  TestNearestRank();
  TestSampleCountRule();
  TestSpanAccounting();
  TestSamples();
  TestOverhead();
  if (failures != 0) {
    std::fprintf(stderr, "stats_test: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("stats_test: all checks passed\n");
  return 0;
}
