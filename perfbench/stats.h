#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

/// \file stats.h
/// \brief The rounds benchmark's arithmetic: nearest-rank percentiles with
/// their sample-count rule, and the span accounting of a traced run (self
/// time, unattributed share, tracing overhead). Header-only and free of
/// SLIM dependencies so stats_test.cc checks it on synthetic spans.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// A percentile is reported only with at least this many samples beyond it.
inline constexpr size_t kMinSamplesBeyond = 10;

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n` samples:
/// ceil(p/100 * n), at least 1.
inline size_t NearestRank(size_t n, double p) {
  if (n == 0) return 0;
  // The epsilon keeps 0.9 * 100 == 90 from rounding up to rank 91.
  double exact = p / 100.0 * static_cast<double>(n);
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

/// Nearest-rank percentile of `values` (sorted in place). 0 when empty.
inline double Percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = NearestRank(values.size(), p);
  return values[rank > 0 ? rank - 1 : 0];
}

/// Samples strictly beyond the nearest-rank `p` percentile.
inline size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

/// True when percentile `p` of `n` samples has kMinSamplesBeyond samples
/// beyond it, the condition for reporting it as a tail.
inline bool TailReportable(size_t n, double p) {
  return SamplesBeyond(n, p) >= kMinSamplesBeyond;
}

/// The highest of p99, p90, p75 and p50 that TailReportable allows for `n`
/// samples; 0 when not even the median has ten samples beyond it.
inline double HighestReportableTail(size_t n) {
  for (double p : {99.0, 90.0, 75.0, 50.0}) {
    if (TailReportable(n, p)) return p;
  }
  return 0;
}

/// \brief A latency sample set summarised for printing.
struct Summary {
  size_t n = 0;
  double p50 = 0;
  double p75 = 0;
  double p99 = 0;
  double tail_p = 0;  ///< HighestReportableTail(n).
  double tail = 0;    ///< The value at tail_p (0 when tail_p is 0).
};

inline Summary Summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  s.p50 = Percentile(values, 50);
  s.p75 = Percentile(values, 75);
  s.p99 = Percentile(values, 99);
  s.tail_p = HighestReportableTail(s.n);
  if (s.tail_p > 0) s.tail = Percentile(values, s.tail_p);
  return s;
}

/// \brief A latency sample set of fixed memory: the first `capacity` values,
/// then a uniform reservoir over everything added (Algorithm R). Its
/// storage is allocated and touched up front, so sample counts that grow
/// with the machine's speed never move the process's peak RSS.
class Samples {
 public:
  explicit Samples(size_t capacity = 100000, uint64_t seed = 1)
      : buf_(capacity), state_(seed) {}

  void Add(double v) {
    if (count_ < buf_.size()) {
      buf_[count_] = v;
    } else {
      uint64_t j = Next() % (count_ + 1);
      if (j < buf_.size()) buf_[j] = v;
    }
    ++count_;
  }
  /// Adds every value `other` kept.
  void Merge(const Samples& other) {
    for (double v : other.values()) Add(v);
  }
  /// Values observed in total (the reservoir may hold fewer).
  uint64_t count() const { return count_; }
  std::vector<double> values() const {
    size_t n = count_ < buf_.size() ? static_cast<size_t>(count_) : buf_.size();
    return std::vector<double>(buf_.begin(), buf_.begin() + n);
  }

 private:
  uint64_t Next() {  // splitmix64
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  std::vector<double> buf_;
  uint64_t count_ = 0;
  uint64_t state_;
};

/// Summary of a Samples set; `n` is the count observed.
inline Summary Summarize(const Samples& samples) {
  Summary s = Summarize(samples.values());
  s.n = samples.count();
  s.tail_p = HighestReportableTail(s.n);
  std::vector<double> v = samples.values();
  if (s.tail_p > 0) s.tail = Percentile(v, s.tail_p);
  return s;
}

/// \brief One recorded span of a traced run.
///
/// A span is either a *real* call, made inside an op's timed segment, or a
/// *replay*: after a call that hides a lower layer returns, the benchmark
/// makes the hidden call again on the same input, outside the timed
/// segment, and records it as the child of the call it models. `derived`
/// spans carry a duration computed from the program's own per-step
/// statistics (EXPLAIN ANALYZE) rather than from two clock reads.
struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  ///< Index into the same span list; -1 at top level.
  uint32_t op = 0;      ///< Op id, unique within the run.
  uint16_t name = 0;    ///< Index into the run's span-name table.
  uint8_t layer = 0;    ///< Index into the run's layer table.
  uint8_t flags = 0;    ///< kReplay | kError | kDerived | kProbe.

  static constexpr uint8_t kReplay = 1;
  static constexpr uint8_t kError = 2;
  static constexpr uint8_t kDerived = 4;
  /// Recorded by the probe pass rather than the workload's own op loop.
  static constexpr uint8_t kProbe = 8;

  int64_t duration() const { return end_ns - start_ns; }
  bool is(uint8_t flag) const { return (flags & flag) != 0; }
};

/// Self time of every span: its duration minus its children's durations,
/// clamped at zero (a replayed child can outlast the call it models).
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].duration();
  for (const Span& s : spans) {
    if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= s.duration();
  }
  for (int64_t& v : self) v = std::max<int64_t>(v, 0);
  return self;
}

/// \brief Per-layer totals of one traced op loop.
struct LayerTotals {
  uint64_t calls = 0;
  uint64_t errors = 0;
  int64_t self_ns = 0;
};

/// Sums calls, errors and self time by layer over the spans of the op
/// loop (probe-pass spans excluded). Derived spans add self time but are
/// not calls the benchmark made.
inline std::vector<LayerTotals> TotalsByLayer(const std::vector<Span>& spans,
                                              size_t layer_count) {
  std::vector<LayerTotals> out(layer_count);
  std::vector<int64_t> self = SelfTimes(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.is(Span::kProbe) || s.layer >= layer_count) continue;
    LayerTotals& t = out[s.layer];
    if (!s.is(Span::kDerived)) ++t.calls;
    if (s.is(Span::kError)) ++t.errors;
    t.self_ns += self[i];
  }
  return out;
}

/// Share of the op loop's timed wall time that no top-level real span
/// covers. Real spans run inside the timed segments and top-level ones do
/// not overlap within a thread, so the covered time is their sum; replays
/// run outside the timed segments and do not count.
inline double UnattributedShare(const std::vector<Span>& spans,
                                int64_t timed_wall_ns) {
  if (timed_wall_ns <= 0) return 0;
  int64_t covered = 0;
  for (const Span& s : spans) {
    if (s.parent < 0 && !s.is(Span::kReplay) && !s.is(Span::kProbe)) {
      covered += s.duration();
    }
  }
  return static_cast<double>(timed_wall_ns - covered) /
         static_cast<double>(timed_wall_ns);
}

/// Percent by which the traced timed wall exceeds the untraced wall of the
/// same ops, both as mean time per op.
inline double OverheadPct(double traced_ns, uint64_t traced_ops,
                          double untraced_ns, uint64_t untraced_ops) {
  if (traced_ops == 0 || untraced_ops == 0 || untraced_ns <= 0) return 0;
  double traced = traced_ns / static_cast<double>(traced_ops);
  double untraced = untraced_ns / static_cast<double>(untraced_ops);
  return 100.0 * (traced - untraced) / untraced;
}

/// The share of the slower wall that the faster one saves, from
/// OverheadPct's percent: (slow - fast) / slow. Negative when the blocks
/// meant to be faster were slower.
inline double ShareOfOverhead(double overhead_pct) {
  return overhead_pct <= -100 ? 0 : overhead_pct / (100.0 + overhead_pct);
}

/// Durations (in `unit_ns` units) of every span named `name`, op loop and
/// probe pass together; real and replay spans alike.
inline std::vector<double> DurationsOf(const std::vector<Span>& spans,
                                       uint16_t name, double unit_ns) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(static_cast<double>(s.duration()) / unit_ns);
  }
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
