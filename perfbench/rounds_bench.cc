// Rounds benchmark: four seeded clinical workloads driven through the
// public functions of the Fig. 5 modules (doc, baseapp, mark, trim, slim,
// slimpad.dmi, slimpad.app, obs).
//
//   rounds_bench --workload rounds|consult|shift|handoff --seed N
//                --seconds S --trace 0|1 [--source-id ID]
//
// Untraced (--trace 0) runs measure the end-to-end metrics; a traced run
// records a span around every call the benchmark makes into a layer and
// reports per-layer metrics. It runs from the checkout root and keeps its
// files under kWorkdir. Human-readable lines come first; the last
// line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// perfbench/run.py builds this program and is the documented entry point.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.h"
#include "ops.h"
#include "stats.h"
#include "tracer.h"

namespace perfbench {
namespace {

constexpr int kRoundsPatients = 16;
constexpr int kWardPatients = 256;
constexpr int kRoundsSetups = 25;
constexpr int kWardSetups = 11;
constexpr size_t kConsultPool = 200;
constexpr size_t kSpanCap = 400000;
/// Scratch pad files, span traces and result files, relative to the root.
const std::string kWorkdir = ".bench_build/work";

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string source_id = "unknown";
};

/// Seed of op `i` (its own census, consult pick or edit script).
uint64_t OpSeed(uint64_t seed, uint64_t i) {
  return seed * 0x9E3779B97F4A7C15ULL + i * 0xBF58476D1CE4E5B9ULL + 1;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double Median(std::vector<double> v) { return Percentile(v, 50); }
double Median(const Samples& s) { return Median(s.values()); }

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;
};

/// \brief Everything one run prints: counts, metrics and human notes.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool run_checks_ok = true;
  std::vector<Metric> metrics;     ///< Printed in the final JSON line.
  std::vector<Metric> details;     ///< Printed only as human lines.

  void Add(std::string name, double value, std::string unit, size_t n) {
    metrics.push_back({std::move(name), value, std::move(unit), n});
  }
  void Detail(std::string name, double value, std::string unit, size_t n) {
    details.push_back({std::move(name), value, std::move(unit), n});
  }
  void Count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Adds `prefix`_p50 and _p99 details (µs) with the sample-count rule noted.
void DetailLatency(Report* rep, const std::string& prefix, const Samples& us) {
  Summary s = Summarize(us);
  rep->Detail(prefix + "_p50_us", s.p50, "us", s.n);
  rep->Detail(prefix + "_p99_us", s.p99, "us", s.n);
  if (!TailReportable(s.n, 99)) {
    rep->Detail(prefix + "_tail_p" + std::to_string(int(s.tail_p)) + "_us",
                s.tail, "us", s.n);
  }
}

/// The end-to-end metrics every workload reports. The gated latency is the
/// upper quartile: the host alternates between a fast and a slow speed for
/// seconds at a time, and the median of a run falls between the two modes
/// (ten-seed spread up to 19%) while the upper quartile stays in one (up to
/// 11%). It is also the one tail every workload gives with ten samples
/// beyond it (handoff makes under a hundred ops a run). The median is a
/// detail line; DetailLatency prints the higher tails.
void AddCommon(Report* rep, const std::vector<double>& setup_s,
               const Samples& op_ms) {
  Summary s = Summarize(op_ms);
  rep->Add("setup_s", Median(setup_s), "s", setup_s.size());
  rep->Add("op_p75_ms", s.p75, "ms", s.n);
  rep->Add("peak_rss_mb", PeakRssMb(), "MB", 1);
  rep->Detail("op_p50_ms", s.p50, "ms", s.n);
}

// ---------------------------------------------------------------------------
// Deployments
// ---------------------------------------------------------------------------

/// \brief A census opened in a base layer plus a pad built on it.
struct Ward {
  std::unique_ptr<BaseLayer> base;
  std::unique_ptr<PadState> pad;
};

Status BuildWard(int patients, uint64_t seed, Ward* ward) {
  ward->pad.reset();
  ward->base = std::make_unique<BaseLayer>();
  SLIM_RETURN_NOT_OK(ward->base->Open(MakeCensus(patients, seed)));
  ward->pad = std::make_unique<PadState>(ward->base.get());
  Gestures g{ward->pad.get()};
  SLIM_RETURN_NOT_OK(g.BuildFullPad(patients));
  return CollectMarked(ward->pad.get());
}

/// \brief The timed set-ups of one run. The first builds the working
/// state before the op loop. An untraced loop then builds and throws away
/// a spare copy at each of `count - 1` evenly spaced times, with the op
/// clock stopped, so that setup_s samples the host's speed across the run
/// rather than in its first second alone.
class Setups {
 public:
  Setups(int count, std::function<Status()> spare)
      : count_(static_cast<size_t>(count)), spare_(std::move(spare)) {}

  Status First(const std::function<Status()>& setup) { return Timed(setup); }
  /// Spreads the spares over the `run_ns` from now.
  void Spread(int64_t run_ns) {
    start_ = NowNs();
    run_ns_ = run_ns;
  }
  Status Spare() { return Timed(spare_); }
  /// Builds a spare when one is due; the loop calls it between ops.
  Status Poll() {
    size_t done = seconds_.size();
    if (done >= count_ ||
        NowNs() < start_ + run_ns_ * static_cast<int64_t>(done) /
                               static_cast<int64_t>(count_)) {
      return Status::OK();
    }
    return Spare();
  }
  /// Builds the spares not yet due.
  Status Finish() {
    while (seconds_.size() < count_) SLIM_RETURN_NOT_OK(Spare());
    return Status::OK();
  }
  const std::vector<double>& seconds() const { return seconds_; }

 private:
  Status Timed(const std::function<Status()>& setup) {
    int64_t t0 = NowNs();
    SLIM_RETURN_NOT_OK(setup());
    seconds_.push_back((NowNs() - t0) / 1e9);
    return Status::OK();
  }

  size_t count_;
  std::function<Status()> spare_;
  int64_t start_ = 0;
  int64_t run_ns_ = 0;
  std::vector<double> seconds_;
};

/// One rounds session on the census of op `i`: build the full pad through
/// live selections, open every marked scrap in each viewing style, audit.
/// Census generation and registration are outside the op clock.
bool RoundsSession(uint64_t seed, uint64_t i, Tracer* tr, OpClock* clock,
                   Samples* add_us, Samples* open_us,
                   TraceCounts* counts, Report* rep) {
  BaseLayer base;
  Status opened = base.Open(MakeCensus(kRoundsPatients, OpSeed(seed, i)));
  if (!opened.ok()) {
    NoteFailure("rounds: census not registered: " + opened.ToString());
    return false;
  }
  PadState pad(&base);
  Gestures g{&pad, tr, add_us,
             tr != nullptr ? &counts->triples_per_add : nullptr};
  clock->Start();
  Status built = g.BuildFullPad(kRoundsPatients);
  clock->Stop();
  if (!built.ok() || !CollectMarked(&pad).ok()) {
    NoteFailure("rounds: pad not built: " + built.ToString());
    return false;
  }
  uint64_t opens = 0;
  clock->Start();
  uint64_t failed_opens = OpenAll(pad, tr, clock, open_us, &opens);
  bool audited = Audit(pad, tr);
  clock->Stop();
  rep->attempted += opens;
  rep->failed += failed_opens;
  return audited;
}

// ---------------------------------------------------------------------------
// Traced-run bookkeeping
// ---------------------------------------------------------------------------

/// Metric updates recorded so far in obs's default registry: counter
/// increments plus histogram records. Gauge sets and obs trace spans are
/// not counted.
uint64_t ObsUpdates() {
  slim::obs::MetricsSnapshot snap = slim::obs::DefaultRegistry().Snapshot();
  uint64_t n = 0;
  for (const auto& counter : snap.counters) n += counter.second;
  for (const auto& histogram : snap.histograms) n += histogram.second.count;
  return n;
}

/// \brief Per-mode op counts and timed wall of a traced run's blocks:
/// A traced, B untraced, C untraced with obs::SetDisabled(true). The obs
/// updates are those of the plain blocks, which replay nothing.
struct Blocks {
  enum Mode { kTraced, kPlain, kObsOff, kModes };
  double wall_ns[kModes] = {0, 0, 0};
  uint64_t ops[kModes] = {0, 0, 0};
  uint64_t obs_updates = 0;
};

/// Runs `op(i, tracer, clock)` in interleaved blocks of `block` ops — the
/// same op indices traced, plain and with obs disabled, alternating the
/// order — until `deadline` or the span cap; returns the per-mode totals.
Blocks RunBlocks(const std::function<bool(uint64_t, Tracer*, OpClock*)>& op,
                 size_t block, int64_t deadline, Tracer* tr, Report* rep) {
  Blocks blocks;
  uint64_t next = 0;
  for (int b = 0; NowNs() < deadline && tr->spans().size() < kSpanCap; ++b) {
    const Blocks::Mode order[2][3] = {
        {Blocks::kTraced, Blocks::kPlain, Blocks::kObsOff},
        {Blocks::kObsOff, Blocks::kPlain, Blocks::kTraced}};
    for (Blocks::Mode mode : order[b % 2]) {
      slim::obs::SetDisabled(mode == Blocks::kObsOff);
      uint64_t updates0 = mode == Blocks::kPlain ? ObsUpdates() : 0;
      for (uint64_t i = next; i < next + block; ++i) {
        OpClock clock;
        tr->set_op(static_cast<uint32_t>(i));
        bool ok = op(i, mode == Blocks::kTraced ? tr : nullptr, &clock);
        rep->Count(ok);
        blocks.wall_ns[mode] += static_cast<double>(clock.total);
        ++blocks.ops[mode];
      }
      if (mode == Blocks::kPlain) blocks.obs_updates += ObsUpdates() - updates0;
      slim::obs::SetDisabled(false);
    }
    next += block;
  }
  return blocks;
}

// ---------------------------------------------------------------------------
// Shift: one editor, two readers
// ---------------------------------------------------------------------------

struct ShiftSamples {
  Samples edit_us;
  Samples consult_us;
  double edit_wall_ns = 0;
  double consult_wall_ns = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

enum class ShiftMode { kBoth, kEditorOnly, kReadersOnly };

/// \brief The shared state of a shift: the pad, its consult pool (the
/// readers take its cases in turn), the editor and the readers' op counts.
struct Shift {
  PadState* pad;
  const std::vector<ConsultCase>* pool;
  Editor* editor;
  uint64_t reader_ops[2] = {0, 0};
};

void ReaderLoop(Shift* shift, int r, const std::atomic<bool>* stop,
                Tracer* tr, TraceCounts* counts, ShiftSamples* out) {
  const std::vector<ConsultCase>& pool = *shift->pool;
  while (!stop->load(std::memory_order_acquire)) {
    uint64_t n = shift->reader_ops[r]++;
    const ConsultCase& c = pool[(2 * n + r) % pool.size()];
    if (tr != nullptr) tr->set_op(static_cast<uint32_t>((r + 1) << 28 | n));
    OpClock clock;
    clock.Start();
    bool ok = RunConsult(*shift->pad, c, tr, &clock, counts, false);
    clock.Stop();
    if (n % 4 == 0) ok = ok && CheckShiftInvariants(*shift->pad);
    out->consult_us.Add(clock.total / 1e3);
    out->consult_wall_ns += static_cast<double>(clock.total);
    ++out->attempted;
    if (!ok) ++out->failed;
  }
}

/// Runs one shift block of `duration_ns`. The editor stops at a cycle
/// boundary after the block's end; readers run until the editor stops.
void RunShiftBlock(Shift* shift, ShiftMode mode, int64_t duration_ns,
                   Tracer* editor_tr, Tracer* reader_tr[2],
                   TraceCounts* counts, ShiftSamples* out) {
  std::atomic<bool> stop{false};
  ShiftSamples reader_out[2];
  TraceCounts reader_counts[2];
  std::vector<std::thread> readers;
  if (mode != ShiftMode::kEditorOnly) {
    for (int r = 0; r < 2; ++r) {
      readers.emplace_back(ReaderLoop, shift, r, &stop,
                           reader_tr != nullptr ? reader_tr[r] : nullptr,
                           &reader_counts[r], &reader_out[r]);
    }
  }
  // The calling thread is the editor.
  int64_t deadline = NowNs() + duration_ns;
  if (mode == ShiftMode::kReadersOnly) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(duration_ns));
  } else {
    Editor& ed = *shift->editor;
    while (NowNs() < deadline || !ed.at_cycle_start()) {
      if (editor_tr != nullptr) {
        editor_tr->set_op(static_cast<uint32_t>(ed.edits()));
      }
      OpClock clock;
      Status st = ed.Step(editor_tr, &clock);
      if (!st.ok()) NoteFailure("shift edit: " + st.ToString());
      out->edit_us.Add(clock.total / 1e3);
      out->edit_wall_ns += static_cast<double>(clock.total);
      ++out->attempted;
      if (!st.ok()) ++out->failed;
    }
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  for (int r = 0; r < 2; ++r) {
    out->consult_us.Merge(reader_out[r].consult_us);
    out->consult_wall_ns += reader_out[r].consult_wall_ns;
    out->attempted += reader_out[r].attempted;
    out->failed += reader_out[r].failed;
    counts->consults += reader_counts[r].consults;
    counts->probes += reader_counts[r].probes;
    counts->rows_examined += reader_counts[r].rows_examined;
    counts->answers += reader_counts[r].answers;
    counts->step_us += reader_counts[r].step_us;
    counts->total_us += reader_counts[r].total_us;
  }
}

/// Runs the shift's three interference modes in turn for `rounds` rounds
/// of `block_ns` each; returns write and read interference ratios.
std::pair<double, double> Interference(Shift* shift, int rounds,
                                       int64_t block_ns, Report* rep) {
  ShiftSamples both, editor_only, readers_only;
  TraceCounts unused;
  for (int i = 0; i < rounds; ++i) {
    RunShiftBlock(shift, ShiftMode::kBoth, block_ns, nullptr, nullptr,
                  &unused, &both);
    RunShiftBlock(shift, ShiftMode::kEditorOnly, block_ns, nullptr, nullptr,
                  &unused, &editor_only);
    RunShiftBlock(shift, ShiftMode::kReadersOnly, block_ns, nullptr, nullptr,
                  &unused, &readers_only);
  }
  for (const ShiftSamples* s : {&both, &editor_only, &readers_only}) {
    rep->attempted += s->attempted;
    rep->failed += s->failed;
  }
  double ed = Median(editor_only.edit_us);
  double rd = Median(readers_only.consult_us);
  return {ed > 0 ? Median(both.edit_us) / ed : 0,
          rd > 0 ? Median(both.consult_us) / rd : 0};
}

// ---------------------------------------------------------------------------
// Per-layer metrics
// ---------------------------------------------------------------------------

/// \brief What a traced run hands to the per-layer report.
struct TracedRun {
  std::vector<Span> spans;
  double timed_wall_ns = 0;  ///< Traced (mode A) ops' timed wall.
  uint64_t traced_ops = 0;
  double trace_overhead_pct = 0;
  double obs_overhead_pct = 0;
  double obs_calls_per_op = 0;  ///< obs updates per plain-block op.
  TraceCounts counts;
  double write_interference = 0;
  double read_interference = 0;
  double limbo_end = 0;
  double reclaimed_per_edit = 0;
};

/// The traced run's wall, op count and overheads from its blocks.
void TakeBlocks(const Blocks& b, TracedRun* run) {
  run->timed_wall_ns = b.wall_ns[Blocks::kTraced];
  run->traced_ops = b.ops[Blocks::kTraced];
  run->trace_overhead_pct = OverheadPct(b.wall_ns[Blocks::kTraced],
                                        b.ops[Blocks::kTraced],
                                        b.wall_ns[Blocks::kPlain],
                                        b.ops[Blocks::kPlain]);
  run->obs_overhead_pct =
      OverheadPct(b.wall_ns[Blocks::kPlain], b.ops[Blocks::kPlain],
                  b.wall_ns[Blocks::kObsOff], b.ops[Blocks::kObsOff]);
  run->obs_calls_per_op =
      static_cast<double>(b.obs_updates) /
      std::max<double>(1, static_cast<double>(b.ops[Blocks::kPlain]));
}

/// Median duration of the spans named `name`, in `unit_ns` units.
double SpanMedian(const TracedRun& run, const char* name, double unit_ns,
                  size_t* n) {
  int id = SpanNames::Get().Find(name);
  std::vector<double> d =
      id < 0 ? std::vector<double>{}
             : DurationsOf(run.spans, static_cast<uint16_t>(id), unit_ns);
  *n = d.size();
  return Median(std::move(d));
}

void AddLayerMetrics(const TracedRun& run, Report* rep) {
  std::vector<LayerTotals> totals = TotalsByLayer(run.spans, kLayerCount);
  double ops = std::max<double>(1, static_cast<double>(run.traced_ops));
  for (size_t l = 0; l < kLayerCount; ++l) {
    std::string layer = LayerName(l);
    if (l == kObs) {
      // obs runs inside every layer's calls, where no span reaches: its
      // calls are the metric updates of the plain blocks and its share the
      // time the obs-off blocks save. Its calls return no status, so there
      // is no obs.errors.
      rep->Add("obs.calls", run.obs_calls_per_op, "count/op", run.traced_ops);
      rep->Add("obs.self_share", ShareOfOverhead(run.obs_overhead_pct),
               "ratio", run.traced_ops);
      continue;
    }
    rep->Add(layer + ".calls", totals[l].calls / ops, "count/op",
             run.traced_ops);
    rep->Add(layer + ".errors", static_cast<double>(totals[l].errors), "count",
             totals[l].calls);
    rep->Add(layer + ".self_share",
             run.timed_wall_ns > 0 ? totals[l].self_ns / run.timed_wall_ns : 0,
             "ratio", run.traced_ops);
  }
  rep->Add("unattributed_share",
           UnattributedShare(run.spans, static_cast<int64_t>(run.timed_wall_ns)),
           "ratio", run.traced_ops);
  rep->Add("trace_overhead_pct", run.trace_overhead_pct, "%", run.traced_ops);
  rep->Add("obs.overhead_pct", run.obs_overhead_pct, "%", run.traced_ops);

  struct Timed {
    const char* metric;
    const char* span;
    double unit_ns;
    const char* unit;
  };
  static const Timed kTimed[] = {
      {"baseapp.select_us", "baseapp.select", 1e3, "us"},
      {"baseapp.navigate_us", "baseapp.navigate", 1e3, "us"},
      {"baseapp.extract_us", "baseapp.extract", 1e3, "us"},
      {"mark.create_us", "mark.create", 1e3, "us"},
      {"mark.resolve_us", "mark.resolve", 1e3, "us"},
      {"mark.audit_ms", "mark.audit", 1e6, "ms"},
      {"mark.save_ms", "mark.save", 1e6, "ms"},
      {"mark.load_ms", "mark.load", 1e6, "ms"},
      {"slimpad.dmi.rebuild_ms", "slimpad.dmi.rebuild", 1e6, "ms"},
      {"trim.save_ms", "trim.save", 1e6, "ms"},
      {"trim.load_ms", "trim.load", 1e6, "ms"},
      {"slim.parse_us", "slim.parse", 1e3, "us"},
      {"doc.xml_write_ms", "doc.xml_write", 1e6, "ms"},
      {"doc.xml_parse_ms", "doc.xml_parse", 1e6, "ms"},
  };
  for (const Timed& t : kTimed) {
    size_t n = 0;
    double v = SpanMedian(run, t.span, t.unit_ns, &n);
    rep->Add(t.metric, v, t.unit, n);
  }

  // Every DMI mutator (reads and the rebuild replay excluded).
  std::vector<double> writes;
  std::vector<std::pair<std::string, Layer>> names = SpanNames::Get().All();
  for (const Span& s : run.spans) {
    const std::string& name = names[s.name].first;
    if (s.layer == kDmi && name.find(".get_") == std::string::npos &&
        name.find("rebuild") == std::string::npos) {
      writes.push_back(s.duration() / 1e3);
    }
  }
  rep->Add("slimpad.dmi.write_us", Median(writes), "us", writes.size());

  const TraceCounts& c = run.counts;
  double mean_triples = 0;
  for (double v : c.triples_per_add) mean_triples += v;
  if (!c.triples_per_add.empty()) mean_triples /= c.triples_per_add.size();
  rep->Add("trim.triples_per_gesture", mean_triples, "count",
           c.triples_per_add.size());
  rep->Add("trim.probes_per_consult",
           c.consults > 0 ? double(c.probes) / c.consults : 0, "count",
           c.consults);
  rep->Add("trim.probe_share", c.total_us > 0 ? c.step_us / c.total_us : 0,
           "ratio", c.consults);
  rep->Add("trim.write_interference", run.write_interference, "ratio", 0);
  rep->Add("trim.read_interference", run.read_interference, "ratio", 0);
  rep->Add("trim.limbo_end", run.limbo_end, "count", 1);
  rep->Add("trim.reclaimed_per_edit", run.reclaimed_per_edit, "count", 0);
  rep->Add("trim.file_bytes_per_triple",
           c.saved_triples > 0 ? c.pad_bytes / c.saved_triples : 0, "B", 0);
  rep->Add("slim.rows_examined_per_answer",
           double(c.rows_examined) / std::max<double>(1, double(c.answers)),
           "count", c.consults);
  rep->Add("slim.query_nav_ratio", c.nav_ns > 0 ? c.query_ns / c.nav_ns : 0,
           "ratio", c.consults);
}

/// The probe pass: after the op loop, the calls a workload does not make
/// itself are made on its own final state, a few times each, so every
/// per-layer metric is measured on every workload. Spans carry kProbe.
void ProbePass(PadState& pad, BaseLayer* receiver_base,
               uint64_t seed, bool with_shift,
               Tracer* tr, TracedRun* run, Report* rep) {
  tr->set_phase_flags(Span::kProbe);
  OpClock clock;  // The probe's wall time is not reported.
  clock.Start();
  std::vector<ConsultCase> pool = MakeConsultPool(pad, OpSeed(seed, 7), 8);
  for (const ConsultCase& c : pool) {
    rep->Count(RunConsult(pad, c, tr, &clock, &run->counts, true));
  }
  uint64_t opens = 0;
  uint64_t failed = OpenAll(pad, tr, &clock, nullptr, &opens, 24);
  rep->attempted += opens;
  rep->failed += failed;
  rep->Count(Audit(pad, tr));
  std::unique_ptr<PadState> receiver;
  HandoffTimes times;
  rep->Count(Handoff(pad, receiver_base, kWorkdir + "/probe.pad", tr,
                     &clock, &times, &run->counts, &receiver));
  receiver.reset();

  const slim::trim::TripleStore& store = pad.app->store();
  slim::trim::TripleStore::EpochStats before = store.GetEpochStats();
  Editor editor(&pad, OpSeed(seed, 9));
  editor.triples_per_add = &run->counts.triples_per_add;
  for (int i = 0; i < 4 * Editor::kCycle; ++i) {
    rep->Count(editor.Step(tr, &clock).ok());
  }
  tr->set_phase_flags(0);
  if (with_shift) {
    std::vector<ConsultCase> shift_pool =
        MakeConsultPool(pad, OpSeed(seed, 8), 16);
    Shift shift{&pad, &shift_pool, &editor};
    std::tie(run->write_interference, run->read_interference) =
        Interference(&shift, 2, 150'000'000, rep);
  }
  slim::trim::TripleStore::EpochStats after = store.GetEpochStats();
  run->limbo_end = static_cast<double>(after.limbo);
  run->reclaimed_per_edit =
      static_cast<double>(after.reclaimed - before.reclaimed) /
      std::max<double>(1, static_cast<double>(editor.edits()));
}

/// Merges per-thread span lists, re-basing parent indices.
void AppendSpans(const Tracer& tr, std::vector<Span>* out) {
  int32_t base = static_cast<int32_t>(out->size());
  for (Span s : tr.spans()) {
    if (s.parent >= 0) s.parent += base;
    out->push_back(s);
  }
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// The set-ups of a workload whose state is one ward of op 0's census;
/// builds the first into `ward`.
Result<Setups> WardSetups(int patients, uint64_t seed, int count, Ward* ward) {
  Setups setups(count, [patients, seed] {
    Ward spare;
    return BuildWard(patients, OpSeed(seed, 0), &spare);
  });
  SLIM_RETURN_NOT_OK(setups.First(
      [&] { return BuildWard(patients, OpSeed(seed, 0), ward); }));
  return setups;
}

Status RunRounds(const Options& o, Report* rep, TracedRun* run) {
  Ward ward;
  SLIM_ASSIGN_OR_RETURN(
      Setups setups,
      WardSetups(kRoundsPatients, o.seed, kRoundsSetups, &ward));
  // Warm-up sessions: not measured.
  TraceCounts discard;
  Report warm;
  for (uint64_t i = 0; i < 20; ++i) {
    OpClock clock;
    RoundsSession(o.seed, 1'000'000 + i, nullptr, &clock, nullptr, nullptr,
                  &discard, &warm);
  }
  int64_t deadline = NowNs() + static_cast<int64_t>(o.seconds * 1e9);
  if (!o.trace) {
    Samples session_ms, add_us, open_us;
    setups.Spread(deadline - NowNs());
    for (uint64_t i = 0; NowNs() < deadline; ++i) {
      SLIM_RETURN_NOT_OK(setups.Poll());
      OpClock clock;
      rep->Count(RoundsSession(o.seed, i, nullptr, &clock, &add_us, &open_us,
                               &discard, rep));
      session_ms.Add(clock.total / 1e6);
    }
    SLIM_RETURN_NOT_OK(setups.Finish());
    AddCommon(rep, setups.seconds(), session_ms);
    rep->Detail("session_ms", Median(session_ms), "ms", session_ms.count());
    DetailLatency(rep, "add_scrap", add_us);
    DetailLatency(rep, "open", open_us);
    return Status::OK();
  }
  Tracer tr(kSpanCap + 50000);
  TakeBlocks(RunBlocks(
                 [&](uint64_t i, Tracer* t, OpClock* clock) {
                   return RoundsSession(o.seed, i, t, clock, nullptr, nullptr,
                                        &run->counts, rep);
                 },
                 4, deadline, &tr, rep),
             run);
  ProbePass(*ward.pad, ward.base.get(), o.seed, true, &tr, run, rep);
  run->spans = std::move(tr.spans());
  return Status::OK();
}

Status RunConsultWorkload(const Options& o, Report* rep, TracedRun* run) {
  Ward ward;
  SLIM_ASSIGN_OR_RETURN(Setups setups,
                        WardSetups(kWardPatients, o.seed, kWardSetups, &ward));
  PadState& pad = *ward.pad;
  std::vector<ConsultCase> pool = MakeConsultPool(pad, o.seed, kConsultPool);
  auto consult = [&](uint64_t i, Tracer* t, OpClock* clock,
                     TraceCounts* counts, bool nav) {
    clock->Start();
    bool ok = RunConsult(pad, pool[i % pool.size()], t, clock, counts, nav);
    clock->Stop();
    return ok;
  };
  TraceCounts discard;
  for (uint64_t i = 0; i < 50; ++i) {
    OpClock clock;
    consult(1'000'000 + i, nullptr, &clock, &discard, false);
  }
  int64_t deadline = NowNs() + static_cast<int64_t>(o.seconds * 1e9);
  if (!o.trace) {
    Samples consult_ms, consult_us;
    setups.Spread(deadline - NowNs());
    for (uint64_t i = 0; NowNs() < deadline; ++i) {
      SLIM_RETURN_NOT_OK(setups.Poll());
      OpClock clock;
      rep->Count(consult(i, nullptr, &clock, &discard, false));
      consult_ms.Add(clock.total / 1e6);
      consult_us.Add(clock.total / 1e3);
    }
    SLIM_RETURN_NOT_OK(setups.Finish());
    AddCommon(rep, setups.seconds(), consult_ms);
    DetailLatency(rep, "consult", consult_us);
    return Status::OK();
  }
  Tracer tr(kSpanCap + 50000);
  TakeBlocks(RunBlocks(
                 [&](uint64_t i, Tracer* t, OpClock* clock) {
                   return consult(i, t, clock, &run->counts, t != nullptr);
                 },
                 16, deadline, &tr, rep),
             run);
  ProbePass(pad, ward.base.get(), o.seed, true, &tr, run, rep);
  run->spans = std::move(tr.spans());
  return Status::OK();
}

Status RunShiftWorkload(const Options& o, Report* rep, TracedRun* run) {
  Ward ward;
  SLIM_ASSIGN_OR_RETURN(Setups setups,
                        WardSetups(kWardPatients, o.seed, kWardSetups, &ward));
  PadState& pad = *ward.pad;
  std::vector<ConsultCase> pool = MakeConsultPool(pad, o.seed, kConsultPool);
  const size_t start_triples = pad.app->store().size();
  Editor editor(&pad, o.seed);
  Shift shift{&pad, &pool, &editor};
  const slim::trim::TripleStore::EpochStats epoch0 =
      pad.app->store().GetEpochStats();
  {
    ShiftSamples warm;
    TraceCounts unused;
    RunShiftBlock(&shift, ShiftMode::kBoth, 300'000'000, nullptr, nullptr,
                  &unused, &warm);
  }
  int64_t run_ns = static_cast<int64_t>(o.seconds * 1e9);
  if (!o.trace) {
    ShiftSamples s;
    TraceCounts unused;
    // The spare set-ups run between equal segments, every thread stopped.
    for (int k = 0; k < kWardSetups; ++k) {
      if (k > 0) SLIM_RETURN_NOT_OK(setups.Spare());
      RunShiftBlock(&shift, ShiftMode::kBoth, run_ns / kWardSetups, nullptr,
                    nullptr, &unused, &s);
    }
    rep->attempted += s.attempted;
    rep->failed += s.failed;
    // The op is a reader's consult; edit latency is a detail line only
    // (README.md, "End-to-end metrics", says why).
    Samples consult_ms;
    for (double us : s.consult_us.values()) consult_ms.Add(us / 1e3);
    AddCommon(rep, setups.seconds(), consult_ms);
    DetailLatency(rep, "consult", s.consult_us);
    DetailLatency(rep, "edit", s.edit_us);
  } else {
    // Traced, plain and obs-off blocks with both sides running, then the
    // interference modes, until the run's time is spent.
    Tracer editor_tr(kSpanCap / 2);
    Tracer reader_tr0(kSpanCap / 4), reader_tr1(kSpanCap / 4);
    Tracer* readers_tr[2] = {&reader_tr0, &reader_tr1};
    editor.triples_per_add = &run->counts.triples_per_add;
    ShiftSamples mode[3];
    uint64_t obs_updates = 0;
    int64_t deadline = NowNs() + run_ns * 3 / 4;
    const int64_t block_ns = 250'000'000;
    while (NowNs() < deadline &&
           editor_tr.spans().size() + reader_tr0.spans().size() +
                   reader_tr1.spans().size() <
               kSpanCap) {
      for (int m = 0; m < 3; ++m) {
        slim::obs::SetDisabled(m == Blocks::kObsOff);
        bool traced = m == Blocks::kTraced;
        uint64_t updates0 = m == Blocks::kPlain ? ObsUpdates() : 0;
        RunShiftBlock(&shift, ShiftMode::kBoth, block_ns,
                      traced ? &editor_tr : nullptr,
                      traced ? readers_tr : nullptr, &run->counts, &mode[m]);
        if (m == Blocks::kPlain) obs_updates += ObsUpdates() - updates0;
        slim::obs::SetDisabled(false);
      }
    }
    for (const ShiftSamples& s : mode) {
      rep->attempted += s.attempted;
      rep->failed += s.failed;
    }
    // Mean time per op, each side weighted by its share of plain time.
    auto overhead = [&](const ShiftSamples& a, const ShiftSamples& b) {
      double e = OverheadPct(a.edit_wall_ns, a.edit_us.count(), b.edit_wall_ns,
                             b.edit_us.count());
      double c = OverheadPct(a.consult_wall_ns, a.consult_us.count(),
                             b.consult_wall_ns, b.consult_us.count());
      double we = b.edit_wall_ns / (b.edit_wall_ns + b.consult_wall_ns);
      return e * we + c * (1 - we);
    };
    run->timed_wall_ns = mode[0].edit_wall_ns + mode[0].consult_wall_ns;
    run->traced_ops = mode[0].edit_us.count() + mode[0].consult_us.count();
    run->trace_overhead_pct = overhead(mode[0], mode[1]);
    run->obs_overhead_pct = overhead(mode[1], mode[2]);
    run->obs_calls_per_op =
        static_cast<double>(obs_updates) /
        std::max<double>(1, static_cast<double>(mode[1].edit_us.count() +
                                                mode[1].consult_us.count()));
    std::tie(run->write_interference, run->read_interference) =
        Interference(&shift, 2, run_ns / 24, rep);
    AppendSpans(editor_tr, &run->spans);
    AppendSpans(reader_tr0, &run->spans);
    AppendSpans(reader_tr1, &run->spans);
    Tracer probe_tr;
    ProbePass(pad, ward.base.get(), o.seed, false, &probe_tr, run, rep);
    AppendSpans(probe_tr, &run->spans);
    slim::trim::TripleStore::EpochStats end = pad.app->store().GetEpochStats();
    run->limbo_end = static_cast<double>(end.limbo);
    run->reclaimed_per_edit =
        static_cast<double>(end.reclaimed - epoch0.reclaimed) /
        std::max<double>(1, static_cast<double>(editor.edits()));
  }
  // The script is size-neutral and stops at a cycle boundary.
  bool neutral = pad.app->store().size() == start_triples;
  if (!neutral) {
    std::fprintf(stderr, "shift: triple count %zu, script expects %zu\n",
                 pad.app->store().size(), start_triples);
  }
  rep->run_checks_ok = rep->run_checks_ok && neutral;
  rep->Count(neutral);
  return Status::OK();
}

Status RunHandoff(const Options& o, Report* rep, TracedRun* run) {
  // A set-up is the sender's ward plus the receiving session's base layer.
  auto build = [&o](Ward* ward, std::unique_ptr<BaseLayer>* receiver_base) {
    SLIM_RETURN_NOT_OK(BuildWard(kWardPatients, OpSeed(o.seed, 0), ward));
    *receiver_base = std::make_unique<BaseLayer>();
    return (*receiver_base)
        ->Open(MakeCensus(kWardPatients, OpSeed(o.seed, 0)));
  };
  Ward ward;
  std::unique_ptr<BaseLayer> receiver_base;
  Setups setups(kWardSetups, [&] {
    Ward spare;
    std::unique_ptr<BaseLayer> spare_base;
    return build(&spare, &spare_base);
  });
  SLIM_RETURN_NOT_OK(
      setups.First([&] { return build(&ward, &receiver_base); }));
  PadState& pad = *ward.pad;
  const std::string path = kWorkdir + "/handoff.pad";
  // The sender's pad does not change between handoffs.
  const std::vector<TripleRow> saved = SortedTriples(pad.app->store());
  std::unique_ptr<PadState> receiver;
  auto op = [&](Tracer* t, OpClock* clock, HandoffTimes* times,
                TraceCounts* counts) {
    return Handoff(pad, receiver_base.get(), path, t, clock, times, counts,
                   &receiver, &saved);
  };
  TraceCounts discard;
  for (int i = 0; i < 2; ++i) {
    OpClock clock;
    HandoffTimes times;
    op(nullptr, &clock, &times, &discard);
  }
  int64_t deadline = NowNs() + static_cast<int64_t>(o.seconds * 1e9);
  if (!o.trace) {
    Samples op_ms, save_ms, load_ms;
    setups.Spread(deadline - NowNs());
    while (NowNs() < deadline) {
      SLIM_RETURN_NOT_OK(setups.Poll());
      OpClock clock;
      HandoffTimes times;
      rep->Count(op(nullptr, &clock, &times, &discard));
      op_ms.Add(clock.total / 1e6);
      save_ms.Add(times.save_ms);
      load_ms.Add(times.load_ms);
    }
    SLIM_RETURN_NOT_OK(setups.Finish());
    AddCommon(rep, setups.seconds(), op_ms);
    rep->Detail("save_ms", Median(save_ms), "ms", save_ms.count());
    rep->Detail("load_ms", Median(load_ms), "ms", load_ms.count());
    rep->Detail("pad_file_kb",
                (FileBytes(path) + FileBytes(path + ".marks")) / 1024.0, "KiB",
                1);
    return Status::OK();
  }
  Tracer tr(kSpanCap / 4);
  TakeBlocks(RunBlocks(
                 [&](uint64_t, Tracer* t, OpClock* clock) {
                   HandoffTimes times;
                   return op(t, clock, &times, &run->counts);
                 },
                 1, deadline, &tr, rep),
             run);
  receiver.reset();
  ProbePass(pad, receiver_base.get(), o.seed, true, &tr, run, rep);
  run->spans = std::move(tr.spans());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

bool ObsCompiledIn() { return SLIM_OBS_ENABLED != 0; }

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string ProvenanceJson(const Options& o) {
  return std::string("{\"workload\": \"") + JsonEscape(o.workload) +
         "\", \"seed\": " + std::to_string(o.seed) +
         ", \"seconds\": " + Num(o.seconds) +
         ", \"trace\": " + (o.trace ? "1" : "0") + ", \"source\": \"" +
         JsonEscape(o.source_id) + "\", \"build_type\": \"" +
         PERFBENCH_BUILD_TYPE + "\", \"cxx_flags\": \"" +
         JsonEscape(PERFBENCH_CXX_FLAGS) + "\", \"compiler\": \"" +
         PERFBENCH_COMPILER + "\", \"obs_compiled_in\": " +
         (ObsCompiledIn() ? "true" : "false") +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         "}";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + Num(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

std::string SamplesJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": " + std::to_string(metrics[i].samples);
  }
  return out + "}";
}

/// Refuses builds whose numbers would mislead: assertions on or sanitizers.
const char* ConfigProblem() {
#ifndef NDEBUG
  return "built without NDEBUG (assertions on)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#endif
  if (std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr) {
    return "built with a sanitizer";
  }
  return nullptr;
}

int Usage() {
  std::fprintf(stderr,
               "usage: rounds_bench --workload rounds|consult|shift|handoff "
               "--seed N --seconds S --trace 0|1 [--source-id ID]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    std::string v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") o.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") o.trace = v == "1";
    else if (k == "--source-id") o.source_id = v;
    else return Usage();
  }
  if ((argc - 1) % 2 != 0 || o.seconds <= 0) return Usage();
  if (const char* problem = ConfigProblem()) {
    std::fprintf(stderr, "rounds_bench: refusing to report: %s\n", problem);
    return 3;
  }
  std::error_code ec;
  std::filesystem::create_directories(kWorkdir, ec);

  Report rep;
  TracedRun run;
  int64_t t0 = NowNs();
  Status st;
  if (o.workload == "rounds") st = RunRounds(o, &rep, &run);
  else if (o.workload == "consult") st = RunConsultWorkload(o, &rep, &run);
  else if (o.workload == "shift") st = RunShiftWorkload(o, &rep, &run);
  else if (o.workload == "handoff") st = RunHandoff(o, &rep, &run);
  else return Usage();
  if (!st.ok()) {
    std::fprintf(stderr, "rounds_bench: %s setup failed: %s\n",
                 o.workload.c_str(), st.ToString().c_str());
    return 1;
  }
  std::string trace_file;
  if (o.trace) {
    AddLayerMetrics(run, &rep);
    trace_file = kWorkdir + "/" + o.workload + ".trace.tsv";
    if (!WriteSpans(trace_file, run.spans, t0)) trace_file = "(write failed)";
  }
  rep.Detail("census_mrn_repairs", static_cast<double>(g_mrn_repairs.load()),
             "count", 1);
  rep.Detail("fail_ratio",
             rep.attempted > 0 ? double(rep.failed) / rep.attempted : 0,
             "ratio", rep.attempted);

  std::string provenance = ProvenanceJson(o);
  std::printf("provenance %s\n", provenance.c_str());
  for (const std::vector<Metric>* list : {&rep.metrics, &rep.details}) {
    for (const Metric& m : *list) {
      std::printf("%-32s %14.6g %-8s n=%zu\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    }
  }
  if (o.trace) {
    std::printf("spans %zu written to %s\n", run.spans.size(),
                trace_file.c_str());
  }
  bool correct = rep.failed == 0 && rep.run_checks_ok;
  std::string result = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(rep.attempted) +
                       ", \"failed\": " + std::to_string(rep.failed) +
                       ", \"metrics\": " + MetricsJson(rep.metrics) + "}";
  std::ofstream(kWorkdir + "/" + o.workload + ".seed" +
                std::to_string(o.seed) + ".trace" + (o.trace ? "1" : "0") +
                ".result.json")
      << "{\"provenance\": " << provenance << ", \"samples\": "
      << SamplesJson(rep.metrics) << ", \"details\": "
      << MetricsJson(rep.details) << ", \"result\": " << result << "}\n";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
