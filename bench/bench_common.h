#ifndef SLIM_BENCH_BENCH_COMMON_H_
#define SLIM_BENCH_BENCH_COMMON_H_

/// \file bench_common.h
/// \brief Shared helpers for the experiment benches, including the JSON
/// telemetry reporter behind SLIM_BENCH_MAIN (see bench_json.h for the
/// schema and EXPERIMENTS.md §"Bench telemetry" for the methodology).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "bench/bench_json.h"
#include "obs/obs.h"
#include "util/status.h"

namespace slim::bench {

/// Aborts the bench on a non-OK status — setup failures must be loud and
/// point at the failing call site.
inline void CheckOk(const Status& status, const char* what, const char* file,
                    int line) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s:%d: bench setup failed (%s): %s\n", file, line,
                 what, status.ToString().c_str());
    std::abort();
  }
}

#define SLIM_BENCH_CHECK(expr) \
  ::slim::bench::CheckOk((expr), #expr, __FILE__, __LINE__)

/// Bytes the allocator has handed out and not had back (glibc's
/// mallinfo2: arena chunks in use plus mmapped blocks); the difference
/// across a build is what the built structure costs the heap, allocator
/// overhead included. 0 where mallinfo2 is missing.
inline size_t HeapInUseBytes() {
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33)
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
#else
  return 0;
#endif
}

/// \brief Reads the growth of a default-registry obs counter across a
/// bench run, so benches can report *measured* work (selects issued,
/// triples added) instead of re-deriving it from the loop shape.
///
/// With obs compiled out (SLIM_ENABLE_OBS=OFF) the counter never moves, so
/// a raw Delta() of 0 would report as "no work happened" — a lie. Callers
/// should publish through Report(), which emits the measurement only when
/// `enabled()` and otherwise annotates the run as suppressed; the JSON
/// telemetry likewise records `obs_enabled` so bench_report never compares
/// a measured counter against a suppressed one.
class ObsCounterProbe {
 public:
  explicit ObsCounterProbe(const char* name)
      : counter_(obs::DefaultRegistry().GetCounter(name)),
        start_(counter_->value()) {}

  /// True when the instrumentation this probe reads is compiled in.
  static constexpr bool enabled() { return SLIM_OBS_ENABLED != 0; }

  uint64_t Delta() const { return counter_->value() - start_; }

  /// The delta as a per-iteration benchmark counter.
  benchmark::Counter PerIteration() const {
    return benchmark::Counter(static_cast<double>(Delta()),
                              benchmark::Counter::kAvgIterations);
  }

  /// Publishes the probe as `state.counters[label]` when obs is enabled;
  /// with obs compiled out, labels the run "obs-off: counters suppressed"
  /// instead of reporting a misleading zero.
  void Report(benchmark::State& state, const char* label) const {
    if (enabled()) {
      state.counters[label] = PerIteration();
    } else {
      state.SetLabel("obs-off: counters suppressed");
    }
  }

 private:
  obs::Counter* counter_;
  uint64_t start_;
};

// ---------------------------------------------------------------------------
// JSON telemetry reporter (SLIM_BENCH_MAIN)
// ---------------------------------------------------------------------------

/// \brief Console reporter that additionally collects every per-repetition
/// run, grouped by benchmark family, for the slim-bench-v1 JSON document.
class JsonBenchReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& run : report) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      std::string name = run.benchmark_name();
      auto it = index_.find(name);
      if (it == index_.end()) {
        index_[name] = families_.size();
        families_.push_back({std::move(name), {}});
        it = index_.find(families_.back().first);
      }
      families_[it->second].second.push_back(run);
    }
    ConsoleReporter::ReportRuns(report);
  }

  /// Aggregates collected runs: p50/p95 of per-iteration real and CPU time
  /// across repetitions, counter means, in first-report order.
  std::vector<BenchEntry> Entries() const {
    std::vector<BenchEntry> out;
    for (const auto& [name, runs] : families_) {
      if (runs.empty()) continue;
      BenchEntry entry;
      entry.name = name;
      entry.time_unit = benchmark::GetTimeUnitString(runs.front().time_unit);
      entry.iterations = static_cast<uint64_t>(runs.front().iterations);
      entry.repetitions = runs.size();
      std::vector<double> real, cpu;
      for (const Run& run : runs) {
        real.push_back(run.GetAdjustedRealTime());
        cpu.push_back(run.GetAdjustedCPUTime());
      }
      entry.real_p50 = Percentile(real, 50);
      entry.real_p95 = Percentile(real, 95);
      entry.cpu_p50 = Percentile(cpu, 50);
      entry.cpu_p95 = Percentile(cpu, 95);
      for (const auto& [counter_name, counter] : runs.front().counters) {
        double sum = 0;
        for (const Run& run : runs) {
          auto found = run.counters.find(counter_name);
          if (found != run.counters.end()) sum += found->second.value;
        }
        entry.counters.emplace_back(counter_name,
                                    sum / static_cast<double>(runs.size()));
      }
      out.push_back(std::move(entry));
    }
    return out;
  }

 private:
  std::map<std::string, size_t> index_;
  std::vector<std::pair<std::string, std::vector<Run>>> families_;
};

/// Bench binary name from argv[0]: basename minus a "bench_" prefix
/// ("/path/to/bench_query" -> "query").
inline std::string BenchNameFromArgv0(const char* argv0) {
  std::string name = argv0 != nullptr ? argv0 : "bench";
  size_t slash = name.find_last_of("/\\");
  if (slash != std::string::npos) name = name.substr(slash + 1);
  if (name.rfind("bench_", 0) == 0) name = name.substr(6);
  return name;
}

#ifndef SLIM_BENCH_GIT_SHA
#define SLIM_BENCH_GIT_SHA "unknown"
#endif
#ifndef SLIM_BENCH_BUILD_FLAGS
#define SLIM_BENCH_BUILD_FLAGS ""
#endif

/// Whole-process getrusage(RUSAGE_SELF), converted to the slim-bench-v1
/// units (RSS in KiB, CPU in microseconds). On platforms without
/// getrusage the result has `present == false` and the serializer omits
/// the section entirely.
inline BenchRusage CollectBenchRusage() {
  BenchRusage usage;
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    usage.present = true;
#if defined(__APPLE__)
    usage.max_rss_kb = static_cast<uint64_t>(ru.ru_maxrss) / 1024;  // bytes
#else
    usage.max_rss_kb = static_cast<uint64_t>(ru.ru_maxrss);  // already KiB
#endif
    usage.user_cpu_us = static_cast<uint64_t>(ru.ru_utime.tv_sec) * 1000000 +
                        static_cast<uint64_t>(ru.ru_utime.tv_usec);
    usage.sys_cpu_us = static_cast<uint64_t>(ru.ru_stime.tv_sec) * 1000000 +
                       static_cast<uint64_t>(ru.ru_stime.tv_usec);
  }
#endif
  return usage;
}

/// Writes the collected telemetry when the environment asks for it:
/// SLIM_BENCH_JSON names the exact output file; otherwise
/// SLIM_BENCH_JSON_DIR receives one BENCH_<name>.json per binary. Returns
/// nonzero only when a requested write fails (silent no-op otherwise, so
/// plain interactive runs behave exactly like BENCHMARK_MAIN).
inline int WriteBenchJsonIfRequested(const JsonBenchReporter& reporter,
                                     const char* argv0) {
  std::string bench_name = BenchNameFromArgv0(argv0);
  std::string path;
  if (const char* exact = std::getenv("SLIM_BENCH_JSON")) {
    path = exact;
  } else if (const char* dir = std::getenv("SLIM_BENCH_JSON_DIR")) {
    path = std::string(dir) + "/BENCH_" + bench_name + ".json";
  } else {
    return 0;
  }
  BenchReportData report;
  report.bench_name = bench_name;
  report.git_sha = SLIM_BENCH_GIT_SHA;
  report.build_flags = SLIM_BENCH_BUILD_FLAGS;
  report.obs_enabled = ObsCounterProbe::enabled();
  report.entries = reporter.Entries();
  report.rusage = CollectBenchRusage();
  std::ofstream out(path, std::ios::trunc);
  out << BenchReportToJson(report) << "\n";
  out.flush();
  if (!out) {
    std::fprintf(stderr, "bench telemetry: cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(stderr, "bench telemetry: wrote %s\n", path.c_str());
  return 0;
}

}  // namespace slim::bench

/// Drop-in replacement for BENCHMARK_MAIN() that routes console output
/// through JsonBenchReporter and honours SLIM_BENCH_JSON[_DIR].
#define SLIM_BENCH_MAIN()                                                   \
  int main(int argc, char** argv) {                                         \
    char arg0_default[] = "benchmark";                                      \
    char* args_default = arg0_default;                                      \
    if (!argv) {                                                            \
      argc = 1;                                                             \
      argv = &args_default;                                                 \
    }                                                                       \
    ::benchmark::Initialize(&argc, argv);                                   \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;     \
    ::slim::bench::JsonBenchReporter reporter;                              \
    ::benchmark::RunSpecifiedBenchmarks(&reporter);                         \
    ::benchmark::Shutdown();                                                \
    return ::slim::bench::WriteBenchJsonIfRequested(reporter, argv[0]);     \
  }                                                                         \
  int main(int, char**)

#endif  // SLIM_BENCH_BENCH_COMMON_H_
