#ifndef SLIM_BENCH_BENCH_JSON_H_
#define SLIM_BENCH_BENCH_JSON_H_

/// \file bench_json.h
/// \brief Data model and serializer for the continuous perf-telemetry
/// pipeline: one `BENCH_<name>.json` per bench binary, diffable across
/// commits by tools/bench_report.
///
/// This header is deliberately free of benchmark.h so the schema and the
/// percentile math are unit-testable from tests/ without linking Google
/// Benchmark; bench_common.h adds the reporter that fills these structs
/// from live runs.
///
/// Schema (version `slim-bench-v1`):
///   {
///     "schema": "slim-bench-v1",
///     "bench": "query",                // binary name minus "bench_"
///     "git_sha": "9e026d7",            // "-dirty" if uncommitted; "unknown" outside a checkout
///     "build_flags": "Release -O2 ...",
///     "obs_enabled": true,             // SLIM_ENABLE_OBS at compile time
///     "benchmarks": [
///       { "name": "BM_QueryExecute/1024",
///         "time_unit": "us",
///         "iterations": 4096,          // per repetition
///         "repetitions": 3,
///         "real_p50": 12.4, "real_p95": 13.1,   // per-iteration, across reps
///         "cpu_p50": 12.3,  "cpu_p95": 13.0,
///         "counters": { "selects_per_iter": 5.0 } }   // mean across reps
///     ],
///     "rusage": {                      // whole-process getrusage(SELF),
///       "max_rss_kb": 48120,           // additive in v1: absent on old
///       "user_cpu_us": 1821345,        // files, old readers ignore it
///       "sys_cpu_us": 90210
///     }
///   }

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"

namespace slim::bench {

inline constexpr const char* kBenchJsonSchema = "slim-bench-v1";

/// \brief Aggregated result of one benchmark family (all repetitions).
struct BenchEntry {
  std::string name;
  std::string time_unit = "ns";
  uint64_t iterations = 0;   ///< Iterations of one repetition.
  uint64_t repetitions = 0;  ///< How many repetitions fed the percentiles.
  double real_p50 = 0;       ///< Per-iteration real time across repetitions.
  double real_p95 = 0;
  double cpu_p50 = 0;
  double cpu_p95 = 0;
  /// User counters, mean across repetitions, in first-report order.
  std::vector<std::pair<std::string, double>> counters;
};

/// \brief Whole-process resource usage at report time (getrusage SELF).
/// `present` gates serialization so platforms without getrusage — and old
/// documents — simply omit the section; readers must treat it as optional.
struct BenchRusage {
  bool present = false;
  uint64_t max_rss_kb = 0;    ///< Peak resident set, KiB.
  uint64_t user_cpu_us = 0;   ///< User CPU time, microseconds.
  uint64_t sys_cpu_us = 0;    ///< System CPU time, microseconds.
};

/// \brief Everything one bench binary reports.
struct BenchReportData {
  std::string bench_name;
  std::string git_sha = "unknown";
  std::string build_flags;
  bool obs_enabled = false;
  std::vector<BenchEntry> entries;
  BenchRusage rusage;
};

/// Nearest-rank percentile of `values` (pct in [0, 100]). A single sample
/// is every percentile of itself; an empty vector yields 0.
inline double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(pct / 100.0 * static_cast<double>(values.size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  if (index >= values.size()) index = values.size() - 1;
  return values[index];
}

/// Formats a double for JSON: plain integers stay integral, everything
/// else keeps enough digits to round-trip bench timings.
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  if (v == static_cast<double>(static_cast<int64_t>(v)) &&
      std::abs(v) < 1e15) {
    return std::to_string(static_cast<int64_t>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Serializes a report into the slim-bench-v1 JSON document.
inline std::string BenchReportToJson(const BenchReportData& report) {
  std::string out = "{\"schema\":";
  out += obs::JsonQuote(kBenchJsonSchema);
  out += ",\"bench\":" + obs::JsonQuote(report.bench_name);
  out += ",\"git_sha\":" + obs::JsonQuote(report.git_sha);
  out += ",\"build_flags\":" + obs::JsonQuote(report.build_flags);
  out += std::string(",\"obs_enabled\":") +
         (report.obs_enabled ? "true" : "false");
  out += ",\"benchmarks\":[";
  for (size_t i = 0; i < report.entries.size(); ++i) {
    const BenchEntry& e = report.entries[i];
    if (i) out += ",";
    out += "{\"name\":" + obs::JsonQuote(e.name);
    out += ",\"time_unit\":" + obs::JsonQuote(e.time_unit);
    out += ",\"iterations\":" + std::to_string(e.iterations);
    out += ",\"repetitions\":" + std::to_string(e.repetitions);
    out += ",\"real_p50\":" + JsonNumber(e.real_p50);
    out += ",\"real_p95\":" + JsonNumber(e.real_p95);
    out += ",\"cpu_p50\":" + JsonNumber(e.cpu_p50);
    out += ",\"cpu_p95\":" + JsonNumber(e.cpu_p95);
    out += ",\"counters\":{";
    for (size_t c = 0; c < e.counters.size(); ++c) {
      if (c) out += ",";
      out += obs::JsonQuote(e.counters[c].first) + ":" +
             JsonNumber(e.counters[c].second);
    }
    out += "}}";
  }
  out += "]";
  if (report.rusage.present) {
    out += ",\"rusage\":{\"max_rss_kb\":" +
           std::to_string(report.rusage.max_rss_kb);
    out += ",\"user_cpu_us\":" + std::to_string(report.rusage.user_cpu_us);
    out += ",\"sys_cpu_us\":" + std::to_string(report.rusage.sys_cpu_us);
    out += "}";
  }
  out += "}";
  return out;
}

}  // namespace slim::bench

#endif  // SLIM_BENCH_BENCH_JSON_H_
