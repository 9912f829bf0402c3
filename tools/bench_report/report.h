#ifndef SLIM_TOOLS_BENCH_REPORT_REPORT_H_
#define SLIM_TOOLS_BENCH_REPORT_REPORT_H_

// bench_report — diffs two slim-bench-v1 JSON telemetry files (written by
// the SLIM_BENCH_MAIN reporter, see bench/bench_json.h) and flags
// regressions past a threshold.
//
// The logic lives in this library so tests/bench_report_test.cc can drive
// the parser and the diff directly; main.cc is the CLI used by CI:
//
//   bench_report old.json new.json --threshold 10
//
// exits 0 when no benchmark's real_p50 regressed by more than 10%, 1 when
// one did, 2 on unreadable input or on two files from different build
// configs (`build_flags` or `obs_enabled` differ). --report-only prints
// the same diff and always exits 0 for readable input.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace slim::tools {

struct BenchmarkResult {
  std::string name;
  std::string time_unit;
  uint64_t iterations = 0;
  uint64_t repetitions = 0;
  double real_p50 = 0;
  double real_p95 = 0;
  double cpu_p50 = 0;
  double cpu_p95 = 0;
  std::vector<std::pair<std::string, double>> counters;
};

// Optional whole-process resource usage (additive slim-bench-v1 field;
// absent on files written before it existed, so `present` gates use).
struct BenchRusageInfo {
  bool present = false;
  uint64_t max_rss_kb = 0;
  uint64_t user_cpu_us = 0;
  uint64_t sys_cpu_us = 0;
};

struct BenchFile {
  std::string schema;
  std::string bench;
  std::string git_sha;
  std::string build_flags;
  bool obs_enabled = false;
  std::vector<BenchmarkResult> benchmarks;
  BenchRusageInfo rusage;
};

// Parses a slim-bench-v1 document. Returns false (and sets *error) on
// malformed JSON or a schema this tool does not understand.
bool ParseBenchJson(const std::string& text, BenchFile* out,
                    std::string* error);

// Reads and parses `path`; false + *error when unreadable or malformed.
bool LoadBenchJson(const std::string& path, BenchFile* out,
                   std::string* error);

struct DiffRow {
  std::string name;
  bool only_in_old = false;  // benchmark disappeared
  bool only_in_new = false;  // benchmark appeared
  double old_p50 = 0;
  double new_p50 = 0;
  double old_p95 = 0;
  double new_p95 = 0;
  double delta_pct = 0;  // (new_p50 - old_p50) / old_p50 * 100
  double old_cpu_p50 = 0;
  double new_cpu_p50 = 0;
  double cpu_delta_pct = 0;  // informational; never gates
  bool regression = false;
};

struct DiffReport {
  std::vector<DiffRow> rows;
  int regressions = 0;
  double threshold_pct = 0;
  // False when build_flags or obs_enabled differ between the files;
  // `incomparable` then names each difference with both values.
  bool comparable = true;
  std::string incomparable;
  std::string provenance;    // "abc123 -> def456" style header material
  // Whole-process rusage from each side, when the files carry it.
  BenchRusageInfo old_rusage;
  BenchRusageInfo new_rusage;
};

// Compares matching benchmark families by real_p50. A row regresses when
// new_p50 exceeds old_p50 by more than `threshold_pct` percent. Families
// present in only one file are reported but never count as regressions.
DiffReport DiffBenchFiles(const BenchFile& older, const BenchFile& newer,
                          double threshold_pct);

// Human-readable table of the diff.
std::string FormatDiff(const DiffReport& report);

// Exit status the CLI should use when `gating` is set: 2 when the files
// are not comparable (no verdict), 1 when the diff holds regressions,
// 0 otherwise. Without `gating` it is always 0.
int DiffExitCode(const DiffReport& report, bool gating);

}  // namespace slim::tools

#endif  // SLIM_TOOLS_BENCH_REPORT_REPORT_H_
