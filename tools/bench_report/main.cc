// CLI for the bench-telemetry diff (see report.h). CI usage:
//
//   bench_report BENCH_old.json BENCH_new.json --threshold 10
//   bench_report old.json new.json --report-only     # never gates

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "report.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: bench_report <old.json> <new.json> "
               "[--threshold <pct>] [--report-only]\n"
               "  exits 0 when no benchmark regressed past the threshold\n"
               "  exits 1 on regression (unless --report-only)\n"
               "  exits 2 on unreadable input, or on files whose build_flags\n"
               "  or obs_enabled differ (unless --report-only)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string old_path, new_path;
  double threshold = 10.0;
  bool gating = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threshold") == 0 && i + 1 < argc) {
      threshold = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--report-only") == 0) {
      gating = false;
    } else if (argv[i][0] == '-') {
      return Usage();
    } else if (old_path.empty()) {
      old_path = argv[i];
    } else if (new_path.empty()) {
      new_path = argv[i];
    } else {
      return Usage();
    }
  }
  if (old_path.empty() || new_path.empty()) return Usage();

  slim::tools::BenchFile older, newer;
  std::string error;
  if (!slim::tools::LoadBenchJson(old_path, &older, &error) ||
      !slim::tools::LoadBenchJson(new_path, &newer, &error)) {
    std::fprintf(stderr, "bench_report: %s\n", error.c_str());
    return 2;
  }
  slim::tools::DiffReport report =
      slim::tools::DiffBenchFiles(older, newer, threshold);
  std::fputs(slim::tools::FormatDiff(report).c_str(), stdout);
  return slim::tools::DiffExitCode(report, gating);
}
