// One benchmark run: set up a workload's database several times, drive its
// clients for the timed window, check the outputs, and hand the raw
// samples and counter deltas to the reporter.
#ifndef KEYBENCH_WORKLOAD_H_
#define KEYBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "obs/metrics.h"

namespace keybench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out_dir;   // where results and spans are written
  int setups = 3;        // setup repetitions; setup_s is their median
  int slices = 10;       // timed window cut into this many slices
  double warmup_s = 1.0;
};

/// Counter deltas over the timed window.
struct WindowCounters {
  uint64_t log_bytes = 0;
  uint64_t log_syncs = 0;
  uint64_t page_reads = 0;
  uint64_t page_writes = 0;
  tendax::MetricsSnapshot registry_before;
  tendax::MetricsSnapshot registry_after;
};

struct RunResult {
  std::vector<double> setup_s;
  /// Peak resident set once the set-ups are done, before any client runs:
  /// single-threaded, so the same in every run (the peak after the timed
  /// window read 104 or 130 MiB on a 20k-char document, in about equal
  /// numbers of runs).
  double setup_rss_mib = 0;
  double slice_seconds = 0;
  std::vector<WorkerLog> logs;
  WindowCounters window;
  uint64_t edits_total = 0;       // committed edit gestures, warm-up included
  uint64_t audit_edit_rows = 0;   // edit-kind audit rows added meanwhile
  uint64_t checks = 0;            // correctness checks made
  std::vector<std::string> check_failures;
  /// The configuration in force, recorded with the result.
  std::map<std::string, std::string> options;
};

/// Runs `config.workload`; false (with `error`) for an unknown workload or
/// a setup that fails.
bool RunWorkload(const RunConfig& config, RunResult* result,
                 std::string* error);

}  // namespace keybench

#endif  // KEYBENCH_WORKLOAD_H_
