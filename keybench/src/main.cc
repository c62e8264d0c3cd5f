// keybench: one keystroke benchmark for the TeNDaX engine.
//
//   keybench --workload <large_doc|remote_doc> --seed <n>
//            --seconds <s> --trace <0|1> [--out <dir>]
//
// Prints each metric as "name value unit", a "config" line with the host
// and options in force, and last a JSON object with `correct`, `attempted`,
// `failed` and `metrics`: the end-to-end metrics with --trace 0, the
// per-layer metrics listed in BENCHMARK.json with --trace 1. The same object, with the config, is
// written to <out>/result-<workload>-<seed>-<trace>.json; traced runs also
// write their spans to <out>/spans-<workload>-<seed>.tsv.
#include <sys/utsname.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "trace.h"
#include "workload.h"

#ifndef KEYBENCH_BUILD_TYPE
#define KEYBENCH_BUILD_TYPE "unknown"
#endif

namespace keybench {
namespace {

struct Metric {
  std::string name;
  double value;
  std::string unit;
  /// False for a metric only printed in the log (see NOTES.md): one that
  /// reads a structural 0, times a no-op, or has too few samples.
  bool listed = true;
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

/// Latency samples and counts of one run, by op and slice.
class Series {
 public:
  Series(const RunResult& r, const Phase& phase) {
    by_.assign(static_cast<size_t>(Op::kCount),
               std::vector<std::vector<double>>(phase.slices()));
    for (const WorkerLog& log : r.logs) {
      for (const Sample& s : log.samples) {
        if (s.slice < 0 || s.slice >= phase.slices()) continue;
        by_[static_cast<size_t>(s.op)][s.slice].push_back(s.ns / 1e3);
      }
    }
    for (int s = 0; s < phase.slices(); ++s) {
      (phase.Traced(s) ? traced_ : untraced_).push_back(s);
    }
  }

  const std::vector<int>& untraced() const { return untraced_; }
  const std::vector<int>& traced() const { return traced_; }
  std::vector<int> all() const {
    std::vector<int> out(untraced_);
    out.insert(out.end(), traced_.begin(), traced_.end());
    return out;
  }

  /// Percentile over the pooled samples of `slices`, in microseconds.
  double Pooled(Op op, double p, const std::vector<int>& slices) const {
    std::vector<double> v;
    for (int s : slices) {
      const auto& part = by_[static_cast<size_t>(op)][s];
      v.insert(v.end(), part.begin(), part.end());
    }
    return Percentile(v, p);
  }

  /// The p-th percentile over the untraced slices: always the median of
  /// the per-slice percentiles, so a disturbance shorter than half the
  /// window does not move it. Slices without samples are skipped.
  double P(Op op, double p) const {
    std::vector<double> per_slice;
    for (int s : untraced_) {
      auto v = by_[static_cast<size_t>(op)][s];
      if (!v.empty()) per_slice.push_back(Percentile(v, p));
    }
    return Median(per_slice);
  }

  /// Median over untraced slices of the per-slice completion rate.
  double Rate(std::initializer_list<Op> ops, double slice_seconds) const {
    std::vector<double> rates;
    for (int s : untraced_) {
      size_t n = 0;
      for (Op op : ops) n += by_[static_cast<size_t>(op)][s].size();
      rates.push_back(n / slice_seconds);
    }
    return Median(rates);
  }

  double Mean(Op op, const std::vector<int>& slices) const {
    double sum = 0;
    size_t n = 0;
    for (int s : slices) {
      for (double v : by_[static_cast<size_t>(op)][s]) sum += v;
      n += by_[static_cast<size_t>(op)][s].size();
    }
    return n == 0 ? 0 : sum / n;
  }

  /// Per-slice percentiles, for the run log.
  std::string SlicePercentiles(Op op, double p) const {
    std::string out;
    for (size_t s = 0; s < by_[static_cast<size_t>(op)].size(); ++s) {
      auto v = by_[static_cast<size_t>(op)][s];
      out += (s ? " " : "") + Number(Percentile(v, p));
    }
    return out;
  }

  size_t Count(Op op, const std::vector<int>& slices) const {
    size_t n = 0;
    for (int s : slices) n += by_[static_cast<size_t>(op)][s].size();
    return n;
  }

 private:
  std::vector<std::vector<std::vector<double>>> by_;
  std::vector<int> untraced_, traced_;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<Metric> EndToEnd(const RunResult& r, const Series& s) {
  const double window_edits = s.Count(Op::kKeystroke, s.all()) +
                              s.Count(Op::kPaste, s.all()) +
                              s.Count(Op::kUndo, s.all());
  return {
      {"setup_s", Median(r.setup_s), "s"},
      {"keystroke_p50_us", s.P(Op::kKeystroke, 50), "us"},
      {"keystroke_p99_us", s.P(Op::kKeystroke, 99), "us"},
      {"keystrokes_per_s", s.Rate({Op::kKeystroke}, r.slice_seconds), "1/s"},
      {"paste_p50_us", s.P(Op::kPaste, 50), "us"},
      {"undo_p50_us", s.P(Op::kUndo, 50), "us"},
      {"view_p50_us", s.P(Op::kView, 50), "us"},
      {"view_p99_us", s.P(Op::kView, 99), "us"},
      {"search_p50_us", s.P(Op::kSearch, 50), "us"},
      {"search_p99_us", s.P(Op::kSearch, 99), "us", false},
      {"open_p50_us", s.P(Op::kOpen, 50), "us"},
      {"time_travel_p50_us", s.P(Op::kTimeTravel, 50), "us"},
      {"reads_per_s",
       s.Rate({Op::kView, Op::kSearch, Op::kOpen, Op::kTimeTravel,
               Op::kFolders},
              r.slice_seconds),
       "1/s"},
      {"log_bytes_per_edit", Ratio(r.window.log_bytes, window_edits), "B"},
      {"rss_mb", r.setup_rss_mib, "MiB"},
  };
}

std::vector<Metric> PerLayer(const RunResult& r, const Series& s) {
  const Tracer::Summary trace = Tracer::Analyze();
  auto self_p50 = [&trace](std::initializer_list<SpanName> names) {
    std::vector<double> v;
    for (SpanName n : names) {
      auto it = trace.self_ns.find(n);
      if (it != trace.self_ns.end()) {
        v.insert(v.end(), it->second.begin(), it->second.end());
      }
    }
    return Percentile(v, 50) / 1e3;
  };
  const auto& before = r.window.registry_before;
  const auto& after = r.window.registry_after;
  auto delta = [&](const char* name) {
    return static_cast<double>(after.CounterValue(name) -
                               before.CounterValue(name));
  };
  auto hist_sum = [&](const char* name) {
    const auto* a = after.FindHistogram(name);
    const auto* b = before.FindHistogram(name);
    return static_cast<double>((a ? a->sum : 0) - (b ? b->sum : 0));
  };
  const auto all = s.all();
  const double edits = s.Count(Op::kKeystroke, all) +
                       s.Count(Op::kPaste, all) + s.Count(Op::kUndo, all);
  uint64_t events = 0, dirty = 0, searches = 0;
  for (const WorkerLog& log : r.logs) {
    events += log.events;
    dirty += log.dirty_docs;
    searches += log.searches;
  }
  const double hits = delta("bufferpool.hits");
  const double misses = delta("bufferpool.misses");
  const double untraced_p50 = s.Pooled(Op::kKeystroke, 50, s.untraced());
  const double traced_p50 = s.Pooled(Op::kKeystroke, 50, s.traced());
  return {
      {"wire.roundtrip_us", self_p50({SpanName::kWire}), "us"},
      {"client.attempts_per_call",
       Ratio(delta("client.attempts"), delta("client.calls")), "count"},
      {"session.poll_us", self_p50({SpanName::kSessionPoll}), "us"},
      {"session.events_per_poll",
       Ratio(events, s.Count(Op::kPoll, all)), "count"},
      {"undo.record_us", self_p50({SpanName::kUndoRecord}), "us"},
      {"undo.apply_us", self_p50({SpanName::kUndoApply}), "us"},
      {"acl.require_us", self_p50({SpanName::kSecurity}), "us"},
      {"text.edit_us", self_p50({SpanName::kTextEdit}), "us"},
      {"text.copy_us", self_p50({SpanName::kTextCopy}), "us"},
      {"text.paste_us", self_p50({SpanName::kTextPaste}), "us"},
      {"snapshot.acquire_us", self_p50({SpanName::kSnapshot}), "us"},
      {"mvcc.published_per_edit",
       Ratio(delta("mvcc.snapshots_published"), edits), "count"},
      {"txn.commits_per_edit", Ratio(delta("txn.committed"), edits),
       "count"},
      {"txn.listener_chain_us", self_p50({SpanName::kListenerChain}), "us"},
      {"lock.waits_per_edit", Ratio(delta("lock.waits"), edits), "count",
       false},
      {"lock.wait_us", Ratio(hist_sum("lock.wait_micros"), edits), "us",
       false},
      {"wal.records_per_edit", Ratio(delta("wal.appends"), edits), "count"},
      {"wal.commits_per_sync",
       Ratio(delta("wal.commits"), delta("wal.syncs")), "count"},
      {"log.syncs_per_edit", Ratio(r.window.log_syncs, edits), "count"},
      {"log.sync_us", self_p50({SpanName::kLogSync}), "us", false},
      {"page.reads_per_edit", Ratio(r.window.page_reads, edits), "count"},
      {"page.writes_per_edit", Ratio(r.window.page_writes, edits), "count"},
      {"page.io_us", self_p50({SpanName::kPageRead, SpanName::kPageWrite}),
       "us"},
      {"bufferpool.hit_ratio", Ratio(hits, hits + misses), "ratio"},
      {"bufferpool.evictions_per_edit",
       Ratio(delta("bufferpool.evictions"), edits), "count"},
      {"meta.audit_rows_per_edit",
       Ratio(r.audit_edit_rows, r.edits_total), "count"},
      {"search.dirty_docs_per_query", Ratio(dirty, searches), "count"},
      {"folders.contents_us", self_p50({SpanName::kFoldersContents}), "us"},
      {"writer.lag_p99_us", s.Pooled(Op::kLag, 99, all), "us"},
      {"trace.overhead_pct", 100.0 * (Ratio(traced_p50, untraced_p50) - 1),
       "%"},
      {"trace.coverage_pct", Median(trace.keystroke_coverage_pct), "%"},
  };
}

int Usage() {
  std::fprintf(stderr,
               "usage: keybench --workload <large_doc|remote_doc>"
               " --seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n");
  return 2;
}

}  // namespace
}  // namespace keybench

int main(int argc, char** argv) {
  using namespace keybench;
  RunConfig config;
  config.out_dir = ".bench_out";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--out") {
      config.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || config.workload.empty() || config.seconds <= 0) {
    return Usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(config.out_dir, ec);

  RunResult result;
  std::string error;
  if (!RunWorkload(config, &result, &error)) {
    std::fprintf(stderr, "keybench: %s\n", error.c_str());
    return 1;
  }

  Phase phase;
  phase.Configure(config.slices, config.trace);
  const Series series(result, phase);
  const std::vector<Metric> e2e = EndToEnd(result, series);
  const std::vector<Metric> layers =
      config.trace ? PerLayer(result, series) : std::vector<Metric>();

  uint64_t attempted = 0, failed = 0;
  for (const WorkerLog& log : result.logs) {
    attempted += log.attempted;
    failed += log.failed;
    for (const std::string& e : log.errors) {
      std::printf("error %s\n", e.c_str());
    }
  }
  for (const std::string& f : result.check_failures) {
    std::printf("check failed: %s\n", f.c_str());
  }
  const bool correct = result.check_failures.empty() && failed == 0;
  std::printf("checks %llu passed %llu\n",
              static_cast<unsigned long long>(result.checks),
              static_cast<unsigned long long>(result.checks -
                                              result.check_failures.size()));
  static const char* const kOps[] = {"keystroke", "paste", "undo",
                                     "view", "search", "open",
                                     "time_travel", "folders", "poll", "lag"};
  for (size_t op = 0; op < static_cast<size_t>(Op::kCount); ++op) {
    std::printf("op %s count %zu mean_us %s\n", kOps[op],
                series.Count(static_cast<Op>(op), series.all()),
                Number(series.Mean(static_cast<Op>(op), series.all())).c_str());
  }
  std::printf("slices keystroke_p50_us %s\n",
              series.SlicePercentiles(Op::kKeystroke, 50).c_str());
  std::printf("slices keystroke_p99_us %s\n",
              series.SlicePercentiles(Op::kKeystroke, 99).c_str());
  std::printf("failed_ops_ratio %s ratio\n",
              Number(Ratio(failed, attempted)).c_str());
  for (const Metric& m : e2e) {
    std::printf("%s %s %s\n", m.name.c_str(), Number(m.value).c_str(),
                m.unit.c_str());
  }
  for (const Metric& m : layers) {
    std::printf("%s %s %s\n", m.name.c_str(), Number(m.value).c_str(),
                m.unit.c_str());
  }

  struct utsname uts;
  const std::string kernel = ::uname(&uts) == 0 ? uts.release : "unknown";
  std::string config_json =
      "{\"workload\": " + JsonString(config.workload) +
      ", \"seed\": " + std::to_string(config.seed) +
      ", \"seconds\": " + std::to_string(config.seconds) +
      ", \"trace\": " + (config.trace ? "1" : "0") +
      ", \"slices\": " + std::to_string(config.slices) +
      ", \"setups\": " + std::to_string(config.setups) +
      ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"cpu_model\": " +
      JsonString(FirstLineWith("/proc/cpuinfo", "model name")) +
      ", \"kernel\": " + JsonString(kernel) +
      ", \"compiler\": " + JsonString(std::string("gcc ") + __VERSION__) +
      ", \"build_type\": " + JsonString(KEYBENCH_BUILD_TYPE) +
      ", \"db_fs\": \"none: in memory\"" +
      ", \"options\": {";
  bool first = true;
  for (const auto& [k, v] : result.options) {
    config_json += (first ? "" : ", ") + JsonString(k) + ": " + JsonString(v);
    first = false;
  }
  config_json += "}}";
  std::printf("config %s\n", config_json.c_str());

  std::string metrics = "{";
  first = true;
  for (const Metric& m : config.trace ? layers : e2e) {
    if (!m.listed) continue;
    metrics += (first ? "" : ", ") + JsonString(m.name) + ": {\"value\": " +
               Number(m.value) + ", \"unit\": " + JsonString(m.unit) + "}";
    first = false;
  }
  metrics += "}";
  const std::string line =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted) +
      ", \"failed\": " + std::to_string(failed) + ", \"metrics\": " + metrics +
      "}";

  const std::string stem = config.out_dir + "/result-" + config.workload +
                           "-" + std::to_string(config.seed) + "-" +
                           (config.trace ? "1" : "0");
  if (std::FILE* f = std::fopen((stem + ".json").c_str(), "w")) {
    std::fprintf(f, "{\"config\": %s, \"result\": %s}\n", config_json.c_str(),
                 line.c_str());
    std::fclose(f);
  }
  if (config.trace) {
    const std::string spans = config.out_dir + "/spans-" + config.workload +
                              "-" + std::to_string(config.seed) + ".tsv";
    if (!Tracer::Write(spans)) {
      std::fprintf(stderr, "keybench: cannot write %s\n", spans.c_str());
    }
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}
