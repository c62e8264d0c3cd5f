// Shared pieces of the keystroke benchmark: deterministic input generation,
// latency samples and the run-phase clock every worker thread follows.
#ifndef KEYBENCH_BENCH_H_
#define KEYBENCH_BENCH_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace keybench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// SplitMix64: every input of a run derives from the workload seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  double Unit() { return (Next() >> 11) * (1.0 / 9007199254740992.0); }
  bool Chance(double p) { return Unit() < p; }

 private:
  uint64_t state_;
};

/// Zipf(s) sampler over [0, n) by inverse CDF.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Sample(Rng& rng) const {
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.Unit());
    return it == cdf_.end() ? cdf_.size() - 1 : it - cdf_.begin();
  }

 private:
  std::vector<double> cdf_;
};

/// Lowercase ASCII prose over a Zipf-distributed vocabulary, so search
/// sees natural term-frequency skew.
class Vocabulary {
 public:
  Vocabulary(uint64_t seed, size_t words);
  const std::string& Word(Rng& rng) const { return words_[zipf_.Sample(rng)]; }
  const std::string& WordAt(size_t rank) const { return words_[rank]; }
  /// About `chars` characters of words, spaces and sentence breaks.
  std::string Text(Rng& rng, size_t chars) const;

 private:
  std::vector<std::string> words_;
  Zipf zipf_;
};

/// What one measured operation was, for latency accounting.
enum class Op : uint8_t {
  kKeystroke,   // one typed run or backspace
  kPaste,       // copy of 40 chars + paste
  kUndo,        // local undo
  kView,        // viewport read
  kSearch,      // 2-term search
  kOpen,        // Open + Close (a durable read-audit row)
  kTimeTravel,  // TextAt an early version
  kFolders,     // dynamic folder contents
  kPoll,        // change-stream poll
  kLag,         // open-loop generator: actual start minus due time
  kCount
};

struct Sample {
  int64_t ns;
  int16_t slice;
  Op op;
};

/// The measurement clock. Warm-up runs at slice -1; the timed window is cut
/// into `slices` equal slices, and with tracing on every other slice is
/// traced, so traced and untraced slices see the same drift.
class Phase {
 public:
  void Configure(int slices, bool trace) {
    slices_ = slices;
    trace_ = trace;
  }
  void Set(int slice) { slice_.store(slice, std::memory_order_release); }
  int slice() const { return slice_.load(std::memory_order_acquire); }
  int slices() const { return slices_; }
  bool running() const { return slice() < slices_; }
  bool Traced(int slice) const {
    return trace_ && slice >= 0 && slice % 2 == 1;
  }

 private:
  std::atomic<int> slice_{-1};
  int slices_ = 1;
  bool trace_ = false;
};

/// Per-thread tallies; merged once the workers have joined.
struct WorkerLog {
  std::vector<Sample> samples;
  uint64_t attempted = 0;  // operations issued (any phase)
  uint64_t failed = 0;     // operations that returned an error
  uint64_t edits = 0;      // committed edit gestures (any phase)
  uint64_t events = 0;     // change events received by measured polls
  uint64_t dirty_docs = 0; // dirty documents seen by measured searches
  uint64_t searches = 0;
  std::vector<std::string> errors;  // first few failure messages

  void Record(int slice, Op op, int64_t ns) {
    if (slice >= 0) {
      samples.push_back(Sample{ns, static_cast<int16_t>(slice), op});
    }
  }
  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 5) errors.push_back(what);
  }
};

/// Nearest-rank percentile of `v` (sorted in place); 0 for no samples.
double Percentile(std::vector<double>& v, double p);
double Median(std::vector<double> v);

/// The value after "key:" on the first line of `path` starting with `key`.
std::string FirstLineWith(const std::string& path, const std::string& key);
/// Peak resident set of this process so far (VmHWM), MiB.
double PeakRssMiB();

}  // namespace keybench

#endif  // KEYBENCH_BENCH_H_
