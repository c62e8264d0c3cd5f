#ifndef TENDAX_OBS_METRICS_H_
#define TENDAX_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/result.h"
#include "util/slice.h"
#include "util/status.h"

namespace tendax {

// Lock-cheap observability primitives. Hot-path cost is a single relaxed
// atomic add on a thread-striped cache line; aggregation (snapshots,
// percentiles, text exposition) pays the cost instead. Metric objects are
// owned by a MetricsRegistry and live as long as the registry, so subsystems
// cache raw pointers at construction time and never look names up again.

/// Number of independently padded counter stripes. Threads are assigned a
/// stripe round-robin at first use, so concurrent writers usually touch
/// different cache lines.
inline constexpr int kMetricStripes = 8;

/// Histogram bucket count: bucket 0 holds the value 0, buckets 1..46 hold
/// values whose bit width is the bucket index (i.e. [2^(b-1), 2^b - 1]), and
/// bucket 47 is the overflow bucket for values >= 2^46.
inline constexpr int kHistogramBuckets = 48;

/// Index of the stripe the calling thread writes to.
int MetricStripeForThisThread();

/// Monotonic counter. Add() is a relaxed fetch_add on a per-thread stripe;
/// Value() sums the stripes (each stripe is individually monotone, so a
/// later Value() is always >= an earlier one even while writers race).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t delta = 1) {
    stripes_[MetricStripeForThisThread()].v.fetch_add(
        delta, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const auto& s : stripes_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<uint64_t> v{0};
  };
  std::array<Stripe, kMetricStripes> stripes_;
};

/// Last-value (or high-watermark) gauge. Unlike Counter it is not striped:
/// gauges are written on cold paths (batch sizes, queue depths).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t value) { v_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
  /// Raises the gauge to `value` if it is larger than the current reading.
  void SetMax(int64_t value) {
    int64_t cur = v_.load(std::memory_order_relaxed);
    while (value > cur &&
           !v_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
    }
  }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Point-in-time aggregation of a Histogram. Percentiles are estimated as
/// the upper bound of the bucket containing the requested rank, except the
/// overflow bucket which reports the observed maximum.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  std::array<uint64_t, kHistogramBuckets> buckets{};

  /// Smallest value that lands in `bucket`.
  static uint64_t BucketLowerBound(int bucket);
  /// Largest value that lands in `bucket` (== observed max is reported for
  /// the overflow bucket by Percentile()).
  static uint64_t BucketUpperBound(int bucket);

  /// `p` in [0, 100]. Returns 0 for an empty histogram.
  uint64_t Percentile(double p) const;
  uint64_t P50() const { return Percentile(50.0); }
  uint64_t P95() const { return Percentile(95.0); }
  uint64_t P99() const { return Percentile(99.0); }
  double Mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / count;
  }
};

/// Log2-bucketed histogram of non-negative values (latencies in
/// microseconds, batch sizes). Record() is two relaxed adds plus a CAS-free
/// max update on the calling thread's stripe.
class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Bucket index for `value` (see kHistogramBuckets for the layout).
  static int BucketFor(uint64_t value);

  void Record(uint64_t value) {
    Stripe& s = stripes_[MetricStripeForThisThread()];
    s.buckets[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(value, std::memory_order_relaxed);
    uint64_t cur = s.max.load(std::memory_order_relaxed);
    while (value > cur && !s.max.compare_exchange_weak(
                              cur, value, std::memory_order_relaxed)) {
    }
  }

  /// Merges all stripes into one snapshot. Torn-free per stripe counter and
  /// monotone in `count` across successive calls.
  HistogramSnapshot Snapshot() const;

 private:
  struct alignas(64) Stripe {
    std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets{};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> max{0};
  };
  std::array<Stripe, kMetricStripes> stripes_;
};

/// Serializable point-in-time view of a whole registry. Names are sorted so
/// two snapshots of the same registry encode comparably.
struct MetricsSnapshot {
  /// Wire format version written by EncodeMetricsSnapshot.
  static constexpr uint32_t kVersion = 1;

  uint32_t version = kVersion;
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  /// Value of counter `name`, or 0 if absent.
  uint64_t CounterValue(const std::string& name) const;
  /// Value of gauge `name`, or 0 if absent.
  int64_t GaugeValue(const std::string& name) const;
  /// Histogram `name`, or nullptr if absent.
  const HistogramSnapshot* FindHistogram(const std::string& name) const;
};

/// Encodes `snapshot` with a trailing fixed32 `Checksum32` over the
/// payload so a remote reader can detect torn or corrupted transfers.
std::string EncodeMetricsSnapshot(const MetricsSnapshot& snapshot);

/// Strict inverse of EncodeMetricsSnapshot: checksum mismatch or truncation
/// -> kCorruption, unknown version or trailing bytes -> kInvalidArgument.
Result<MetricsSnapshot> DecodeMetricsSnapshot(const Slice& encoded);

/// Named metric registry. Lookup allocates-on-miss under a mutex and is
/// meant for construction time only; returned pointers stay valid for the
/// registry's lifetime. When constructed disabled, counters and gauges still
/// function (their cost is negligible and existing accessors are backed by
/// them) but histogram() returns nullptr so timed paths skip clock reads.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(bool enabled = true) : enabled_(enabled) {}
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  bool enabled() const { return enabled_; }

  /// Never returns nullptr; same name -> same object.
  Counter* counter(const std::string& name);
  /// Never returns nullptr; same name -> same object.
  Gauge* gauge(const std::string& name);
  /// Returns nullptr when the registry is disabled.
  Histogram* histogram(const std::string& name);

  MetricsSnapshot Snapshot() const;

  /// Prometheus-style exposition ('.' in metric names becomes '_', every
  /// family is prefixed "tendax_"; histograms render as summaries with
  /// quantile lines plus _sum/_count).
  std::string TextExposition() const;

 private:
  const bool enabled_;
  // Registration/snapshot lock only — metric updates go through the objects'
  // atomics. counter()/histogram() are called from subsystem constructors
  // and Snapshot from the stats path, never with other locks held that rank
  // above it, hence leaf rank.
  mutable Mutex mu_{"metrics.mu", lockorder::kRankLeaf};
  std::map<std::string, std::unique_ptr<Counter>> counters_
      TENDAX_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      TENDAX_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      TENDAX_GUARDED_BY(mu_);
};

/// The registry a subsystem whose accessors read its own counters reports
/// into: `shared` when given, else a private disabled registry created in
/// `owned`. Either way its counters and gauges are non-null and live, while
/// a standalone subsystem's histograms stay off (no clock reads).
inline MetricsRegistry* SharedOrOwnedRegistry(
    MetricsRegistry* shared, std::unique_ptr<MetricsRegistry>* owned) {
  if (shared != nullptr) return shared;
  *owned = std::make_unique<MetricsRegistry>(/*enabled=*/false);
  return owned->get();
}

// Null-safe helpers: subsystems that only report (and never read back)
// accept a nullable MetricsRegistry* and cache nullable metric pointers, so
// standalone unit constructions pay nothing.
inline void MetricAdd(Counter* c, uint64_t delta = 1) {
  if (c != nullptr) c->Add(delta);
}
inline void MetricRecord(Histogram* h, uint64_t value) {
  if (h != nullptr) h->Record(value);
}
inline void MetricSet(Gauge* g, int64_t value) {
  if (g != nullptr) g->Set(value);
}
inline void MetricMax(Gauge* g, int64_t value) {
  if (g != nullptr) g->SetMax(value);
}

/// RAII latency span. Records elapsed wall-clock microseconds into the
/// target histogram when destroyed, so early returns and error paths are
/// covered by construction order alone. A null histogram arms nothing (and
/// skips the clock read entirely).
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* h) : h_(h) {
    if (h_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    if (h_ == nullptr) return;
    auto elapsed = std::chrono::steady_clock::now() - start_;
    h_->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
            .count()));
  }

  /// Retargets the recording without restarting the clock — used when the
  /// final destination is only known mid-span (e.g. per-command dispatch
  /// latency, where the command kind appears after decode). A timer armed
  /// with nullptr stays disarmed: there is no start time to preserve.
  void Redirect(Histogram* h) {
    if (h_ != nullptr) h_ = h;
  }

  /// Drops the span without recording.
  void Cancel() { h_ = nullptr; }

 private:
  Histogram* h_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace tendax

#endif  // TENDAX_OBS_METRICS_H_
