#ifndef TENDAX_COLLAB_ADMISSION_H_
#define TENDAX_COLLAB_ADMISSION_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

#include "obs/metrics.h"
#include "util/lock_order.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace tendax {

enum class CommandKind : uint8_t;

/// Priority class of a request under overload. Lower value = more important;
/// the controller always sheds the numerically-highest class first.
enum class PriorityClass : uint8_t {
  kCritical = 0,    // lease renewals & stream resumes: losing one kills a
                    // session, so these are never shed before normals
  kNormal = 1,      // editing gestures
  kBackground = 2,  // stats scrapes, search: first to go
};

constexpr size_t kPriorityClassCount = 3;

/// Lowercase name of a priority class ("critical"/"normal"/"background").
const char* PriorityClassName(PriorityClass cls);

/// Maps a wire command to its priority class: kHeartbeat/kResume are
/// critical, kStats is background, everything else is a normal edit.
PriorityClass ClassifyCommand(CommandKind kind);

struct AdmissionOptions {
  /// Maximum concurrently-executing requests. 0 disables admission control
  /// entirely (every Admit() succeeds immediately) — the default, so servers
  /// that never opt in behave exactly as before.
  size_t max_inflight = 0;
  /// Maximum requests parked waiting for an in-flight slot (all classes
  /// combined). Arrivals beyond this displace or become shed traffic.
  size_t queue_depth = 64;
  /// Base of the server-computed retry-after hint. The hint scales with the
  /// current queue length: base * (1 + queued), clamped to the max below,
  /// so clients back off harder the deeper the backlog is.
  uint64_t retry_after_base_micros = 1'000;
  uint64_t retry_after_max_micros = 500'000;
  /// A waiter parked longer than this is shed (kUnavailable) rather than
  /// left to occupy a queue slot forever.
  uint64_t max_queue_wait_micros = 2'000'000;
};

/// Per-class shed/admit totals, read from the `admission.*` registry
/// metrics, plus the controller's live inflight/queued/degraded state.
struct AdmissionStats {
  uint64_t admitted[kPriorityClassCount] = {0, 0, 0};
  uint64_t shed[kPriorityClassCount] = {0, 0, 0};
  uint64_t deadline_exceeded = 0;  // waiters that ran out of request budget
  uint64_t sessions_refused = 0;   // new sessions refused while degraded
  uint64_t inflight = 0;
  uint64_t queued = 0;
  bool degraded = false;
};

/// SEDA-style bounded-concurrency gate in front of the editor endpoint.
///
/// At most `max_inflight` requests execute concurrently; up to `queue_depth`
/// more wait in priority order. When the queue is full the lowest class
/// sheds first: an arrival is refused if its class is no better than the
/// worst waiting class, otherwise it displaces the newest waiter of that
/// worst class. Shed requests get a typed kUnavailable plus a server-computed
/// retry-after hint so clients converge instead of hammering.
///
/// Degraded mode (pressure probe true — e.g. the buffer pool's dirty-page
/// count at the checkpointer's threshold) sheds the whole background class
/// immediately and refuses *new* sessions, protecting in-progress work first.
///
/// Lock discipline: `mu_` is rank kRankServer and is never held across calls
/// into any other subsystem — the pressure probe runs before it is taken and
/// grants/releases only touch local waiter state.
class AdmissionController {
 public:
  /// Outcome of one admission attempt.
  struct Ticket {
    Status status;  // OK = admitted; caller must Release() when done
    uint64_t retry_after_micros = 0;  // nonzero iff status.IsUnavailable()
  };

  /// `metrics` may be null (standalone use: the controller then counts
  /// into a private registry); it must outlive the controller.
  AdmissionController(const AdmissionOptions& options,
                      MetricsRegistry* metrics);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  bool enabled() const { return options_.max_inflight > 0; }
  const AdmissionOptions& options() const { return options_; }

  /// Blocks until a slot is granted, the request is shed (kUnavailable), or
  /// the caller's ambient RequestDeadline / max_queue_wait expires
  /// (kDeadlineExceeded / kUnavailable). On OK the caller owns one in-flight
  /// slot and must call Release() exactly once.
  Ticket Admit(PriorityClass cls);
  void Release();

  /// RAII admission: releases on destruction iff the ticket was granted.
  class Pass {
   public:
    Pass(AdmissionController* controller, PriorityClass cls)
        : controller_(controller),
          ticket_(controller ? controller->Admit(cls) : Ticket{}) {}
    ~Pass() {
      if (controller_ && ticket_.status.ok()) controller_->Release();
    }
    Pass(const Pass&) = delete;
    Pass& operator=(const Pass&) = delete;
    const Ticket& ticket() const { return ticket_; }

   private:
    AdmissionController* const controller_;
    Ticket ticket_;
  };

  /// Installs the degradation signal (e.g. dirty-page pressure). Evaluated
  /// outside `mu_` on the admission path; must be safe to call from any
  /// thread. Replacing an installed probe is only safe before concurrent use.
  void SetPressureProbe(std::function<bool()> probe);

  /// Evaluates the pressure probe now and returns the degraded flag.
  bool Degraded();

  /// Gate for *new* sessions: kUnavailable while degraded (existing
  /// sessions keep their slots and leases). Called by SessionManager before
  /// creating a session; no slot is consumed.
  Status AdmitNewSession();

  AdmissionStats Stats() const;

 private:
  struct Waiter {
    explicit Waiter(PriorityClass c) : cls(c) {}
    const PriorityClass cls;
    bool granted = false;
    bool shed = false;
    CondVar cv;
  };

  /// Hands the free slot to the oldest waiter of the best waiting class.
  void GrantLocked() TENDAX_REQUIRES(mu_);
  /// Removes `w` from its class queue (no-op if already granted/removed).
  void UnlinkLocked(Waiter* w) TENDAX_REQUIRES(mu_);
  uint64_t RetryAfterLocked() const TENDAX_REQUIRES(mu_);
  size_t QueuedLocked() const TENDAX_REQUIRES(mu_);
  void CountShed(PriorityClass cls);
  void PublishGaugesLocked() TENDAX_REQUIRES(mu_);

  const AdmissionOptions options_;

  mutable Mutex mu_{"admission.mu", lockorder::kRankServer};
  size_t inflight_ TENDAX_GUARDED_BY(mu_) = 0;
  std::deque<Waiter*> queues_[kPriorityClassCount] TENDAX_GUARDED_BY(mu_);

  std::function<bool()> probe_;
  std::atomic<bool> degraded_{false};

  // The only store of the controller's counters (never null).
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  Counter* m_admitted_[kPriorityClassCount] = {};
  Counter* m_shed_[kPriorityClassCount] = {};
  Counter* m_deadline_exceeded_ = nullptr;
  Counter* m_sessions_refused_ = nullptr;
  Gauge* m_inflight_ = nullptr;
  Gauge* m_queued_ = nullptr;
  Gauge* m_degraded_ = nullptr;
  Histogram* m_queue_wait_ = nullptr;
  Histogram* m_retry_after_ = nullptr;
};

}  // namespace tendax

#endif  // TENDAX_COLLAB_ADMISSION_H_
