#include "collab/admission.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "collab/wire.h"
#include "util/deadline.h"

namespace tendax {

const char* PriorityClassName(PriorityClass cls) {
  switch (cls) {
    case PriorityClass::kCritical:
      return "critical";
    case PriorityClass::kNormal:
      return "normal";
    case PriorityClass::kBackground:
      return "background";
  }
  return "?";
}

PriorityClass ClassifyCommand(CommandKind kind) {
  switch (kind) {
    case CommandKind::kHeartbeat:
    case CommandKind::kResume:
      return PriorityClass::kCritical;
    case CommandKind::kStats:
      return PriorityClass::kBackground;
    default:
      return PriorityClass::kNormal;
  }
}

AdmissionController::AdmissionController(const AdmissionOptions& options,
                                         MetricsRegistry* metrics)
    : options_(options) {
  metrics = SharedOrOwnedRegistry(metrics, &owned_metrics_);
  for (size_t c = 0; c < kPriorityClassCount; ++c) {
    const std::string suffix = PriorityClassName(static_cast<PriorityClass>(c));
    m_admitted_[c] = metrics->counter("admission.admitted." + suffix);
    m_shed_[c] = metrics->counter("admission.shed." + suffix);
  }
  m_deadline_exceeded_ = metrics->counter("admission.deadline_exceeded");
  m_sessions_refused_ = metrics->counter("admission.sessions_refused");
  m_inflight_ = metrics->gauge("admission.inflight");
  m_queued_ = metrics->gauge("admission.queued");
  m_degraded_ = metrics->gauge("admission.degraded");
  m_queue_wait_ = metrics->histogram("admission.queue_wait_micros");
  m_retry_after_ = metrics->histogram("admission.retry_after_micros");
}

void AdmissionController::SetPressureProbe(std::function<bool()> probe) {
  probe_ = std::move(probe);
}

bool AdmissionController::Degraded() {
  // The probe reaches into another subsystem (buffer pool), so it runs
  // without mu_ held; the cached flag is what the admission path consults.
  const bool degraded = probe_ ? probe_() : false;
  degraded_.store(degraded, std::memory_order_relaxed);
  m_degraded_->Set(degraded ? 1 : 0);
  return degraded;
}

Status AdmissionController::AdmitNewSession() {
  if (!enabled() || !Degraded()) return Status::OK();
  m_sessions_refused_->Add();
  return Status::Unavailable(
      "server is degraded (dirty-page pressure); not accepting new sessions");
}

size_t AdmissionController::QueuedLocked() const {
  size_t n = 0;
  for (const auto& q : queues_) n += q.size();
  return n;
}

uint64_t AdmissionController::RetryAfterLocked() const {
  const uint64_t hint =
      options_.retry_after_base_micros * (1 + QueuedLocked());
  return std::max<uint64_t>(
      1, std::min(hint, options_.retry_after_max_micros));
}

void AdmissionController::CountShed(PriorityClass cls) {
  m_shed_[static_cast<size_t>(cls)]->Add();
}

void AdmissionController::PublishGaugesLocked() {
  m_inflight_->Set(static_cast<int64_t>(inflight_));
  m_queued_->Set(static_cast<int64_t>(QueuedLocked()));
}

void AdmissionController::GrantLocked() {
  for (auto& q : queues_) {
    if (q.empty()) continue;
    Waiter* w = q.front();  // oldest waiter of the best waiting class
    q.pop_front();
    w->granted = true;
    ++inflight_;
    w->cv.NotifyOne();
    return;
  }
}

void AdmissionController::UnlinkLocked(Waiter* w) {
  auto& q = queues_[static_cast<size_t>(w->cls)];
  auto it = std::find(q.begin(), q.end(), w);
  if (it != q.end()) q.erase(it);
}

AdmissionController::Ticket AdmissionController::Admit(PriorityClass cls) {
  Ticket ticket;
  if (!enabled()) return ticket;

  const bool degraded =
      probe_ ? Degraded() : degraded_.load(std::memory_order_relaxed);
  if (degraded && cls == PriorityClass::kBackground) {
    MutexLock lock(mu_);
    CountShed(cls);
    ticket.retry_after_micros = RetryAfterLocked();
    MetricRecord(m_retry_after_, ticket.retry_after_micros);
    ticket.status =
        Status::Unavailable("server is degraded; background traffic shed");
    return ticket;
  }

  const auto enqueued_at = std::chrono::steady_clock::now();
  MutexLock lock(mu_);

  if (inflight_ < options_.max_inflight && QueuedLocked() == 0) {
    ++inflight_;
    m_admitted_[static_cast<size_t>(cls)]->Add();
    PublishGaugesLocked();
    return ticket;
  }

  if (QueuedLocked() >= options_.queue_depth) {
    // Queue full: the numerically-highest (least important) waiting class
    // is the shed victim. An arrival no better than that class is refused;
    // a better arrival displaces the victim class's *newest* waiter (the
    // one that has invested the least wait so far).
    size_t victim = kPriorityClassCount;
    for (size_t c = kPriorityClassCount; c-- > 0;) {
      if (!queues_[c].empty()) {
        victim = c;
        break;
      }
    }
    if (victim == kPriorityClassCount || static_cast<size_t>(cls) >= victim) {
      CountShed(cls);
      ticket.retry_after_micros = RetryAfterLocked();
      MetricRecord(m_retry_after_, ticket.retry_after_micros);
      ticket.status = Status::Unavailable("admission queue full");
      PublishGaugesLocked();
      return ticket;
    }
    Waiter* displaced = queues_[victim].back();
    queues_[victim].pop_back();
    displaced->shed = true;
    CountShed(displaced->cls);
    displaced->cv.NotifyOne();
  }

  Waiter self(cls);
  queues_[static_cast<size_t>(cls)].push_back(&self);
  PublishGaugesLocked();

  // Wait bounded by both the caller's remaining request budget and the
  // controller's own queue-wait cap.
  auto wait_deadline =
      enqueued_at + std::chrono::microseconds(options_.max_queue_wait_micros);
  const bool has_request_deadline = RequestDeadline::Armed();
  if (has_request_deadline) {
    wait_deadline = std::min(wait_deadline, RequestDeadline::Deadline());
  }

  while (!self.granted && !self.shed) {
    if (self.cv.WaitUntil(lock, wait_deadline) == std::cv_status::timeout &&
        !self.granted && !self.shed) {
      UnlinkLocked(&self);
      if (has_request_deadline && RequestDeadline::Expired()) {
        m_deadline_exceeded_->Add();
        ticket.status = Status::DeadlineExceeded(
            "request deadline expired while queued for admission");
      } else {
        CountShed(cls);
        ticket.retry_after_micros = RetryAfterLocked();
        MetricRecord(m_retry_after_, ticket.retry_after_micros);
        ticket.status = Status::Unavailable("queued past max_queue_wait");
      }
      PublishGaugesLocked();
      return ticket;
    }
  }

  const auto waited = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - enqueued_at)
                          .count();
  MetricRecord(m_queue_wait_, static_cast<uint64_t>(waited));

  if (self.shed) {
    ticket.retry_after_micros = RetryAfterLocked();
    MetricRecord(m_retry_after_, ticket.retry_after_micros);
    ticket.status = Status::Unavailable(
        "displaced from admission queue by higher-priority arrival");
    PublishGaugesLocked();
    return ticket;
  }

  // Granted: GrantLocked() already moved the slot to us.
  m_admitted_[static_cast<size_t>(cls)]->Add();
  PublishGaugesLocked();
  return ticket;
}

void AdmissionController::Release() {
  if (!enabled()) return;
  MutexLock lock(mu_);
  if (inflight_ > 0) --inflight_;
  GrantLocked();
  PublishGaugesLocked();
}

AdmissionStats AdmissionController::Stats() const {
  AdmissionStats out;
  for (size_t c = 0; c < kPriorityClassCount; ++c) {
    out.admitted[c] = m_admitted_[c]->Value();
    out.shed[c] = m_shed_[c]->Value();
  }
  out.deadline_exceeded = m_deadline_exceeded_->Value();
  out.sessions_refused = m_sessions_refused_->Value();
  out.degraded = degraded_.load(std::memory_order_relaxed);
  MutexLock lock(mu_);
  out.inflight = inflight_;
  out.queued = QueuedLocked();
  return out;
}

}  // namespace tendax
