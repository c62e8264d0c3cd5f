#ifndef TENDAX_COLLAB_RETRYING_CLIENT_H_
#define TENDAX_COLLAB_RETRYING_CLIENT_H_

#include <functional>
#include <string>
#include <vector>

#include "collab/wire.h"
#include "util/random.h"

namespace tendax {

/// Retry/backoff knobs for a client driving a lossy transport.
struct RetryOptions {
  /// Attempts per logical command before giving up (first try included).
  int max_attempts = 10;
  /// Exponential backoff: wait ~base * 2^attempt (with jitter), capped.
  uint64_t base_backoff_micros = 200;
  uint64_t max_backoff_micros = 50'000;
  /// Seed for backoff jitter and idempotency-key salting.
  uint64_t seed = 1;
  /// How to spend the backoff. Defaults to not sleeping at all — the
  /// in-process transports are synchronous, so backoff is bookkeeping
  /// (recorded in stats) rather than real waiting. Wire a real sleep in
  /// here when driving an asynchronous transport.
  std::function<void(uint64_t micros)> sleep_fn;
  /// Optional registry for client-side "client.*" counters mirroring
  /// RetryStats. May be null; must outlive the client when set.
  MetricsRegistry* metrics = nullptr;
  /// Deadline budget stamped on every outgoing command (0 = none). The
  /// absolute deadline is computed once per logical Call — it covers all
  /// retries of that command — and the server rejects the frame at dispatch
  /// once it has passed, and caps lock waits/scans by the remaining budget.
  uint64_t default_deadline_micros = 0;
  /// Clock used for deadline stamping and breaker cooldowns. Must be the
  /// same clock domain as the server's when deadlines are enabled (the
  /// deadline crosses the wire as an absolute timestamp). Null = a shared
  /// SystemClock.
  Clock* clock = nullptr;
  /// Circuit breaker: after this many *consecutive* kUnavailable responses
  /// the breaker opens and calls fail fast (kUnavailable, no wire traffic)
  /// until `breaker_cooldown_micros` passes; the next call is then a
  /// half-open probe — success closes the breaker, another kUnavailable
  /// re-opens it. 0 disables the breaker.
  int breaker_threshold = 0;
  uint64_t breaker_cooldown_micros = 100'000;
};

/// The jittered-backoff window for retry `attempt` (0-based): base * 2^n,
/// saturating instead of wrapping for large attempt counts, clamped to
/// `cap`. Exposed for the overflow regression test.
uint64_t BackoffWindowMicros(uint64_t base, int attempt, uint64_t cap);

/// Client-side observability for the retry machinery.
struct RetryStats {
  uint64_t calls = 0;          // logical commands issued
  uint64_t attempts = 0;       // wire attempts (>= calls)
  uint64_t timeouts = 0;       // attempts lost in the transport
  uint64_t wire_errors = 0;    // frames damaged in flight (checksum/codec)
  uint64_t exhausted = 0;      // commands that ran out of attempts
  uint64_t backoff_micros = 0; // total backoff budgeted
  uint64_t resyncs = 0;        // change-stream resyncs observed
  uint64_t unavailable = 0;    // typed kUnavailable (shed) responses seen
  uint64_t unavailable_without_hint = 0;  // ... that carried no retry-after
  uint64_t retry_after_honored = 0;  // server hint overrode local backoff
  uint64_t breaker_opens = 0;        // closed/half-open -> open transitions
  uint64_t breaker_short_circuits = 0;  // calls failed fast while open
};

/// The editor side of the resilient session protocol: wraps a
/// `WireTransport` with per-command idempotency keys, timeouts-as-status,
/// and exponential backoff with jitter, and tracks the change-stream
/// cursor (`last_seq`) for resumable delivery.
///
/// A command is retried only on transport-level loss (timeout / damaged
/// frame); clean server-side errors (kOutOfRange, kPermissionDenied, ...)
/// are surfaced to the caller unchanged. Because retries reuse the same
/// idempotency key, the server applies each logical command at most once
/// no matter how often the transport duplicates or redelivers it.
class RetryingClient {
 public:
  explicit RetryingClient(WireTransport* transport, RetryOptions options = {});

  /// Issues one logical command: assigns an idempotency key (unless the
  /// command already carries one or is an `IsIdempotentRead`), retries
  /// across transport loss, and returns the decoded response.
  Result<WireResponse> Call(EditCommand command);

  // --- gesture helpers (thin wrappers over Call) ---
  Status Open(DocumentId doc);
  Status Close(DocumentId doc);
  Status Type(DocumentId doc, uint64_t pos, const std::string& text);
  Status Erase(DocumentId doc, uint64_t pos, uint64_t len);
  Result<std::string> GetText(DocumentId doc);
  /// Time-travel read (kGetTextAt): the document's text as of `version`.
  Result<std::string> GetTextAt(DocumentId doc, uint64_t version);
  Status SetCursor(DocumentId doc, uint64_t pos);
  Status Heartbeat();
  /// Fetches the server's metrics snapshot via kStats and verifies its
  /// checksum. Exempt from idempotency keys (reads current state).
  Result<MetricsSnapshot> ServerStats();

  /// One resumable-delivery exchange.
  struct Changes {
    /// Newly delivered events, in sequence order (resync markers elided).
    std::vector<ChangeEvent> events;
    /// True when the stream was trimmed (marker or sequence gap): the
    /// client's replica is stale and it must re-read a snapshot
    /// (`GetText`); events after this point are invalidation hints.
    bool resync_required = false;
  };

  /// Sends kResume with the current cursor, advances the cursor past the
  /// returned events, and reports whether a snapshot re-read is required.
  /// Safe to retry: a lost response costs nothing because the server keeps
  /// events buffered until they are acknowledged by a later PollChanges.
  Result<Changes> PollChanges();

  /// The change-stream cursor (highest sequence applied). Survives
  /// transport churn: carry it into a new client when reconnecting over a
  /// fresh transport to resume where the old connection left off.
  uint64_t last_seq() const { return last_seq_; }
  void set_last_seq(uint64_t seq) { last_seq_ = seq; }

  const RetryStats& stats() const { return stats_; }

  /// True while the circuit breaker is open (calls fail fast).
  bool breaker_open() const { return breaker_open_; }

 private:
  Clock* clock() const;

  WireTransport* const transport_;
  const RetryOptions options_;
  Random rng_;
  uint64_t key_salt_;
  uint64_t next_key_ = 0;
  uint64_t last_seq_ = 0;
  RetryStats stats_;

  // Circuit-breaker state (single-threaded like the rest of the client).
  int consecutive_unavailable_ = 0;
  bool breaker_open_ = false;
  uint64_t breaker_opened_at_ = 0;

  // Registry mirrors of stats_ (null without options.metrics).
  Counter* m_calls_ = nullptr;
  Counter* m_attempts_ = nullptr;
  Counter* m_retries_ = nullptr;
  Counter* m_timeouts_ = nullptr;
  Counter* m_wire_errors_ = nullptr;
  Counter* m_exhausted_ = nullptr;
  Counter* m_resyncs_ = nullptr;
  Counter* m_unavailable_ = nullptr;
  Counter* m_retry_after_honored_ = nullptr;
  Counter* m_breaker_opens_ = nullptr;
  Counter* m_breaker_short_circuits_ = nullptr;
};

}  // namespace tendax

#endif  // TENDAX_COLLAB_RETRYING_CLIENT_H_
