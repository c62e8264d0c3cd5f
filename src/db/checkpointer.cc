#include "db/checkpointer.h"

#include <algorithm>
#include <chrono>

namespace tendax {

const char* CheckpointPhaseName(CheckpointPhase phase) {
  switch (phase) {
    case CheckpointPhase::kBeforeBegin:
      return "BeforeBegin";
    case CheckpointPhase::kAfterBeginRecord:
      return "AfterBeginRecord";
    case CheckpointPhase::kAfterDirtyFlush:
      return "AfterDirtyFlush";
    case CheckpointPhase::kAfterEndRecord:
      return "AfterEndRecord";
    case CheckpointPhase::kAfterTruncate:
      return "AfterTruncate";
  }
  return "Unknown";
}

Checkpointer::Checkpointer(Wal* wal, BufferPool* pool, TxnManager* txns,
                           MetricsRegistry* metrics, CheckpointOptions options)
    : wal_(wal), pool_(pool), txns_(txns), options_(std::move(options)) {
  metrics = SharedOrOwnedRegistry(metrics, &owned_metrics_);
  m_completed_ = metrics->counter("checkpoint.completed");
  m_failed_ = metrics->counter("checkpoint.failed");
  m_pages_flushed_ = metrics->counter("checkpoint.pages_flushed");
  m_pages_busy_ = metrics->counter("checkpoint.pages_skipped_busy");
  m_duration_micros_ = metrics->histogram("checkpoint.duration_micros");
  m_pages_per_checkpoint_ = metrics->histogram("checkpoint.pages");
}

Checkpointer::~Checkpointer() { Stop(); }

void Checkpointer::Start() {
  if (options_.interval_micros == 0 && options_.dirty_page_threshold == 0) {
    return;
  }
  MutexLock lock(state_mu_);
  if (started_) return;
  started_ = true;
  stop_ = false;
  thread_ = std::thread(&Checkpointer::Loop, this);
}

void Checkpointer::Stop() {
  {
    MutexLock lock(state_mu_);
    if (!started_) return;
    stop_ = true;
  }
  cv_.NotifyAll();
  if (thread_.joinable()) thread_.join();
  MutexLock lock(state_mu_);
  started_ = false;
}

void Checkpointer::Loop() {
  // The threshold trigger has no event to wake on (pages go dirty without
  // notifying anyone), so threshold-only configurations poll at a coarse
  // beat instead of spinning.
  const uint64_t wait_micros =
      options_.interval_micros > 0 ? options_.interval_micros : 1000;
  for (;;) {
    bool due_by_timer = false;
    {
      MutexLock lock(state_mu_);
      if (stop_) return;
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::microseconds(wait_micros);
      while (!stop_) {
        if (cv_.WaitUntil(lock, deadline) == std::cv_status::timeout) {
          due_by_timer = options_.interval_micros > 0;
          break;
        }
      }
      if (stop_) return;
    }
    const bool due_by_threshold =
        options_.dirty_page_threshold > 0 &&
        pool_->DirtyCount() >= options_.dirty_page_threshold;
    if (!due_by_timer && !due_by_threshold) continue;
    if (!wal_->poison_status().ok()) {
      // Fail-stopped WAL: nothing can be made durable until reopen, so
      // keep idling instead of burning the log with doomed attempts.
      continue;
    }
    // The outcome is recorded in stats/metrics; the loop itself has no
    // caller to report to and simply tries again next beat.
    (void)CheckpointNow();
  }
}

Status Checkpointer::CheckpointNow() {
  MutexLock run(run_mu_);
  Status st = RunOnce();
  (st.ok() ? m_completed_ : m_failed_)->Add();
  return st;
}

void Checkpointer::Hook(uint64_t index, CheckpointPhase phase) {
  if (options_.hooks) options_.hooks->OnCheckpointPhase(index, phase);
}

Status Checkpointer::RunOnce() {
  TENDAX_RETURN_IF_ERROR(wal_->poison_status());
  const uint64_t index = ++index_;
  // Armed before the begin record so failures in any phase still record a
  // duration sample via RAII.
  ScopedTimer timer(m_duration_micros_);

  Hook(index, CheckpointPhase::kBeforeBegin);

  // 1. Open the checkpoint.
  LogRecord begin;
  begin.type = LogType::kCheckpointBegin;
  auto begin_lsn = wal_->Append(&begin);
  if (!begin_lsn.ok()) return begin_lsn.status();

  // 2. Fuzzy snapshots. Taken after B so any record that slips in between
  //    is either covered by the snapshot or lands above B — both safe: a
  //    page dirtied by a record < B after the DPT snapshot was dirty (or
  //    durable) at snapshot time, and redo_lsn is capped at B below.
  std::vector<CheckpointTxnEntry> att = txns_->ActiveTxnTable();
  std::vector<CheckpointPageEntry> dpt = pool_->DirtyPageTable();

  Hook(index, CheckpointPhase::kAfterBeginRecord);

  // 3. Write back the pages dirtied before the checkpoint. Pinned pages
  //    are retried briefly, then left alone — they stay in the re-taken
  //    DPT and simply hold redo_lsn (and truncation) back a little.
  uint64_t flushed = 0;
  uint64_t busy = 0;
  for (const CheckpointPageEntry& e : dpt) {
    bool clean = false;
    for (int attempt = 0; attempt < 64 && !clean; ++attempt) {
      auto r = pool_->FlushPageIfIdle(static_cast<PageId>(e.page));
      if (!r.ok()) return r.status();
      clean = *r;
      if (!clean) std::this_thread::yield();
    }
    if (clean) {
      ++flushed;
    } else {
      ++busy;
    }
  }
  m_pages_flushed_->Add(flushed);
  m_pages_busy_->Add(busy);
  MetricRecord(m_pages_per_checkpoint_, flushed);

  Hook(index, CheckpointPhase::kAfterDirtyFlush);

  // 4. Re-snapshot the DPT and compute the redo point. Pages dirtied since
  //    the first snapshot appear here with their own rec_lsn; anything
  //    dirtied by a record below B after this snapshot cannot exist (that
  //    record's page was either still dirty — so it is in this snapshot —
  //    or its effect was already durable), and records above B take care
  //    of themselves. Hence redo_lsn = min(B, min rec_lsn) is safe.
  std::vector<CheckpointPageEntry> dpt_now = pool_->DirtyPageTable();
  Lsn redo_lsn = *begin_lsn;
  for (const CheckpointPageEntry& e : dpt_now) {
    if (e.rec_lsn != kInvalidLsn && e.rec_lsn < redo_lsn) {
      redo_lsn = e.rec_lsn;
    }
  }

  // 5. Close the checkpoint; the end record must be durable before any
  //    truncation may rely on it.
  LogRecord end;
  end.type = LogType::kCheckpointEnd;
  end.checkpoint_begin_lsn = *begin_lsn;
  end.checkpoint_redo_lsn = redo_lsn;
  end.att = std::move(att);
  end.dpt = std::move(dpt_now);
  auto end_lsn = wal_->Append(&end);
  if (!end_lsn.ok()) return end_lsn.status();
  TENDAX_RETURN_IF_ERROR(wal_->Flush(*end_lsn));

  Hook(index, CheckpointPhase::kAfterEndRecord);

  // 6. Truncate. The bound also respects the oldest in-flight transaction:
  //    undo after a crash must still be able to walk its whole chain.
  Lsn bound = redo_lsn;
  for (const CheckpointTxnEntry& e : end.att) {
    Lsn first = e.first_lsn == kInvalidLsn ? 1 : e.first_lsn;
    if (first < bound) bound = first;
  }
  if (wal_->segmented()) {
    // Seal the segment holding the end record so everything older becomes
    // a deletion candidate at the *next* checkpoint, and this one can drop
    // whatever previous checkpoints sealed.
    TENDAX_RETURN_IF_ERROR(wal_->RotateSegmentNow());
    auto freed = wal_->TruncateSegmentsBelow(bound);
    if (!freed.ok()) return freed.status();
  }

  Hook(index, CheckpointPhase::kAfterTruncate);
  return Status::OK();
}

CheckpointerStats Checkpointer::stats() const {
  CheckpointerStats out;
  out.completed = m_completed_->Value();
  out.failed = m_failed_->Value();
  out.pages_flushed = m_pages_flushed_->Value();
  out.pages_skipped_busy = m_pages_busy_->Value();
  out.bytes_truncated = wal_->truncated_bytes();
  return out;
}

}  // namespace tendax
