#include "storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/coding.h"

namespace tendax {

namespace {

uint32_t Fnv1a(const char* data, size_t n) {
  uint32_t h = 2166136261u;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 16777619u;
  }
  return h;
}

}  // namespace

void LogRecord::EncodeTo(std::string* dst) const {
  PutVarint64(dst, lsn);
  PutVarint64(dst, prev_lsn);
  PutVarint64(dst, txn.value);
  dst->push_back(static_cast<char>(type));
  if (type == LogType::kUpdate || type == LogType::kCompensation) {
    dst->push_back(static_cast<char>(op));
    PutVarint64(dst, table_id);
    PutVarint64(dst, rid);
    PutLengthPrefixed(dst, before);
    PutLengthPrefixed(dst, after);
    PutVarint64(dst, undo_next_lsn);
  } else if (type == LogType::kCheckpointEnd) {
    PutVarint64(dst, checkpoint_begin_lsn);
    PutVarint64(dst, checkpoint_redo_lsn);
    PutVarint64(dst, att.size());
    for (const CheckpointTxnEntry& e : att) {
      PutVarint64(dst, e.txn);
      PutVarint64(dst, e.first_lsn);
      PutVarint64(dst, e.last_lsn);
    }
    PutVarint64(dst, dpt.size());
    for (const CheckpointPageEntry& e : dpt) {
      PutVarint64(dst, e.page);
      PutVarint64(dst, e.rec_lsn);
    }
  }
}

bool LogRecord::DecodeFrom(Slice input, LogRecord* out) {
  uint64_t lsn, prev, txn;
  if (!GetVarint64(&input, &lsn)) return false;
  if (!GetVarint64(&input, &prev)) return false;
  if (!GetVarint64(&input, &txn)) return false;
  if (input.empty()) return false;
  auto type = static_cast<LogType>(input[0]);
  input.remove_prefix(1);
  out->lsn = lsn;
  out->prev_lsn = prev;
  out->txn = TxnId(txn);
  out->type = type;
  if (type == LogType::kUpdate || type == LogType::kCompensation) {
    if (input.empty()) return false;
    out->op = static_cast<UpdateOp>(input[0]);
    input.remove_prefix(1);
    Slice before, after;
    if (!GetVarint64(&input, &out->table_id)) return false;
    if (!GetVarint64(&input, &out->rid)) return false;
    if (!GetLengthPrefixed(&input, &before)) return false;
    if (!GetLengthPrefixed(&input, &after)) return false;
    if (!GetVarint64(&input, &out->undo_next_lsn)) return false;
    out->before = before.ToString();
    out->after = after.ToString();
  } else if (type == LogType::kCheckpointEnd) {
    uint64_t n;
    if (!GetVarint64(&input, &out->checkpoint_begin_lsn)) return false;
    if (!GetVarint64(&input, &out->checkpoint_redo_lsn)) return false;
    if (!GetVarint64(&input, &n)) return false;
    // Each entry is at least one byte per field; a count past the remaining
    // input is malformed (and guards the reserve against fuzzed payloads).
    if (n > input.size()) return false;
    out->att.clear();
    out->att.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      CheckpointTxnEntry e;
      if (!GetVarint64(&input, &e.txn)) return false;
      if (!GetVarint64(&input, &e.first_lsn)) return false;
      if (!GetVarint64(&input, &e.last_lsn)) return false;
      out->att.push_back(e);
    }
    if (!GetVarint64(&input, &n)) return false;
    if (n > input.size()) return false;
    out->dpt.clear();
    out->dpt.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      CheckpointPageEntry e;
      if (!GetVarint64(&input, &e.page)) return false;
      if (!GetVarint64(&input, &e.rec_lsn)) return false;
      out->dpt.push_back(e);
    }
  }
  return true;
}

Status InMemoryLogStorage::Append(const Slice& data) {
  MutexLock lock(mu_);
  buffer_.append(data.data(), data.size());
  return Status::OK();
}

Status InMemoryLogStorage::ReadAll(std::string* out) {
  MutexLock lock(mu_);
  *out = buffer_;
  return Status::OK();
}

Status InMemoryLogStorage::Truncate() {
  MutexLock lock(mu_);
  buffer_.clear();
  return Status::OK();
}

void InMemoryLogStorage::CorruptTail(size_t n) {
  MutexLock lock(mu_);
  if (n < buffer_.size()) buffer_.resize(n);
}

Result<std::unique_ptr<FileLogStorage>> FileLogStorage::Open(
    const std::string& path) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + strerror(errno));
  }
  return std::unique_ptr<FileLogStorage>(new FileLogStorage(fd, path));
}

FileLogStorage::~FileLogStorage() {
  if (fd_ >= 0) ::close(fd_);
}

Status FileLogStorage::Append(const Slice& data) {
  const char* p = data.data();
  size_t left = data.size();
  while (left > 0) {
    ssize_t n = ::write(fd_, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("write log: " + std::string(strerror(errno)));
    }
    p += n;
    left -= static_cast<size_t>(n);
  }
  return Status::OK();
}

Status FileLogStorage::Sync() {
  if (::fsync(fd_) != 0) {
    return Status::IOError("fsync log: " + std::string(strerror(errno)));
  }
  return Status::OK();
}

Status FileLogStorage::ReadAll(std::string* out) {
  out->clear();
  off_t size = ::lseek(fd_, 0, SEEK_END);
  if (size < 0) {
    return Status::IOError("lseek log: " + std::string(strerror(errno)));
  }
  out->resize(static_cast<size_t>(size));
  size_t got = 0;
  while (got < out->size()) {
    ssize_t n = ::pread(fd_, out->data() + got, out->size() - got,
                        static_cast<off_t>(got));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("pread log: " + std::string(strerror(errno)));
    }
    if (n == 0) break;
    got += static_cast<size_t>(n);
  }
  out->resize(got);
  return Status::OK();
}

Status FileLogStorage::Truncate() {
  if (::ftruncate(fd_, 0) != 0) {
    return Status::IOError("ftruncate log: " + std::string(strerror(errno)));
  }
  return Status::OK();
}

Wal::Wal(std::shared_ptr<LogStorage> storage, GroupCommitOptions group_commit,
         MetricsRegistry* metrics, uint64_t segment_bytes)
    : storage_(std::move(storage)),
      segment_bytes_(segment_bytes),
      gc_options_(std::move(group_commit)),
      gc_mu_("wal.gc", lockorder::kRankWalGroup) {
  metrics = SharedOrOwnedRegistry(metrics, &owned_metrics_);
  m_appends_ = metrics->counter("wal.appends");
  m_rotations_ = metrics->counter("wal.rotations");
  m_segments_ = metrics->gauge("wal.segments");
  m_truncated_bytes_ = metrics->counter("wal.truncated_bytes");
  m_syncs_ = metrics->counter("wal.syncs");
  m_commits_ = metrics->counter("wal.commits");
  m_group_flushes_ = metrics->counter("wal.group_flushes");
  m_failed_flushes_ = metrics->counter("wal.failed_flushes");
  m_max_batch_ = metrics->gauge("wal.max_batch");
  m_flush_micros_ = metrics->histogram("wal.flush_micros");
  m_commit_flush_micros_ = metrics->histogram("wal.commit_flush_micros");
  m_batch_size_ = metrics->histogram("wal.batch_size");
  // Continue LSN numbering after any records already in the log.
  Lsn durable = 0;
  if (storage_->segmented()) {
    // Per-segment read rebuilds both the LSN cursor and the segment spans
    // the truncation logic needs. Only the last segment may carry a torn
    // tail (appends never touch sealed segments), so a decode that stops
    // early in an earlier segment marks everything after it untrustworthy.
    MutexLock lock(mu_);
    Lsn next = 1;
    bool trusted = true;
    for (uint64_t id : storage_->SegmentIds()) {
      SegmentSpan span;
      std::string part;
      std::vector<LogRecord> records;
      if (trusted && storage_->ReadSegment(id, &part).ok()) {
        DecodeLogBuffer(part, &records);
      } else {
        trusted = false;
      }
      if (!records.empty()) {
        if (next != 1 && records.front().lsn != next) {
          // Discontiguous across the segment boundary: treat this segment
          // and everything after it as trash (span unknown => retained).
          trusted = false;
          segment_spans_[id] = SegmentSpan{};
          continue;
        }
        span.first = records.front().lsn;
        span.last = records.back().lsn;
        next = records.back().lsn + 1;
      } else if (trusted) {
        // A sealed-empty segment: holds no records, safe to truncate once
        // anything newer is truncatable.
        span.first = next;
        span.last = next - 1;
      }
      segment_spans_[id] = span;
    }
    // The current segment is open-ended regardless of what the scan saw.
    SegmentSpan& current = segment_spans_[storage_->current_segment()];
    if (current.first == kInvalidLsn) current.first = next;
    current.last = kInvalidLsn;
    next_lsn_ = next;
    flushed_lsn_ = next - 1;
    durable = flushed_lsn_;
    m_segments_->Set(static_cast<int64_t>(segment_spans_.size()));
  } else {
    std::string buffer;
    if (storage_->ReadAll(&buffer).ok()) {
      std::vector<LogRecord> records;
      MutexLock lock(mu_);
      next_lsn_ = DecodeLogBuffer(buffer, &records);
      flushed_lsn_ = next_lsn_ - 1;
      durable = flushed_lsn_;
    }
  }
  {
    MutexLock lock(gc_mu_);
    gc_durable_ = durable;
  }
  if (gc_options_.mode == CommitFlushMode::kFlusherThread) {
    flusher_ = std::thread(&Wal::FlusherLoop, this);
  }
}

Wal::~Wal() {
  // Note: deliberately no flush here — dropping a Wal with buffered records
  // models a crash that loses them (see the constructor comment). Shutdown
  // only resolves committers still blocked on the flusher.
  Shutdown();
}

Result<Lsn> Wal::Append(LogRecord* rec) {
  if (gc_poisoned_.load(std::memory_order_acquire)) {
    return gc_poison_status_;
  }
  MutexLock lock(mu_);
  rec->lsn = next_lsn_++;
  std::string payload;
  rec->EncodeTo(&payload);
  PutFixed32(&pending_, static_cast<uint32_t>(payload.size()));
  PutFixed32(&pending_, Fnv1a(payload.data(), payload.size()));
  pending_.append(payload);
  m_appends_->Add();
  return rec->lsn;
}

Status Wal::Flush(Lsn up_to) { return FlushInternal(up_to, false); }

Status Wal::FlushInternal(Lsn up_to, bool force_sync) {
  MutexLock l(mu_);
  for (;;) {
    if (!force_sync && up_to <= flushed_lsn_) return Status::OK();
    if (!flush_in_flight_) break;
    flush_cv_.Wait(l);
  }
  flush_in_flight_ = true;
  // Armed only after the already-durable early return above, so the
  // histogram measures physical flushes; RAII covers both the append-failed
  // and sync-failed exits below.
  ScopedTimer flush_timer(m_flush_micros_);
  std::string batch;
  batch.swap(pending_);
  const Lsn target = next_lsn_ - 1;
  l.Unlock();

  // Storage I/O runs without mu_ so appenders keep flowing during a slow
  // fsync; flush_in_flight_ keeps the batches themselves serialized.
  Status st = Status::OK();
  if (!batch.empty()) st = storage_->Append(batch);
  const bool appended = st.ok();
  if (appended) st = storage_->Sync();

  l.Lock();
  if (appended) {
    // The bytes reached storage even if the Sync failed; a retry only needs
    // to Sync again, so the batch stays out of pending_.
    m_syncs_->Add();
    if (st.ok() && target > flushed_lsn_) flushed_lsn_ = target;
    if (st.ok() && segment_bytes_ > 0 && storage_->segmented() &&
        storage_->SegmentBytes(storage_->current_segment()) >=
            segment_bytes_) {
      // Size-based rotation. Safe here: we still own the flight, so no
      // other flush can be mid-I/O against the old segment. Failure is
      // benign — appends simply keep landing in the oversized segment.
      (void)RotateLocked(flushed_lsn_);
    }
  } else {
    // Nothing new became durable; put the batch back ahead of any records
    // appended meanwhile so log order is preserved for the retry.
    pending_.insert(0, batch);
  }
  flush_in_flight_ = false;
  flush_cv_.NotifyAll();
  return st;
}

Status Wal::FlushAll() {
  Lsn last;
  {
    MutexLock lock(mu_);
    last = next_lsn_ - 1;
  }
  return Flush(last);
}

Status Wal::CommitFlush(Lsn lsn) {
  // First statement so every exit — poisoned, inline, per-commit, shutdown
  // degrade, and both group modes — records into the histogram via RAII.
  ScopedTimer commit_timer(m_commit_flush_micros_);
  MutexLock l(gc_mu_);
  m_commits_->Add();
  if (gc_poisoned_.load(std::memory_order_relaxed)) {
    return gc_poison_status_;
  }
  switch (gc_options_.mode) {
    case CommitFlushMode::kInline:
      l.Unlock();
      return FlushInternal(lsn, /*force_sync=*/false);
    case CommitFlushMode::kPerCommit:
      l.Unlock();
      return FlushInternal(lsn, /*force_sync=*/true);
    case CommitFlushMode::kLeader:
    case CommitFlushMode::kFlusherThread:
      break;
  }
  if (gc_shutdown_) {
    // Engine is closing; degrade to an inline flush rather than block on a
    // flusher that is gone.
    l.Unlock();
    return FlushInternal(lsn, /*force_sync=*/false);
  }

  ++gc_waiters_;
  if (lsn > gc_max_requested_) gc_max_requested_ = lsn;
  const uint64_t start_gen = gc_gen_;
  if (gc_options_.hooks) gc_options_.hooks->OnCommitEnqueued(gc_waiters_, lsn);

  Status result = Status::OK();
  if (gc_options_.mode == CommitFlushMode::kFlusherThread) {
    gc_work_ = true;
    gc_flusher_cv_.NotifyOne();
    // Wake when a flush covers us — or when a flush attempt that covered us
    // fails, in which case its error fans out to the whole batch.
    while (!(gc_durable_ >= lsn ||
             (gc_fail_gen_ > start_gen && gc_fail_target_ >= lsn))) {
      gc_waiter_cv_.Wait(l);
    }
    if (gc_fail_gen_ > start_gen && gc_fail_target_ >= lsn) {
      // A shared flush attempt that covered this commit failed. Take the
      // error even if a later attempt made the bytes durable (the flusher
      // may re-sync an already-appended batch): every waiter of a failed
      // batch reports failure and rolls back, and recovery resolves the
      // durability ambiguity from the surviving log — the rollback's CLRs
      // net out a commit record that did reach storage.
      result = gc_fail_status_;
    }
  } else {
    // kLeader: the first waiter to find no flush in progress flushes for
    // the whole group; everyone else blocks until an outcome covers them.
    // Failure coverage is checked first for the same reason as above: a
    // failed attempt fans out to its whole batch even if a later attempt
    // succeeded.
    for (;;) {
      if (gc_fail_gen_ > start_gen && gc_fail_target_ >= lsn) {
        result = gc_fail_status_;
        break;
      }
      if (gc_durable_ >= lsn) break;
      if (!gc_flush_active_) {
        gc_flush_active_ = true;
        GroupFlushLocked(l);
        gc_flush_active_ = false;
        // Loop to evaluate our own fate against the published outcome.
      } else {
        gc_waiter_cv_.Wait(l);
      }
    }
  }
  --gc_waiters_;
  if (gc_waiters_ == 0) gc_flusher_cv_.NotifyAll();
  return result;
}

// REQUIRES(gc_mu_) is enforced at call sites; the body's unlock/relock of
// the caller-held lock is opted out of the static analysis (see wal.h).
void Wal::GroupFlushLocked(MutexLock& l) TENDAX_NO_THREAD_SAFETY_ANALYSIS {
  const uint64_t index = ++gc_flush_seq_;
  GroupCommitHooks* hooks = gc_options_.hooks.get();
  if (hooks != nullptr) {
    const size_t announced_waiters = gc_waiters_;
    const Lsn announced_target = gc_max_requested_;
    l.Unlock();  // the hook may block (it is the test pause gate)
    hooks->OnGroupFlushStart(index, announced_waiters, announced_target);
    l.Lock();
  }
  // Snapshot after the hook gate so commits that piled up while a test held
  // the flusher paused belong to this attempt's outcome (success or error).
  const Lsn target = gc_max_requested_;
  const size_t batch = gc_waiters_;
  l.Unlock();
  Status st = FlushInternal(target, /*force_sync=*/false);
  if (hooks != nullptr) hooks->OnGroupFlushEnd(index, st);
  const Lsn durable = flushed_lsn();
  l.Lock();
  ++gc_gen_;
  m_group_flushes_->Add();
  m_max_batch_->SetMax(static_cast<int64_t>(batch));
  MetricRecord(m_batch_size_, batch);
  if (st.ok()) {
    if (durable > gc_durable_) gc_durable_ = durable;
  } else {
    m_failed_flushes_->Add();
    gc_fail_gen_ = gc_gen_;
    gc_fail_target_ = target;
    gc_fail_status_ = st;
    if (gc_options_.early_lock_release &&
        !gc_poisoned_.load(std::memory_order_relaxed)) {
      // The waiters of this batch released their locks when they appended
      // their commit records, so other transactions may already have built
      // on writes we now cannot make durable — rolling the batch back
      // in place would be unsound. Fail-stop instead: every further
      // Append/CommitFlush returns this error, and reopen + recovery
      // re-establishes a consistent state from whatever the log retained.
      gc_poison_status_ = st;
      gc_poisoned_.store(true, std::memory_order_release);
      // Fail-stop covers every waiter currently parked, not just the ones
      // the failed attempt targeted — no later attempt may hand any of
      // them a success once the pipeline is poisoned.
      if (gc_max_requested_ > gc_fail_target_) {
        gc_fail_target_ = gc_max_requested_;
      }
    }
  }
  gc_waiter_cv_.NotifyAll();
}

void Wal::FlusherLoop() {
  MutexLock l(gc_mu_);
  for (;;) {
    while (!(gc_shutdown_ || gc_work_)) gc_flusher_cv_.Wait(l);
    if (gc_shutdown_) {
      // Drain: every remaining waiter gets an outcome (durable or the
      // fanned-out flush error) before the thread exits.
      while (gc_waiters_ > 0) {
        gc_work_ = false;
        GroupFlushLocked(l);
        while (!(gc_waiters_ == 0 || gc_work_)) gc_flusher_cv_.Wait(l);
      }
      return;
    }
    // Batching window: give concurrent committers a beat to pile on before
    // paying the fsync, unless the batch is already full.
    if (gc_options_.flush_interval.count() > 0 &&
        gc_waiters_ < gc_options_.max_batch_waiters) {
      const auto deadline =
          std::chrono::steady_clock::now() + gc_options_.flush_interval;
      while (!(gc_shutdown_ ||
               gc_waiters_ >= gc_options_.max_batch_waiters)) {
        if (gc_flusher_cv_.WaitUntil(l, deadline) ==
            std::cv_status::timeout) {
          break;
        }
      }
    }
    gc_work_ = false;
    if (gc_waiters_ > 0) GroupFlushLocked(l);
  }
}

void Wal::Shutdown() {
  {
    MutexLock l(gc_mu_);
    gc_shutdown_ = true;
  }
  gc_flusher_cv_.NotifyAll();
  if (flusher_.joinable()) flusher_.join();
}

Status Wal::poison_status() const {
  MutexLock l(gc_mu_);
  return gc_poisoned_.load(std::memory_order_relaxed) ? gc_poison_status_
                                                      : Status::OK();
}

WalGroupCommitStats Wal::group_commit_stats() const {
  WalGroupCommitStats out;
  out.commits = m_commits_->Value();
  out.group_flushes = m_group_flushes_->Value();
  out.failed_flushes = m_failed_flushes_->Value();
  out.max_batch = static_cast<uint64_t>(m_max_batch_->Value());
  out.syncs = m_syncs_->Value();
  return out;
}

Lsn Wal::next_lsn() const {
  MutexLock lock(mu_);
  return next_lsn_;
}

Lsn Wal::flushed_lsn() const {
  MutexLock lock(mu_);
  return flushed_lsn_;
}

Status Wal::ReadAll(std::vector<LogRecord>* out) {
  TENDAX_RETURN_IF_ERROR(FlushAll());
  std::string buffer;
  TENDAX_RETURN_IF_ERROR(storage_->ReadAll(&buffer));
  out->clear();
  DecodeLogBuffer(buffer, out);
  return Status::OK();
}

Status Wal::Reset() {
  MutexLock lock(mu_);
  // An in-flight flush would append its batch after the truncate; wait it
  // out so the log restarts empty.
  while (flush_in_flight_) flush_cv_.Wait(lock);
  pending_.clear();
  TENDAX_RETURN_IF_ERROR(storage_->Truncate());
  flushed_lsn_ = next_lsn_ - 1;
  if (storage_->segmented()) {
    segment_spans_.clear();
    segment_spans_[storage_->current_segment()] =
        SegmentSpan{next_lsn_, kInvalidLsn};
    m_segments_->Set(static_cast<int64_t>(segment_spans_.size()));
  }
  return Status::OK();
}

size_t Wal::SegmentCount() const {
  if (!storage_->segmented()) return 1;
  MutexLock lock(mu_);
  return segment_spans_.size();
}

Status Wal::RotateLocked(Lsn last_lsn) {
  const uint64_t old_id = storage_->current_segment();
  uint64_t new_id = 0;
  TENDAX_RETURN_IF_ERROR(storage_->RotateSegment(&new_id));
  SegmentSpan& old_span = segment_spans_[old_id];
  old_span.last = last_lsn;
  if (old_span.first == kInvalidLsn) old_span.first = last_lsn + 1;
  // Records buffered but not yet flushed (lsn > last_lsn) land in the new
  // segment, so its span opens right after the sealed one.
  segment_spans_[new_id] = SegmentSpan{last_lsn + 1, kInvalidLsn};
  m_rotations_->Add();
  m_segments_->Set(static_cast<int64_t>(segment_spans_.size()));
  return Status::OK();
}

Status Wal::RotateSegmentNow() {
  if (!storage_->segmented()) return Status::OK();
  TENDAX_RETURN_IF_ERROR(FlushAll());
  MutexLock lock(mu_);
  // Rotation must not interleave with a flush's storage I/O: the flush's
  // Sync would hit the new, empty segment while its batch sits unsynced in
  // the sealed one.
  while (flush_in_flight_) flush_cv_.Wait(lock);
  return RotateLocked(flushed_lsn_);
}

Result<uint64_t> Wal::TruncateSegmentsBelow(Lsn bound) {
  if (!storage_->segmented() || bound <= 1) return uint64_t{0};
  MutexLock lock(mu_);
  uint64_t freed = 0;
  // Oldest-first: a crash mid-sweep then leaves a contiguous suffix of the
  // log, which is the shape every reader (recovery, the span rebuild in
  // the constructor) is built to trust.
  while (segment_spans_.size() > 1) {
    auto it = segment_spans_.begin();
    if (it->first == storage_->current_segment()) break;
    const SegmentSpan& span = it->second;
    // An open/unknown span, or one reaching into [bound, ...), must stay.
    if (span.last == kInvalidLsn || span.last >= bound) break;
    uint64_t bytes = 0;
    Status st = storage_->DropSegment(it->first, &bytes);
    if (!st.ok()) {
      m_segments_->Set(static_cast<int64_t>(segment_spans_.size()));
      return st;
    }
    freed += bytes;
    segment_spans_.erase(it);
  }
  m_segments_->Set(static_cast<int64_t>(segment_spans_.size()));
  m_truncated_bytes_->Add(freed);
  return freed;
}

Lsn Wal::DecodeLogBuffer(const std::string& buffer,
                         std::vector<LogRecord>* out) {
  Slice input(buffer);
  Lsn next = 1;
  bool first = true;
  while (input.size() >= 8) {
    uint32_t len = DecodeFixed32(input.data());
    uint32_t crc = DecodeFixed32(input.data() + 4);
    if (input.size() < 8 + static_cast<size_t>(len)) break;  // torn tail
    Slice payload(input.data() + 8, len);
    if (Fnv1a(payload.data(), payload.size()) != crc) break;  // corrupt tail
    LogRecord rec;
    if (!LogRecord::DecodeFrom(payload, &rec)) break;
    // LSNs are assigned contiguously (Reset() truncates bytes but keeps
    // numbering), so a record that passes framing yet breaks the sequence
    // is trash — stop rather than hand recovery an out-of-order history.
    if (rec.lsn == kInvalidLsn || (!first && rec.lsn != next)) break;
    first = false;
    next = rec.lsn + 1;
    out->push_back(std::move(rec));
    input.remove_prefix(8 + len);
  }
  return next;
}

}  // namespace tendax
