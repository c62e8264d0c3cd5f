#include "txn/txn_manager.h"

#include "util/logging.h"

namespace tendax {

TxnManager::TxnManager(Wal* wal, LockManager* locks, Clock* clock,
                       bool sync_commit, MetricsRegistry* metrics)
    : wal_(wal), locks_(locks), clock_(clock), sync_commit_(sync_commit) {
  metrics = SharedOrOwnedRegistry(metrics, &owned_metrics_);
  m_begun_ = metrics->counter("txn.begun");
  m_committed_ = metrics->counter("txn.committed");
  m_aborted_ = metrics->counter("txn.aborted");
  m_snapshot_reads_ = metrics->counter("txn.snapshot_reads");
  m_commit_micros_ = metrics->histogram("txn.commit_micros");
}

Transaction* TxnManager::Begin(UserId user, TxnMode mode) {
  TxnId id(next_txn_id_.fetch_add(1, std::memory_order_relaxed));
  auto txn = std::make_unique<Transaction>(id, user, clock_->NowMicros(), mode);
  Transaction* raw = txn.get();
  // Snapshot-read transactions never log, so a begin record would only be
  // dead weight in the log (and would pin WAL truncation via the ATT).
  if (wal_ != nullptr && mode == TxnMode::kReadWrite) {
    LogRecord rec;
    rec.type = LogType::kBegin;
    rec.txn = id;
    auto lsn = wal_->Append(&rec);
    if (lsn.ok()) {
      raw->set_prev_lsn(*lsn);
      raw->first_lsn_ = *lsn;
    }
  }
  {
    MutexLock lock(mu_);
    active_[id.value] = std::move(txn);
  }
  m_begun_->Add();
  if (mode == TxnMode::kSnapshotRead) m_snapshot_reads_->Add();
  return raw;
}

Status TxnManager::Commit(Transaction* txn) {
  TENDAX_CHECK(txn->state() == TxnState::kActive);
  // First statement after the precondition so every exit — append failure,
  // early-release flush failure, group-flush failure, and success — records
  // commit latency via RAII.
  ScopedTimer commit_timer(m_commit_micros_);
  if (wal_ != nullptr && !txn->read_only()) {
    LogRecord rec;
    rec.type = LogType::kCommit;
    rec.txn = txn->id();
    rec.prev_lsn = txn->prev_lsn();
    auto lsn = wal_->Append(&rec);
    if (!lsn.ok()) {
      // The append failure is what the caller must see; the rollback's own
      // status (best-effort on a failing log) would only mask it.
      (void)Abort(txn);
      return lsn.status();
    }
    if (sync_commit_) {
      bool early_released = false;
      if (wal_->ReleasesLocksEarly()) {
        // Early lock release: the commit record has its place in the log,
        // and group-commit durability is a prefix of commit-LSN order, so
        // any transaction that builds on these writes commits strictly
        // later and can never outlive this one across a crash. Releasing
        // now lets the next writer of a hot document run while this commit
        // waits for the shared fsync — without it, a document-level X lock
        // serializes committers through the flush and there is never a
        // group to coalesce.
        locks_->ReleaseAll(txn->id());
        early_released = true;
      }
      Status flushed = wal_->CommitFlush(*lsn);
      if (!flushed.ok()) {
        if (early_released) {
          // Locks are gone, so another transaction may already have built
          // on this one's writes — in-place undo would be unsound. The Wal
          // has fail-stopped (poisoned) itself: no further commit can
          // succeed, and reopen + recovery re-establishes consistency from
          // whatever the log retained. Finalize without undo so no locks
          // or transaction slots leak.
          Finalize(txn, TxnState::kAborted);
          m_aborted_->Add();
          return flushed;
        }
        // The flush may have been shared with other committers (group
        // commit); its error fans out to every waiter of the batch, and
        // each one rolls back here — effects undone, locks released, no
        // listeners run. Whether the commit record reached durable storage
        // is ambiguous; recovery resolves it from the surviving log.
        (void)Abort(txn);
        return flushed;
      }
    }
  }
  // Copy what listeners need before the transaction object is destroyed.
  TxnId id = txn->id();
  UserId user = txn->user();
  ChangeBatch events = txn->events();

  Finalize(txn, TxnState::kCommitted);

  m_committed_->Add();
  std::vector<CommitListener> listeners;
  {
    MutexLock lock(mu_);
    listeners = listeners_;
  }
  for (const auto& listener : listeners) {
    listener(id, user, events);
  }
  return Status::OK();
}

Status TxnManager::Abort(Transaction* txn) {
  TENDAX_CHECK(txn->state() == TxnState::kActive);
  // Undo the write set in reverse order, logging a compensation record per
  // undone change so that a crash mid-abort recovers correctly. I/O failures
  // (the log device going down mid-abort, a page read error) degrade to
  // best-effort unlogged undo: the transaction is always finalized so locks
  // never leak, and crash recovery re-runs any missed undo from the
  // surviving log suffix.
  Status first_error = Status::OK();
  bool wal_ok = wal_ != nullptr;
  const auto& writes = txn->write_set();
  for (auto it = writes.rbegin(); it != writes.rend(); ++it) {
    UpdateOp inverse;
    const std::string* image;
    switch (it->op) {
      case UpdateOp::kInsert:
        inverse = UpdateOp::kDelete;
        image = &it->before;  // empty
        break;
      case UpdateOp::kDelete:
        inverse = UpdateOp::kInsert;
        image = &it->before;
        break;
      case UpdateOp::kUpdate:
        inverse = UpdateOp::kUpdate;
        image = &it->before;
        break;
      default:
        return Status::Internal("unknown op in write set");
    }
    Lsn clr_lsn = kInvalidLsn;
    if (wal_ok) {
      LogRecord clr;
      clr.type = LogType::kCompensation;
      clr.txn = txn->id();
      clr.prev_lsn = txn->prev_lsn();
      clr.op = inverse;
      clr.table_id = it->table_id;
      clr.rid = it->rid;
      clr.after = *image;
      clr.undo_next_lsn = it->lsn;
      auto lsn = wal_->Append(&clr);
      if (!lsn.ok()) {
        if (first_error.ok()) first_error = lsn.status();
        wal_ok = false;
      } else {
        clr_lsn = *lsn;
        txn->set_prev_lsn(clr_lsn);
      }
    }
    if (applier_ != nullptr) {
      Status applied = applier_->ApplyChange(it->table_id, inverse, it->rid,
                                             *image, clr_lsn);
      if (!applied.ok() && first_error.ok()) first_error = applied;
    }
  }
  if (wal_ok && !txn->read_only()) {
    LogRecord rec;
    rec.type = LogType::kAbort;
    rec.txn = txn->id();
    rec.prev_lsn = txn->prev_lsn();
    auto lsn = wal_->Append(&rec);
    if (!lsn.ok() && first_error.ok()) first_error = lsn.status();
  }
  // Undo non-logged side effects (index entries etc.) in reverse order.
  const auto& actions = txn->rollback_actions();
  for (auto it = actions.rbegin(); it != actions.rend(); ++it) {
    (*it)();
  }
  Finalize(txn, TxnState::kAborted);
  m_aborted_->Add();
  return first_error;
}

Status TxnManager::RunInTxn(UserId user,
                            const std::function<Status(Transaction*)>& body,
                            int max_retries) {
  Status last = Status::OK();
  for (int attempt = 0; attempt <= max_retries; ++attempt) {
    Transaction* txn = Begin(user);
    Status st = body(txn);
    if (st.ok()) {
      // Commit rolls the transaction back itself on a failed append/flush,
      // so there is nothing left to abort here.
      return Commit(txn);
    }
    Status aborted = Abort(txn);
    if (!aborted.ok()) return aborted;
    if (!st.IsRetryable()) return st;
    last = st;
  }
  return last;
}

Status TxnManager::RunSnapshotRead(
    UserId user, const std::function<Status(Transaction*)>& body) {
  // Snapshot reads hold no locks, never log, and have nothing to undo, so
  // the registry round-trip (two global-mutex crossings per read) would be
  // pure overhead on the lock-free read path. Run on a stack transaction
  // that never enters `active_`: it is invisible to ActiveCount, the
  // checkpoint ATT, and the begun/committed accounting — consistent with
  // the WAL records it never writes.
  Transaction txn(TxnId(next_txn_id_.fetch_add(1, std::memory_order_relaxed)),
                  user, clock_->NowMicros(), TxnMode::kSnapshotRead);
  m_snapshot_reads_->Add();
  Status st = body(&txn);
  txn.state_ = st.ok() ? TxnState::kCommitted : TxnState::kAborted;
  return st;
}

void TxnManager::AddCommitListener(CommitListener listener) {
  MutexLock lock(mu_);
  listeners_.push_back(std::move(listener));
}

Result<Lsn> TxnManager::LogUpdate(Transaction* txn, UpdateOp op,
                                  uint64_t table_id, uint64_t rid,
                                  std::string before, std::string after) {
  if (txn->is_snapshot_read()) {
    return Status::FailedPrecondition(
        "snapshot-read transaction cannot log updates");
  }
  Lsn lsn = kInvalidLsn;
  if (wal_ != nullptr) {
    LogRecord rec;
    rec.type = LogType::kUpdate;
    rec.txn = txn->id();
    rec.prev_lsn = txn->prev_lsn();
    rec.op = op;
    rec.table_id = table_id;
    rec.rid = rid;
    rec.before = before;
    rec.after = after;
    auto res = wal_->Append(&rec);
    if (!res.ok()) return res.status();
    lsn = *res;
    txn->set_prev_lsn(lsn);
  }
  txn->AddWrite(WriteEntry{op, table_id, rid, std::move(before),
                           std::move(after), lsn});
  return lsn;
}

size_t TxnManager::ActiveCount() const {
  MutexLock lock(mu_);
  return active_.size();
}

std::vector<CheckpointTxnEntry> TxnManager::ActiveTxnTable() const {
  MutexLock lock(mu_);
  std::vector<CheckpointTxnEntry> att;
  att.reserve(active_.size());
  for (const auto& [id, txn] : active_) {
    // Snapshot-read transactions have no log records for recovery to walk:
    // including them (first_lsn = kInvalidLsn) would only pin truncation.
    if (txn->is_snapshot_read()) continue;
    CheckpointTxnEntry e;
    e.txn = id;
    e.first_lsn = txn->first_lsn();
    e.last_lsn = txn->prev_lsn();
    att.push_back(e);
  }
  return att;
}

TxnManagerStats TxnManager::stats() const {
  TxnManagerStats out;
  out.begun = m_begun_->Value();
  out.committed = m_committed_->Value();
  out.aborted = m_aborted_->Value();
  return out;
}

void TxnManager::Finalize(Transaction* txn, TxnState state) {
  txn->state_ = state;
  locks_->ReleaseAll(txn->id());
  MutexLock lock(mu_);
  active_.erase(txn->id().value);  // destroys *txn
}

}  // namespace tendax
