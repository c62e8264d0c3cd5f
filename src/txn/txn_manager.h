#ifndef TENDAX_TXN_TXN_MANAGER_H_
#define TENDAX_TXN_TXN_MANAGER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "storage/wal.h"
#include "txn/lock_manager.h"
#include "txn/transaction.h"
#include "util/clock.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/shared_list.h"

namespace tendax {

/// Applies a logical change to stored data on behalf of abort-undo and
/// crash recovery: `op` is the operation to perform now (already inverted
/// for undo), `image` the record image it needs, `lsn` the LSN to stamp on
/// the touched page. Implemented by the db layer.
class ChangeApplier {
 public:
  virtual ~ChangeApplier() = default;
  virtual Status ApplyChange(uint64_t table_id, UpdateOp op, uint64_t rid,
                             const std::string& image, Lsn lsn) = 0;
};

/// Invoked after a transaction durably commits, with its change events.
/// Listeners drive real-time propagation to other editors, dynamic folders,
/// the search index and awareness. They must not write: the transaction is
/// over, so a write could only go to a second transaction that commits (or
/// is lost in a crash) on its own. `LogUpdate` from inside a listener fails
/// with FailedPrecondition.
using CommitListener =
    std::function<void(TxnId, UserId, const ChangeBatch&)>;

/// Invoked inside `Commit` for a transaction that carries change events,
/// before its commit record is appended and while it still holds its locks.
/// A hook may write through `txn` (those records commit or abort with it)
/// and may annotate `txn->mutable_events()`. A failed hook aborts the
/// transaction, and its status is what `Commit` returns.
using PreCommitHook = std::function<Status(Transaction*)>;

/// Transaction counters, read from the `txn.*` registry metrics.
struct TxnManagerStats {
  uint64_t begun = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
};

/// Transaction lifecycle: begin / commit / abort with strict 2PL and WAL
/// integration (begin + update records while running, commit/abort record +
/// log flush at the end, compensating records during abort-undo).
class TxnManager {
 public:
  /// `wal` may be null for a volatile (non-durable) database. `sync_commit`
  /// controls whether commit waits for the log flush (durability) or not.
  /// `metrics` may be null (standalone/unit use: the manager then counts
  /// into a private registry).
  TxnManager(Wal* wal, LockManager* locks, Clock* clock,
             bool sync_commit = true, MetricsRegistry* metrics = nullptr);

  /// Starts a transaction on behalf of `user`. `TxnMode::kSnapshotRead`
  /// transactions write no begin record (they never log anything, so there
  /// is no chain for recovery to walk) and must not acquire locks or call
  /// `LogUpdate`.
  Transaction* Begin(UserId user, TxnMode mode = TxnMode::kReadWrite);

  /// Commits: runs the pre-commit hooks (if the transaction carries change
  /// events), appends the commit record, waits for its (possibly group)
  /// flush, releases locks, then publishes the transaction's change events
  /// to commit listeners. On a failed hook, append or flush the transaction
  /// is rolled back before returning — callers must not touch `txn` after a
  /// Commit call regardless of the outcome.
  Status Commit(Transaction* txn);

  /// Aborts: undoes the write set in reverse order through the applier
  /// (logging CLRs), appends the abort record, releases locks.
  Status Abort(Transaction* txn);

  /// Runs `body` in a transaction with automatic commit, abort on error,
  /// and bounded retry on retryable (lock/deadlock) failures.
  Status RunInTxn(UserId user, const std::function<Status(Transaction*)>& body,
                  int max_retries = 8);

  /// Runs `body` in a `TxnMode::kSnapshotRead` transaction: no locks, no
  /// WAL records, no retries (there is nothing to conflict on). The body
  /// reads published MVCC snapshots; `LogUpdate` inside it fails typed.
  Status RunSnapshotRead(UserId user,
                         const std::function<Status(Transaction*)>& body);

  void SetChangeApplier(ChangeApplier* applier) { applier_ = applier; }
  void AddCommitListener(CommitListener listener);
  void AddPreCommitHook(PreCommitHook hook);

  /// Appends an update record for `txn` and returns its LSN; maintains the
  /// per-transaction chain and write set. Called by the db layer. Fails
  /// with FailedPrecondition on a snapshot-read transaction and from inside
  /// a commit listener of this manager.
  Result<Lsn> LogUpdate(Transaction* txn, UpdateOp op, uint64_t table_id,
                        uint64_t rid, std::string before, std::string after);

  size_t ActiveCount() const TENDAX_EXCLUDES(mu_);

  /// Snapshot of the active-transaction table for a fuzzy checkpoint: every
  /// in-flight transaction with the LSN of its begin record (`first_lsn`)
  /// and its most recent record (`last_lsn`). Log truncation must retain
  /// everything at or above the minimum first_lsn so a post-crash undo can
  /// still walk these transactions' chains.
  std::vector<CheckpointTxnEntry> ActiveTxnTable() const TENDAX_EXCLUDES(mu_);

  TxnManagerStats stats() const;
  LockManager* lock_manager() { return locks_; }
  Clock* clock() { return clock_; }
  Wal* wal() { return wal_; }

 private:
  void Finalize(Transaction* txn, TxnState state);

  Wal* const wal_;
  LockManager* const locks_;
  Clock* const clock_;
  const bool sync_commit_;
  ChangeApplier* applier_ = nullptr;

  std::atomic<uint64_t> next_txn_id_{1};
  // Registry bookkeeping only: never held across wal_ / locks_ / hook or
  // listener calls. Hooks and listeners are immutable snapshots, replaced
  // whole when one is added, so a commit takes a reference, not a copy.
  mutable Mutex mu_{"txnmgr.mu", lockorder::kRankTxn};
  std::unordered_map<uint64_t, std::unique_ptr<Transaction>> active_
      TENDAX_GUARDED_BY(mu_);
  SharedList<PreCommitHook> hooks_ TENDAX_GUARDED_BY(mu_);
  SharedList<CommitListener> listeners_ TENDAX_GUARDED_BY(mu_);

  // The only store of the manager's counters (never null).
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  Counter* m_begun_ = nullptr;
  Counter* m_committed_ = nullptr;
  Counter* m_aborted_ = nullptr;
  Counter* m_snapshot_reads_ = nullptr;
  Histogram* m_commit_micros_ = nullptr;
};

}  // namespace tendax

#endif  // TENDAX_TXN_TXN_MANAGER_H_
