#ifndef TENDAX_TXN_TRANSACTION_H_
#define TENDAX_TXN_TRANSACTION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "storage/wal.h"
#include "txn/events.h"
#include "util/ids.h"

namespace tendax {

enum class TxnState : uint8_t { kActive = 0, kCommitted = 1, kAborted = 2 };

/// How a transaction interacts with concurrency control and the log.
///
/// `kSnapshotRead` is the MVCC read mode: the transaction reads published
/// document snapshots only, acquires no LockManager locks, writes no WAL
/// records (not even a begin record), and refuses `LogUpdate`. It exists so
/// read-only operations still run inside the transaction framework (events,
/// accounting, uniform call shape) without ever stalling behind a writer.
enum class TxnMode : uint8_t { kReadWrite = 0, kSnapshotRead = 1 };

/// One entry of a transaction's write set; enough to undo the change
/// logically (and to find the WAL record chain).
struct WriteEntry {
  UpdateOp op;
  uint64_t table_id;
  uint64_t rid;
  std::string before;
  std::string after;
  Lsn lsn;
};

/// A database transaction. In TeNDaX every editing action — a keystroke, a
/// paste, a layout change, a workflow step — runs inside one of these, which
/// is what makes collaborative editing "real-time transactions".
///
/// A Transaction object is used by one thread at a time (the owning editor
/// session); the managers it touches are themselves thread-safe.
class Transaction {
 public:
  Transaction(TxnId id, UserId user, Timestamp start,
              TxnMode mode = TxnMode::kReadWrite)
      : id_(id), user_(user), start_time_(start), mode_(mode) {}

  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  TxnId id() const { return id_; }
  UserId user() const { return user_; }
  TxnState state() const { return state_; }
  Timestamp start_time() const { return start_time_; }
  TxnMode mode() const { return mode_; }
  bool is_snapshot_read() const { return mode_ == TxnMode::kSnapshotRead; }

  // prev_lsn is written by the owning thread on every logged change and
  // read concurrently by the fuzzy checkpointer's ATT snapshot; relaxed
  // atomics keep that race benign (the snapshot only needs *a* recent
  // value — truncation safety rests on first_lsn, which is written once
  // before the transaction is published).
  Lsn prev_lsn() const { return prev_lsn_.load(std::memory_order_relaxed); }
  void set_prev_lsn(Lsn lsn) {
    prev_lsn_.store(lsn, std::memory_order_relaxed);
  }

  /// LSN of this transaction's begin record; lower-bounds every record it
  /// will ever log. Fuzzy checkpoints snapshot it into the ATT so log
  /// truncation never discards records an undo might still need.
  Lsn first_lsn() const { return first_lsn_; }

  const std::vector<WriteEntry>& write_set() const { return write_set_; }
  void AddWrite(WriteEntry entry) { write_set_.push_back(std::move(entry)); }

  /// The change events so far; pre-commit hooks may annotate them.
  ChangeBatch* mutable_events() { return &events_; }
  void AddEvent(ChangeEvent event) { events_.push_back(std::move(event)); }

  /// Registers compensation for a non-logged side effect (e.g. an in-memory
  /// index entry). Actions run in reverse order if the transaction aborts;
  /// they are discarded on commit. Actions are best-effort by contract —
  /// the abort path has no way to surface their status, which is why the
  /// registering lambdas `(void)`-discard the inner Status.
  void AddRollbackAction(std::function<void()> fn) {
    rollback_actions_.push_back(std::move(fn));
  }
  const std::vector<std::function<void()>>& rollback_actions() const {
    return rollback_actions_;
  }

  bool read_only() const { return write_set_.empty(); }

 private:
  friend class TxnManager;

  const TxnId id_;
  const UserId user_;
  const Timestamp start_time_;
  const TxnMode mode_;
  TxnState state_ = TxnState::kActive;
  std::atomic<Lsn> prev_lsn_{kInvalidLsn};
  Lsn first_lsn_ = kInvalidLsn;
  std::vector<WriteEntry> write_set_;
  ChangeBatch events_;
  std::vector<std::function<void()>> rollback_actions_;
};

}  // namespace tendax

#endif  // TENDAX_TXN_TRANSACTION_H_
