#ifndef TENDAX_DB_DATABASE_H_
#define TENDAX_DB_DATABASE_H_

#include <chrono>
#include <memory>
#include <string>
#include <unordered_map>

#include "db/bptree.h"
#include "db/catalog.h"
#include "db/checkpointer.h"
#include "db/recovery.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/wal.h"
#include "txn/lock_manager.h"
#include "txn/txn_manager.h"
#include "util/clock.h"
#include "util/mutex.h"
#include "util/result.h"

namespace tendax {

/// Configuration for opening a database.
struct DatabaseOptions {
  /// Path prefix for the data file (`<path>`) and log (`<path>.wal`).
  /// Empty means fully in-memory.
  std::string path;
  /// Buffer pool capacity in pages.
  size_t buffer_pool_pages = 4096;
  /// Whether commits wait for the log flush.
  bool sync_commit = true;
  /// How commit flushes are serviced (per-commit vs group commit); the
  /// flusher thread, when configured, lives inside the Wal and is drained
  /// on close. See `GroupCommitOptions`.
  GroupCommitOptions group_commit;
  /// Lock wait timeout before a Conflict error. When the acquiring thread
  /// carries an ambient request deadline (util/deadline.h — armed by the
  /// wire endpoint from the frame's `deadline_micros`), the effective wait
  /// bound is min(lock_timeout, remaining deadline budget) and a
  /// deadline-side expiry surfaces as kDeadlineExceeded instead.
  std::chrono::milliseconds lock_timeout{2000};
  /// Time source for all metadata stamps; defaults to the system clock.
  std::shared_ptr<Clock> clock;
  /// Test hooks: pre-built storage to share across a simulated crash.
  std::shared_ptr<DiskManager> disk;
  std::shared_ptr<LogStorage> log_storage;
  /// Segmented WAL: rotate to a new segment once the current one exceeds
  /// this many bytes. Only meaningful over a segmented LogStorage —
  /// file-backed databases use one by default; in-memory/injected storages
  /// opt in by passing a SegmentedLogStorage as `log_storage`.
  uint64_t wal_segment_bytes = 1 << 20;
  /// Background fuzzy checkpointer cadence (0 = no timer trigger). With
  /// either trigger set, Open starts a checkpointer thread after recovery.
  uint64_t checkpoint_interval_micros = 0;
  /// Checkpoint once this many buffer-pool pages are dirty (0 = off).
  size_t checkpoint_dirty_page_threshold = 0;
  /// Test-only checkpoint phase hooks (pause gates); null in production.
  std::shared_ptr<CheckpointHooks> checkpoint_hooks;
  /// Metrics registry shared by every subsystem of this database. When
  /// unset, Open creates an enabled registry; pass one constructed with
  /// `MetricsRegistry(false)` to disable latency histograms. One registry
  /// serves one Database: the subsystems' stats accessors read its
  /// counters, so a registry shared by two databases (or by a database and
  /// its reopened successor) sums both into every accessor.
  std::shared_ptr<MetricsRegistry> metrics;
};

/// The embedded database engine TeNDaX runs on: storage + WAL + buffer pool
/// + locking + transactions + catalog + crash recovery, in one handle.
///
/// Opening a database automatically runs ARIES-lite recovery over any log
/// left by a previous incarnation, then rebuilds the catalog from storage.
class Database : public ChangeApplier {
 public:
  static Result<std::unique_ptr<Database>> Open(DatabaseOptions options);
  ~Database() override;

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Creates a table in its own transaction.
  Result<HeapTable*> CreateTable(const std::string& name,
                                 const Schema& schema);
  /// Creates the table if it does not exist yet; returns it either way.
  Result<HeapTable*> EnsureTable(const std::string& name,
                                 const Schema& schema);
  Result<HeapTable*> GetTable(const std::string& name) const;

  /// Creates an in-memory-rooted, page-backed secondary index (derived
  /// data: rebuilt by callers after reopen, not WAL-logged).
  Result<BPlusTree*> CreateIndex(const std::string& name)
      TENDAX_EXCLUDES(index_mu_);
  Result<BPlusTree*> GetIndex(const std::string& name) const
      TENDAX_EXCLUDES(index_mu_);

  /// Quiescent checkpoint. Requires `txns()->ActiveCount() == 0`: with a
  /// transaction in flight this fails with `Status::FailedPrecondition`
  /// (message prefix "checkpoint requires a quiescent database") and
  /// changes nothing — callers that cannot guarantee quiescence should use
  /// `CheckpointNow()` instead, which is the whole point of the fuzzy
  /// pipeline. Over a segmented log this is a thin wrapper around
  /// `CheckpointNow()`; over a single-file log it keeps the legacy
  /// flush-everything-then-truncate behavior.
  Status Checkpoint();

  /// Non-quiescent (fuzzy) checkpoint: safe to call with any number of
  /// transactions in flight. See `Checkpointer` for the pipeline.
  Status CheckpointNow();

  /// Full structural integrity sweep: every initialized data page passes
  /// checksum verification and `SlottedPage::Validate`, every catalog table
  /// scans and decodes end to end, and every index passes
  /// `BPlusTree::CheckIntegrity`. Used by crash-recovery tests after reopen.
  Status CheckIntegrity() const;

  /// Drops all cached pages without flushing (crash simulation for tests;
  /// pair with reopening via the same DiskManager/LogStorage).
  void SimulateCrash();

  /// ChangeApplier: routes abort-undo changes to the owning table.
  Status ApplyChange(uint64_t table_id, UpdateOp op, uint64_t rid,
                     const std::string& image, Lsn lsn) override;

  TxnManager* txns() { return txn_manager_.get(); }
  LockManager* locks() { return lock_manager_.get(); }
  BufferPool* buffer_pool() { return buffer_pool_.get(); }
  Catalog* catalog() { return catalog_.get(); }
  Wal* wal() { return wal_.get(); }
  Clock* clock() { return clock_.get(); }
  /// Shared ownership for components whose artifacts can outlive the
  /// database (e.g. MVCC snapshots held by readers after eviction).
  std::shared_ptr<Clock> clock_shared() const { return clock_; }
  MetricsRegistry* metrics() { return metrics_.get(); }
  std::shared_ptr<MetricsRegistry> metrics_shared() const { return metrics_; }
  Checkpointer* checkpointer() { return checkpointer_.get(); }
  const RecoveryStats& recovery_stats() const { return recovery_stats_; }

 private:
  Database() = default;

  Status RecoverAndLoad();
  /// Groups initialized data pages by owning table id (skips index pages).
  Result<std::unordered_map<uint32_t, std::vector<PageId>>> DiscoverPages();

  std::shared_ptr<Clock> clock_;
  // Declared before the subsystems that cache pointers into it so it is
  // destroyed after all of them.
  std::shared_ptr<MetricsRegistry> metrics_;
  std::shared_ptr<DiskManager> disk_;
  std::shared_ptr<LogStorage> log_storage_;
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<BufferPool> buffer_pool_;
  std::unique_ptr<LockManager> lock_manager_;
  std::unique_ptr<TxnManager> txn_manager_;
  std::unique_ptr<Catalog> catalog_;
  // Declared after the subsystems it drives; its thread is stopped first
  // thing in ~Database, before the WAL shuts down.
  std::unique_ptr<Checkpointer> checkpointer_;

  // Held across BPlusTree::Create / CheckIntegrity (tree mutex, rank
  // kRankTable), hence the database rank.
  mutable Mutex index_mu_{"database.index", lockorder::kRankDatabase};
  std::unordered_map<std::string, std::unique_ptr<BPlusTree>> indexes_
      TENDAX_GUARDED_BY(index_mu_);
  uint32_t next_index_id_ TENDAX_GUARDED_BY(index_mu_) = 1;

  RecoveryStats recovery_stats_;
};

}  // namespace tendax

#endif  // TENDAX_DB_DATABASE_H_
