#ifndef TENDAX_STORAGE_WAL_H_
#define TENDAX_STORAGE_WAL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/ids.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/slice.h"
#include "util/status.h"

namespace tendax {

/// Log sequence number. LSN 0 is "none"; real LSNs start at 1 and increase
/// by one per appended record.
using Lsn = uint64_t;
constexpr Lsn kInvalidLsn = 0;

/// Kind of a WAL record.
enum class LogType : uint8_t {
  kBegin = 1,
  kCommit = 2,
  kAbort = 3,
  kUpdate = 4,        // a logical record-level change (insert/update/delete)
  kCompensation = 5,  // CLR written while undoing an update
  kCheckpoint = 6,    // quiescent checkpoint marker (legacy single-file path)
  kCheckpointBegin = 7,  // fuzzy checkpoint opened (ARIES begin_chkpt)
  kCheckpointEnd = 8,    // fuzzy checkpoint closed; carries the ATT and DPT
};

/// Sub-kind for kUpdate / kCompensation records.
enum class UpdateOp : uint8_t {
  kInsert = 1,
  kUpdate = 2,
  kDelete = 3,
};

/// One active transaction at the instant a fuzzy checkpoint snapshotted the
/// transaction table. `first_lsn` bounds how far back undo may need to read.
struct CheckpointTxnEntry {
  uint64_t txn = 0;
  Lsn first_lsn = kInvalidLsn;  // LSN of the transaction's begin record
  Lsn last_lsn = kInvalidLsn;   // most recent record at snapshot time
};

/// One dirty page at the instant a fuzzy checkpoint snapshotted the buffer
/// pool. `rec_lsn` is the LSN of the first record that dirtied the page
/// since it was last clean — redo must start no later than the minimum
/// rec_lsn across the table.
struct CheckpointPageEntry {
  uint64_t page = 0;
  Lsn rec_lsn = kInvalidLsn;
};

/// A single WAL record. Updates are logged logically at record granularity:
/// the (table, rid) addressed plus before/after images. Replay is
/// deterministic because the rid chosen at run time is recorded, and
/// idempotent because pages carry the LSN of the last applied record.
struct LogRecord {
  Lsn lsn = kInvalidLsn;
  Lsn prev_lsn = kInvalidLsn;  // previous record of the same transaction
  TxnId txn;
  LogType type = LogType::kBegin;

  // kUpdate / kCompensation only:
  UpdateOp op = UpdateOp::kInsert;
  uint64_t table_id = 0;
  uint64_t rid = 0;          // packed RecordId (page << 16 | slot)
  std::string before;        // pre-image (empty for insert)
  std::string after;         // post-image (empty for delete)
  Lsn undo_next_lsn = kInvalidLsn;  // kCompensation: next record to undo

  // kCheckpointEnd only: the fuzzy-checkpoint snapshot.
  Lsn checkpoint_begin_lsn = kInvalidLsn;  // LSN of the paired kCheckpointBegin
  Lsn checkpoint_redo_lsn = kInvalidLsn;   // min(begin, min DPT rec_lsn)
  std::vector<CheckpointTxnEntry> att;     // active-transaction table
  std::vector<CheckpointPageEntry> dpt;    // dirty-page table

  /// Serializes this record (without framing) into `dst`.
  void EncodeTo(std::string* dst) const;
  /// Parses a record from `input`; returns false on malformed input.
  static bool DecodeFrom(Slice input, LogRecord* out);
};

/// Byte sink holding the serialized log. Implementations must make Append
/// atomic with respect to concurrent calls from Wal (Wal serializes
/// internally, so plain implementations suffice).
class LogStorage {
 public:
  virtual ~LogStorage() = default;
  virtual Status Append(const Slice& data) = 0;
  virtual Status Sync() = 0;
  /// Reads the entire log into `out`.
  virtual Status ReadAll(std::string* out) = 0;
  /// Discards all content.
  virtual Status Truncate() = 0;

  // --- segmentation (optional; single-file backends keep the defaults) ---
  //
  // A segmented backend stores the log as a sequence of numbered segments.
  // Appends always go to the current (highest-numbered) segment; ReadAll
  // concatenates segments in id order, so callers that do not care about
  // segmentation see one contiguous byte stream. Segment ids are monotonic
  // and never reused, which is what lets the Wal keep per-segment LSN spans.

  /// True when this backend stores the log as numbered segments.
  virtual bool segmented() const { return false; }
  /// Id of the segment receiving appends (0 when not segmented).
  virtual uint64_t current_segment() const { return 0; }
  /// All live segment ids, ascending.
  virtual std::vector<uint64_t> SegmentIds() const { return {}; }
  /// Byte size of segment `id` (0 for unknown ids).
  virtual uint64_t SegmentBytes(uint64_t id) const {
    (void)id;
    return 0;
  }
  /// Reads the raw bytes of one segment.
  virtual Status ReadSegment(uint64_t id, std::string* out) {
    (void)id;
    (void)out;
    return Status::Unimplemented("log storage is not segmented");
  }
  /// Seals the current segment (durably) and opens a fresh one; the new
  /// segment's id is returned through `new_id` when non-null.
  virtual Status RotateSegment(uint64_t* new_id) {
    (void)new_id;
    return Status::Unimplemented("log storage is not segmented");
  }
  /// Deletes one sealed segment; `bytes_freed` (when non-null) receives its
  /// size. Deleting the current segment is an error.
  virtual Status DropSegment(uint64_t id, uint64_t* bytes_freed) {
    (void)id;
    (void)bytes_freed;
    return Status::Unimplemented("log storage is not segmented");
  }
};

/// In-memory log storage; survives "crashes" simulated by discarding the
/// buffer pool, which is exactly what the recovery tests exercise.
class InMemoryLogStorage : public LogStorage {
 public:
  Status Append(const Slice& data) override;
  Status Sync() override { return Status::OK(); }
  Status ReadAll(std::string* out) override;
  Status Truncate() override;

  /// Chops the log to its first `n` bytes, simulating a torn tail write.
  void CorruptTail(size_t n);

 private:
  Mutex mu_{"log.mem", lockorder::kRankDisk};
  std::string buffer_ TENDAX_GUARDED_BY(mu_);
};

/// Append-only file log storage.
class FileLogStorage : public LogStorage {
 public:
  static Result<std::unique_ptr<FileLogStorage>> Open(
      const std::string& path);
  ~FileLogStorage() override;

  Status Append(const Slice& data) override;
  Status Sync() override;
  Status ReadAll(std::string* out) override;
  Status Truncate() override;

 private:
  explicit FileLogStorage(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}
  int fd_;
  std::string path_;
};

/// How a committing transaction's "make my commit record durable" request
/// is serviced (see `Wal::CommitFlush`). Non-commit flushes (checkpoints,
/// shutdown, recovery) always go through the plain inline path.
enum class CommitFlushMode : uint8_t {
  /// Commit flushes inline on the calling thread. A flush covers everything
  /// buffered, so concurrent commits still coalesce opportunistically.
  kInline = 0,
  /// Every commit pays its own Sync even when already covered — the strict
  /// per-commit-fsync ablation baseline for the group-commit benchmarks.
  kPerCommit,
  /// Group commit, leader/follower: the first waiter to find no flush in
  /// progress flushes on behalf of the whole waiting group.
  kLeader,
  /// Group commit, dedicated flusher: a background thread owned by the Wal
  /// coalesces all waiting commits into one Append+Sync. The thread only
  /// flushes when commits are waiting, so the I/O op sequence of a
  /// single-writer workload stays deterministic.
  kFlusherThread,
};

/// Test-only observation and pause points on the group-commit pipeline.
/// `ScheduleController` (src/testing) implements this to gate the flusher
/// at chosen flush indices and force crash/tear/error interleavings.
class GroupCommitHooks {
 public:
  virtual ~GroupCommitHooks() = default;
  /// A committing transaction joined the waiting group. Called with the
  /// Wal's group lock held: implementations must be cheap and must not
  /// call back into the Wal. `waiters` includes the new arrival.
  virtual void OnCommitEnqueued(size_t waiters, Lsn lsn) {
    (void)waiters;
    (void)lsn;
  }
  /// Coalesced flush attempt number `flush_index` (1-based) is about to
  /// run. Called without any Wal lock held, so implementations may block —
  /// this is the pause gate. `waiters`/`target` describe the group at the
  /// time the flush was triggered; commits that enqueue while the hook
  /// blocks are still picked up by this flush.
  virtual void OnGroupFlushStart(uint64_t flush_index, size_t waiters,
                                 Lsn target) {
    (void)flush_index;
    (void)waiters;
    (void)target;
  }
  /// The flush attempt finished with `status`. Called without locks held.
  virtual void OnGroupFlushEnd(uint64_t flush_index, const Status& status) {
    (void)flush_index;
    (void)status;
  }
};

/// Group-commit configuration, plumbed in via `DatabaseOptions`.
struct GroupCommitOptions {
  CommitFlushMode mode = CommitFlushMode::kInline;
  /// kFlusherThread: how long the flusher waits for more commits to pile up
  /// before flushing a non-full batch. Zero flushes as soon as any commit
  /// waits (lowest latency, still batches whatever arrived together).
  std::chrono::microseconds flush_interval{100};
  /// kFlusherThread: flush immediately once this many commits wait.
  size_t max_batch_waiters = 64;
  /// kLeader/kFlusherThread: release a committing transaction's locks as
  /// soon as its commit record has an LSN in the log buffer, before
  /// blocking on the shared flush (early lock release, as in Aether). This
  /// is what lets commits on one hot document pipeline into a batch at
  /// all — with strict 2PL the next writer cannot even start until the
  /// previous fsync returns. Crash-safe because group-commit durability is
  /// a prefix of commit-LSN order: a transaction that builds on released
  /// writes commits strictly later, so it can never survive a crash that
  /// its predecessor does not. The price is the failure path: once locks
  /// are gone, in-place undo is unsound, so a failed shared flush
  /// fail-stops the Wal (see Wal::CommitFlush) instead of rolling the
  /// batch back. Set false to keep locks through the flush and retain
  /// transient-flush-failure rollback.
  bool early_lock_release = true;
  /// Test-only schedule hooks; null in production.
  std::shared_ptr<GroupCommitHooks> hooks;
};

/// Counters for the group-commit pipeline (all modes), read from the
/// `wal.*` registry metrics.
struct WalGroupCommitStats {
  uint64_t commits = 0;         // CommitFlush calls that joined a group
  uint64_t group_flushes = 0;   // coalesced flush attempts
  uint64_t failed_flushes = 0;  // ... that returned an error
  uint64_t max_batch = 0;       // largest waiter group a flush covered
  uint64_t syncs = 0;           // LogStorage::Sync calls issued (all paths)
};

/// The write-ahead log. Thread-safe. Appends buffer in memory; Flush()
/// makes everything up to a given LSN durable. Framing per record:
/// fixed32 payload length, fixed32 FNV-1a checksum, payload. A torn tail
/// (truncated or corrupt final record) is tolerated on read.
///
/// Commit durability goes through `CommitFlush`, which implements the
/// configured group-commit mode; physical flushing is single-flighted, so
/// one Append+Sync makes a whole batch of buffered records durable.
class Wal {
 public:
  /// Storage is shared so that a test can keep a handle, simulate a crash
  /// by dropping the Wal (losing `pending_`), and reopen a new Wal over the
  /// same bytes. In kFlusherThread mode the Wal owns the flusher thread:
  /// started here, drained and joined by `Shutdown()`/the destructor.
  /// `metrics` may be null (standalone/unit use: the Wal then counts into a
  /// private registry); it must outlive the Wal.
  /// `segment_bytes` only matters over a segmented LogStorage: once the
  /// current segment exceeds it, the next successful flush rotates to a new
  /// segment (0 disables size-based rotation; checkpoints may still rotate
  /// explicitly via RotateSegmentNow).
  explicit Wal(std::shared_ptr<LogStorage> storage,
               GroupCommitOptions group_commit = {},
               MetricsRegistry* metrics = nullptr,
               uint64_t segment_bytes = 0);
  ~Wal();

  /// Assigns the next LSN to `rec`, serializes and buffers it. Returns the
  /// assigned LSN.
  Result<Lsn> Append(LogRecord* rec) TENDAX_EXCLUDES(mu_);

  /// Ensures all records with lsn <= `up_to` are durable.
  Status Flush(Lsn up_to) TENDAX_EXCLUDES(mu_);
  /// Ensures every appended record is durable.
  Status FlushAll() TENDAX_EXCLUDES(mu_);

  /// Makes the commit record at `lsn` durable using the configured
  /// `CommitFlushMode`. In the group modes the caller blocks until a
  /// coalesced flush covers `lsn`, or until a shared flush attempt that
  /// covers `lsn` fails — in which case every waiter of that batch gets
  /// the error, and the caller must treat its commit as not durable.
  Status CommitFlush(Lsn lsn) TENDAX_EXCLUDES(gc_mu_, mu_);

  /// Drains and stops the flusher thread (no-op in other modes; safe to
  /// call twice). After shutdown, CommitFlush degrades to inline flushing.
  void Shutdown() TENDAX_EXCLUDES(gc_mu_);

  Lsn next_lsn() const TENDAX_EXCLUDES(mu_);
  Lsn flushed_lsn() const TENDAX_EXCLUDES(mu_);

  /// Decodes every durable record plus any still-buffered ones, in order.
  /// Stops silently at the first torn/corrupt record (crash tail).
  Status ReadAll(std::vector<LogRecord>* out) TENDAX_EXCLUDES(mu_);

  /// Discards the entire log (only valid at a quiescent checkpoint) and
  /// continues LSN numbering.
  Status Reset() TENDAX_EXCLUDES(mu_);

  LogStorage* storage() { return storage_.get(); }
  const GroupCommitOptions& group_commit_options() const {
    return gc_options_;
  }
  WalGroupCommitStats group_commit_stats() const;
  /// Bytes deleted by TruncateSegmentsBelow over this Wal's lifetime.
  uint64_t truncated_bytes() const { return m_truncated_bytes_->Value(); }

  /// True when the configured mode batches commits and
  /// `early_lock_release` is on: the transaction layer then releases locks
  /// after appending the commit record, before CommitFlush.
  bool ReleasesLocksEarly() const {
    return gc_options_.early_lock_release &&
           (gc_options_.mode == CommitFlushMode::kLeader ||
            gc_options_.mode == CommitFlushMode::kFlusherThread);
  }

  /// Non-OK once a shared flush has failed under early lock release: the
  /// Wal has fail-stopped — every further Append/CommitFlush returns this
  /// status and consistency is re-established by reopen + recovery.
  Status poison_status() const TENDAX_EXCLUDES(gc_mu_);

  /// Decodes a serialized log (as produced by LogStorage::ReadAll) without
  /// a Wal instance; used by recovery. Returns the next LSN to issue.
  /// Stops at the first torn, checksum-corrupt, undecodable, or
  /// LSN-discontiguous record, so a crash tail is always dropped cleanly.
  static Lsn DecodeLogBuffer(const std::string& buffer,
                             std::vector<LogRecord>* out);

  // --- segmentation (no-ops over a non-segmented LogStorage) ---

  /// True when the underlying storage keeps the log in numbered segments.
  bool segmented() const { return storage_->segmented(); }

  /// Live segments (1 models "the single file" when not segmented).
  size_t SegmentCount() const TENDAX_EXCLUDES(mu_);

  /// Flushes everything buffered, seals the current segment and opens a
  /// fresh one. Used by the checkpointer so sealed history becomes
  /// truncatable regardless of `segment_bytes`.
  Status RotateSegmentNow() TENDAX_EXCLUDES(mu_);

  /// Deletes sealed segments whose records all have lsn < `bound`,
  /// oldest-first so a crash mid-sweep always leaves a contiguous log
  /// suffix. The current segment is never deleted. Returns bytes freed.
  Result<uint64_t> TruncateSegmentsBelow(Lsn bound) TENDAX_EXCLUDES(mu_);

 private:
  /// Per-segment LSN span. `last == kInvalidLsn` means the segment is still
  /// open (or its span is unknown, e.g. an empty sealed segment) and must
  /// be retained by truncation.
  struct SegmentSpan {
    Lsn first = kInvalidLsn;
    Lsn last = kInvalidLsn;
  };

  /// Seals the current segment at `last_lsn` and opens a fresh one whose
  /// span starts at `last_lsn + 1`. Expects `mu_` held by the caller.
  Status RotateLocked(Lsn last_lsn) TENDAX_REQUIRES(mu_);
  /// The one physical flush path. Single-flighted: concurrent callers wait
  /// for the in-flight flush, then re-check coverage. The storage
  /// Append+Sync runs outside `mu_` so appends keep flowing during a slow
  /// fsync. `force_sync` issues a Sync even when `up_to` is already
  /// covered (the strict kPerCommit baseline).
  Status FlushInternal(Lsn up_to, bool force_sync) TENDAX_EXCLUDES(mu_);

  /// Runs one coalesced flush for the current waiter group and publishes
  /// the outcome (durable LSN or fanned-out error). Expects `l` to hold
  /// `gc_mu_`; temporarily releases it around hooks and the flush itself —
  /// that mid-flight unlock of a caller-held lock is beyond the static
  /// analysis, so the definition opts out while call sites stay checked.
  void GroupFlushLocked(MutexLock& l) TENDAX_REQUIRES(gc_mu_);

  void FlusherLoop() TENDAX_EXCLUDES(gc_mu_);

  mutable Mutex mu_{"wal.mu", lockorder::kRankWal};
  std::shared_ptr<LogStorage> storage_;
  // Serialized but not yet flushed to storage.
  std::string pending_ TENDAX_GUARDED_BY(mu_);
  Lsn next_lsn_ TENDAX_GUARDED_BY(mu_) = 1;
  Lsn flushed_lsn_ TENDAX_GUARDED_BY(mu_) = 0;
  // A FlushInternal is in storage I/O.
  bool flush_in_flight_ TENDAX_GUARDED_BY(mu_) = false;
  CondVar flush_cv_;  // signaled when flush_in_flight_ drops

  // --- segmentation state (meaningful only when storage_->segmented()) ---
  const uint64_t segment_bytes_;
  // LSN span of every live segment, keyed by segment id.
  std::map<uint64_t, SegmentSpan> segment_spans_ TENDAX_GUARDED_BY(mu_);

  // --- group-commit state (never touched while holding mu_; lock order is
  // gc_mu_ -> mu_, mirrored statically by ACQUIRED_BEFORE and at runtime by
  // the kRankWalGroup < kRankWal ranks) ---
  const GroupCommitOptions gc_options_;
  mutable Mutex gc_mu_ TENDAX_ACQUIRED_BEFORE(mu_);
  CondVar gc_waiter_cv_;   // wakes blocked committers
  CondVar gc_flusher_cv_;  // wakes the flusher thread
  // Committers currently blocked.
  size_t gc_waiters_ TENDAX_GUARDED_BY(gc_mu_) = 0;
  // Highest LSN any waiter asked for.
  Lsn gc_max_requested_ TENDAX_GUARDED_BY(gc_mu_) = 0;
  // Mirror of flushed_lsn_ for waiter wakeup.
  Lsn gc_durable_ TENDAX_GUARDED_BY(gc_mu_) = 0;
  // kFlusherThread: unserviced enqueue signal.
  bool gc_work_ TENDAX_GUARDED_BY(gc_mu_) = false;
  // kLeader: a leader is mid-flush.
  bool gc_flush_active_ TENDAX_GUARDED_BY(gc_mu_) = false;
  // Completed coalesced flush attempts.
  uint64_t gc_gen_ TENDAX_GUARDED_BY(gc_mu_) = 0;
  // Gen of the latest failed attempt.
  uint64_t gc_fail_gen_ TENDAX_GUARDED_BY(gc_mu_) = 0;
  // Target LSN of that failed attempt.
  Lsn gc_fail_target_ TENDAX_GUARDED_BY(gc_mu_) = 0;
  // Its error, fanned out to covered waiters.
  Status gc_fail_status_ TENDAX_GUARDED_BY(gc_mu_);
  bool gc_shutdown_ TENDAX_GUARDED_BY(gc_mu_) = false;
  // Flush attempt numbering for hooks.
  uint64_t gc_flush_seq_ TENDAX_GUARDED_BY(gc_mu_) = 0;
  // Fail-stop latch for early lock release. gc_poison_status_ is written
  // once (under gc_mu_) before the flag is set with release order, and
  // never changes afterwards, so an acquire load of the flag on the hot
  // Append path is enough to read it safely without gc_mu_.
  std::atomic<bool> gc_poisoned_{false};
  Status gc_poison_status_;
  std::thread flusher_;

  // The only store of the Wal's counters (never null; histograms are null
  // in a disabled registry).
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  Counter* m_appends_ = nullptr;
  Counter* m_rotations_ = nullptr;
  Gauge* m_segments_ = nullptr;
  Counter* m_truncated_bytes_ = nullptr;
  Counter* m_syncs_ = nullptr;
  Counter* m_commits_ = nullptr;
  Counter* m_group_flushes_ = nullptr;
  Counter* m_failed_flushes_ = nullptr;
  Gauge* m_max_batch_ = nullptr;
  Histogram* m_flush_micros_ = nullptr;
  Histogram* m_commit_flush_micros_ = nullptr;
  Histogram* m_batch_size_ = nullptr;
};

}  // namespace tendax

#endif  // TENDAX_STORAGE_WAL_H_
