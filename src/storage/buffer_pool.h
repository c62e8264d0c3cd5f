#ifndef TENDAX_STORAGE_BUFFER_POOL_H_
#define TENDAX_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "storage/disk_manager.h"
#include "storage/page.h"
#include "storage/wal.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/status.h"

namespace tendax {

/// Counters exposed for the substrate benchmarks (experiment E9), read from
/// the `bufferpool.*` registry metrics.
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t dirty_writebacks = 0;
};

/// Fixed-capacity page cache with LRU replacement and WAL coupling: a dirty
/// page is written back only after the WAL is durable up to the page's LSN
/// (the write-ahead rule). All methods are thread-safe; returned Page
/// pointers stay valid while the page is pinned.
class BufferPool {
 public:
  /// `wal` may be null for WAL-less databases (volatile catalogs, tests),
  /// and `metrics` may be null for standalone pools, which then count into
  /// a private registry.
  BufferPool(size_t capacity, DiskManager* disk, Wal* wal = nullptr,
             MetricsRegistry* metrics = nullptr);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Returns the page pinned; call Unpin when done.
  Result<Page*> FetchPage(PageId id) TENDAX_EXCLUDES(mu_);

  /// Allocates a new page on disk and returns it pinned.
  Result<Page*> NewPage() TENDAX_EXCLUDES(mu_);

  /// Releases one pin; `dirty` marks the page as modified.
  void Unpin(Page* page, bool dirty) TENDAX_EXCLUDES(mu_);
  /// Marks a pinned page modified. The pool stamps its recLSN from the
  /// page LSN, so call this under the latch that orders LSN writes.
  void MarkDirty(Page* page) TENDAX_EXCLUDES(mu_);

  /// Writes the page back if dirty (page may stay cached).
  Status FlushPage(PageId id) TENDAX_EXCLUDES(mu_);

  /// Writes back every dirty page. Does not evict.
  Status FlushAll() TENDAX_EXCLUDES(mu_);

  /// Snapshot of the dirty-page table: every dirty page with the recovery
  /// LSN recorded when it last went from clean to dirty. The fuzzy
  /// checkpointer embeds this in its kCheckpointEnd record; min rec_lsn
  /// over the table bounds where redo must start.
  std::vector<CheckpointPageEntry> DirtyPageTable() const
      TENDAX_EXCLUDES(mu_);

  /// Number of dirty pages currently cached (checkpoint trigger input).
  size_t DirtyCount() const TENDAX_EXCLUDES(mu_);

  /// Writes back page `id` only if nobody holds a pin on it. Returns true
  /// when the page is clean afterwards (flushed now, already clean, or not
  /// cached), false when it was pinned and left untouched — the caller
  /// (the checkpointer) retries or simply leaves it in the dirty-page
  /// table, which keeps redo_lsn conservative. Mirrors eviction's safety
  /// argument: mutators hold a pin for the whole modify+log sequence, and
  /// no new pin can appear while the pool mutex is held.
  Result<bool> FlushPageIfIdle(PageId id) TENDAX_EXCLUDES(mu_);

  /// Drops every cached page without writing anything back — simulates a
  /// crash for recovery tests. All pins must have been released.
  void DropAllForCrashTest() TENDAX_EXCLUDES(mu_);

  /// Allocates pages until `id` exists on disk. Recovery uses this when a
  /// page allocation was lost in a crash (file growth is not fsync'd).
  Status EnsureAllocatedUpTo(PageId id);

  size_t capacity() const { return capacity_; }
  BufferPoolStats stats() const;

 private:
  // Finds a reusable frame, evicting if necessary.
  Result<Page*> GetFreeFrame() TENDAX_REQUIRES(mu_);
  Status WriteBack(Page* page) TENDAX_REQUIRES(mu_);
  // Marks `page` dirty, recording its recovery LSN at the clean->dirty
  // transition.
  void MarkDirtyLocked(Page* page) TENDAX_REQUIRES(mu_);
  // Moves `id` to the MRU position.
  void Touch(PageId id) TENDAX_REQUIRES(mu_);

  const size_t capacity_;
  DiskManager* const disk_;
  Wal* const wal_;

  // Held across the write-ahead wal_->Flush in WriteBack, hence ranked
  // before kRankWal (see util/lock_order.h).
  mutable Mutex mu_{"bufferpool.mu", lockorder::kRankBufferPool};
  std::vector<std::unique_ptr<Page>> frames_ TENDAX_GUARDED_BY(mu_);
  std::unordered_map<PageId, Page*> page_table_ TENDAX_GUARDED_BY(mu_);
  // front = LRU, back = MRU
  std::list<PageId> lru_ TENDAX_GUARDED_BY(mu_);
  std::unordered_map<PageId, std::list<PageId>::iterator> lru_pos_
      TENDAX_GUARDED_BY(mu_);
  std::vector<Page*> free_frames_ TENDAX_GUARDED_BY(mu_);

  // The only store of the pool's counters (never null). Hits are counted
  // but not timed — timing the hit path would cost more than the path
  // itself; only the miss path (disk read + possible eviction) is timed.
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  Counter* m_hits_ = nullptr;
  Counter* m_misses_ = nullptr;
  Counter* m_evictions_ = nullptr;
  Counter* m_writebacks_ = nullptr;
  Histogram* m_miss_micros_ = nullptr;
};

/// RAII pin guard: unpins on destruction. Mark dirty via `MarkDirty()`.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, Page* page) : pool_(pool), page_(page) {}
  ~PageGuard() { Release(); }

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept {
    if (this != &other) {
      Release();
      pool_ = other.pool_;
      page_ = other.page_;
      other.pool_ = nullptr;
      other.page_ = nullptr;
    }
    return *this;
  }

  Page* get() { return page_; }
  Page* operator->() { return page_; }
  explicit operator bool() const { return page_ != nullptr; }

  /// Marks the page dirty now, while the writer still holds the page latch.
  void MarkDirty() { pool_->MarkDirty(page_); }

  void Release() {
    if (pool_ != nullptr && page_ != nullptr) {
      pool_->Unpin(page_, false);
    }
    pool_ = nullptr;
    page_ = nullptr;
  }

 private:
  BufferPool* pool_ = nullptr;
  Page* page_ = nullptr;
};

}  // namespace tendax

#endif  // TENDAX_STORAGE_BUFFER_POOL_H_
