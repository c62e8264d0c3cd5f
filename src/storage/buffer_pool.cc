#include "storage/buffer_pool.h"

#include "util/logging.h"

namespace tendax {

BufferPool::BufferPool(size_t capacity, DiskManager* disk, Wal* wal,
                       MetricsRegistry* metrics)
    : capacity_(capacity), disk_(disk), wal_(wal) {
  TENDAX_CHECK(capacity_ > 0);
  metrics = SharedOrOwnedRegistry(metrics, &owned_metrics_);
  m_hits_ = metrics->counter("bufferpool.hits");
  m_misses_ = metrics->counter("bufferpool.misses");
  m_evictions_ = metrics->counter("bufferpool.evictions");
  m_writebacks_ = metrics->counter("bufferpool.writebacks");
  m_miss_micros_ = metrics->histogram("bufferpool.miss_micros");
  frames_.reserve(capacity_);
  for (size_t i = 0; i < capacity_; ++i) {
    frames_.push_back(std::make_unique<Page>());
    free_frames_.push_back(frames_.back().get());
  }
}

Result<Page*> BufferPool::FetchPage(PageId id) {
  MutexLock lock(mu_);
  auto it = page_table_.find(id);
  if (it != page_table_.end()) {
    m_hits_->Add();
    Page* page = it->second;
    ++page->pin_count_;
    Touch(id);
    return page;
  }
  m_misses_->Add();
  // Times the whole miss path (eviction + disk read + checksum), including
  // the error exits, via RAII.
  ScopedTimer miss_timer(m_miss_micros_);
  auto frame = GetFreeFrame();
  if (!frame.ok()) return frame.status();
  Page* page = *frame;
  Status st = disk_->ReadPage(id, page->data());
  if (!st.ok()) {
    free_frames_.push_back(page);
    return st;
  }
  if (!page->ChecksumValid()) {
    page->Reset();
    free_frames_.push_back(page);
    return Status::Corruption("page " + std::to_string(id) +
                              " failed checksum verification");
  }
  page->set_id(id);
  page->pin_count_ = 1;
  page->dirty_ = false;
  page->rec_lsn_ = 0;
  page_table_[id] = page;
  lru_.push_back(id);
  lru_pos_[id] = std::prev(lru_.end());
  return page;
}

Result<Page*> BufferPool::NewPage() {
  MutexLock lock(mu_);
  auto id_res = disk_->AllocatePage();
  if (!id_res.ok()) return id_res.status();
  PageId id = *id_res;
  auto frame = GetFreeFrame();
  if (!frame.ok()) return frame.status();
  Page* page = *frame;
  page->Reset();
  page->set_id(id);
  page->pin_count_ = 1;
  page->dirty_ = false;
  MarkDirtyLocked(page);  // a fresh page must reach disk eventually
  page_table_[id] = page;
  lru_.push_back(id);
  lru_pos_[id] = std::prev(lru_.end());
  return page;
}

void BufferPool::Unpin(Page* page, bool dirty) {
  MutexLock lock(mu_);
  TENDAX_CHECK(page->pin_count_ > 0);
  --page->pin_count_;
  if (dirty) MarkDirtyLocked(page);
}

void BufferPool::MarkDirtyLocked(Page* page) {
  if (page->dirty_) return;
  page->dirty_ = true;
  // WAL-logged pages carry the LSN of the record that just modified them,
  // which is exactly the earliest record whose effect is not yet on disk.
  // Non-logged pages (indexes, derived data) have no records to redo, so
  // the WAL cursor — no earlier record can ever target them — keeps them
  // from dragging redo_lsn (and with it, log truncation) backwards.
  page->rec_lsn_ =
      page->lsn() != 0 ? page->lsn() : (wal_ != nullptr ? wal_->next_lsn() : 1);
}

Status BufferPool::FlushPage(PageId id) {
  MutexLock lock(mu_);
  auto it = page_table_.find(id);
  if (it == page_table_.end()) return Status::OK();
  return WriteBack(it->second);
}

Status BufferPool::FlushAll() {
  MutexLock lock(mu_);
  for (auto& [id, page] : page_table_) {
    TENDAX_RETURN_IF_ERROR(WriteBack(page));
  }
  return disk_->Sync();
}

void BufferPool::DropAllForCrashTest() {
  MutexLock lock(mu_);
  for (auto& [id, page] : page_table_) {
    TENDAX_CHECK(page->pin_count_ == 0);
    page->Reset();
    free_frames_.push_back(page);
  }
  page_table_.clear();
  lru_.clear();
  lru_pos_.clear();
}

Status BufferPool::EnsureAllocatedUpTo(PageId id) {
  while (disk_->NumPages() <= id) {
    auto res = disk_->AllocatePage();
    if (!res.ok()) return res.status();
  }
  return Status::OK();
}

BufferPoolStats BufferPool::stats() const {
  BufferPoolStats out;
  out.hits = m_hits_->Value();
  out.misses = m_misses_->Value();
  out.evictions = m_evictions_->Value();
  out.dirty_writebacks = m_writebacks_->Value();
  return out;
}

Result<Page*> BufferPool::GetFreeFrame() {
  if (!free_frames_.empty()) {
    Page* page = free_frames_.back();
    free_frames_.pop_back();
    return page;
  }
  // Evict the least-recently-used unpinned page.
  for (auto it = lru_.begin(); it != lru_.end(); ++it) {
    Page* candidate = page_table_.at(*it);
    if (candidate->pin_count_ > 0) continue;
    TENDAX_RETURN_IF_ERROR(WriteBack(candidate));
    m_evictions_->Add();
    page_table_.erase(*it);
    lru_pos_.erase(*it);
    lru_.erase(it);
    candidate->Reset();
    return candidate;
  }
  return Status::Internal("buffer pool exhausted: all pages pinned");
}

Status BufferPool::WriteBack(Page* page) {
  if (!page->dirty_) return Status::OK();
  if (wal_ != nullptr) {
    // Write-ahead rule: the log must cover this page before it hits disk.
    TENDAX_RETURN_IF_ERROR(wal_->Flush(page->lsn()));
  }
  page->StampChecksum();
  TENDAX_RETURN_IF_ERROR(disk_->WritePage(page->id(), page->data()));
  page->dirty_ = false;
  page->rec_lsn_ = 0;
  m_writebacks_->Add();
  return Status::OK();
}

std::vector<CheckpointPageEntry> BufferPool::DirtyPageTable() const {
  MutexLock lock(mu_);
  std::vector<CheckpointPageEntry> dpt;
  for (const auto& [id, page] : page_table_) {
    if (!page->dirty_) continue;
    CheckpointPageEntry e;
    e.page = id;
    e.rec_lsn = page->rec_lsn_;
    dpt.push_back(e);
  }
  return dpt;
}

size_t BufferPool::DirtyCount() const {
  MutexLock lock(mu_);
  size_t n = 0;
  for (const auto& [id, page] : page_table_) {
    (void)id;
    if (page->dirty_) ++n;
  }
  return n;
}

Result<bool> BufferPool::FlushPageIfIdle(PageId id) {
  MutexLock lock(mu_);
  auto it = page_table_.find(id);
  // Absent or clean means eviction or a plain flush already wrote it back.
  if (it == page_table_.end() || !it->second->dirty_) return true;
  if (it->second->pin_count_ > 0) return false;
  TENDAX_RETURN_IF_ERROR(WriteBack(it->second));
  return true;
}

void BufferPool::Touch(PageId id) {
  auto pos = lru_pos_.find(id);
  if (pos != lru_pos_.end()) {
    lru_.splice(lru_.end(), lru_, pos->second);
    pos->second = std::prev(lru_.end());
  }
}

}  // namespace tendax
