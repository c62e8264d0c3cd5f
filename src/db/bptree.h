#ifndef TENDAX_DB_BPTREE_H_
#define TENDAX_DB_BPTREE_H_

#include <cstdint>
#include <functional>
#include <string>

#include "storage/buffer_pool.h"
#include "util/mutex.h"
#include "util/result.h"

namespace tendax {

struct BPlusTreeStats {
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  uint64_t splits = 0;
  uint32_t height = 1;
};

/// Page-based B+tree mapping `uint64 key -> uint64 value`, with duplicate
/// keys allowed (entries are unique on the (key, value) pair, ordered
/// lexicographically). Used for secondary indexes such as doc-id -> char rid.
///
/// Index pages are *not* WAL-logged: indexes are derived data and are
/// rebuilt from their base tables when a database is opened or recovered
/// (see Database::Open). Deletion is lazy (no node merging), the classic
/// simplification for derived structures that are periodically rebuilt.
class BPlusTree {
 public:
  /// Creates an empty tree. `index_id` tags this tree's pages so the
  /// table-discovery scan at open can skip them.
  static Result<std::unique_ptr<BPlusTree>> Create(uint32_t index_id,
                                                   std::string name,
                                                   BufferPool* pool);

  const std::string& name() const { return name_; }
  uint32_t index_id() const { return index_id_; }

  /// Inserts (key, value); duplicate (key, value) pairs are rejected.
  Status Insert(uint64_t key, uint64_t value) TENDAX_EXCLUDES(mu_);

  /// Removes (key, value). NotFound if absent.
  Status Delete(uint64_t key, uint64_t value) TENDAX_EXCLUDES(mu_);

  /// First value stored under exactly `key`, if any.
  Result<uint64_t> GetFirst(uint64_t key) const TENDAX_EXCLUDES(mu_);

  /// True if (key, value) is present.
  bool Contains(uint64_t key, uint64_t value) const TENDAX_EXCLUDES(mu_);

  /// Visits all entries with lo_key <= key <= hi_key in order. Return false
  /// from the callback to stop.
  Status ScanRange(uint64_t lo_key, uint64_t hi_key,
                   const std::function<bool(uint64_t, uint64_t)>& fn) const
      TENDAX_EXCLUDES(mu_);

  /// Total number of entries (O(n)).
  Result<uint64_t> Count() const TENDAX_EXCLUDES(mu_);

  /// Structural integrity check: every reachable node carries this index's
  /// marker, entries are strictly sorted on (key, value), internal children
  /// are valid page ids, all leaves sit at the same depth, and node fill
  /// stays within capacity. Used by `Database::CheckIntegrity` after crash
  /// recovery.
  Status CheckIntegrity() const TENDAX_EXCLUDES(mu_);

  BPlusTreeStats stats() const TENDAX_EXCLUDES(mu_);

 private:
  BPlusTree(uint32_t index_id, std::string name, BufferPool* pool)
      : index_id_(index_id), name_(std::move(name)), pool_(pool) {}

  // All helpers require mu_ held.
  Result<PageId> NewNode(bool leaf) TENDAX_REQUIRES(mu_);
  Result<PageId> FindLeaf(uint64_t key, uint64_t value,
                          std::vector<PageId>* path) const TENDAX_REQUIRES(mu_);
  Status InsertIntoLeaf(PageId leaf, const std::vector<PageId>& path,
                        uint64_t key, uint64_t value) TENDAX_REQUIRES(mu_);
  Status SplitAndPropagate(PageId node, const std::vector<PageId>& path)
      TENDAX_REQUIRES(mu_);
  Status CheckNode(PageId node_id, uint32_t depth, uint32_t* leaf_depth) const
      TENDAX_REQUIRES(mu_);

  const uint32_t index_id_;
  const std::string name_;
  BufferPool* const pool_;

  // Held across buffer-pool fetches (rank kRankBufferPool, below); index
  // pages are latch-free — the tree lock covers their contents.
  mutable Mutex mu_{"bptree.mu", lockorder::kRankTable};
  PageId root_ TENDAX_GUARDED_BY(mu_) = kInvalidPageId;
  BPlusTreeStats stats_ TENDAX_GUARDED_BY(mu_);
};

}  // namespace tendax

#endif  // TENDAX_DB_BPTREE_H_
