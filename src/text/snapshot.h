#ifndef TENDAX_TEXT_SNAPSHOT_H_
#define TENDAX_TEXT_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/clock.h"
#include "util/ids.h"
#include "util/lock_order.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace tendax {

/// Document-level header as stored in the documents table. Defined here
/// (rather than text_store.h) because every published `CharListSnapshot`
/// embeds the header it was materialized from.
struct DocumentInfo {
  DocumentId id;
  std::string name;
  UserId creator;
  Timestamp created = 0;
  std::string state;       // free-form lifecycle state, e.g. "draft"
  Version version = 0;     // bumped by every committed editing transaction
  uint64_t length = 0;     // live characters
};

/// Copy-paste provenance of one character: the original character it was
/// copied from, or the outside source it was imported from.
struct CharSource {
  uint64_t doc = 0;
  uint64_t char_id = 0;
  std::string external;
};

/// One character of the version-stamped chain as captured by the MVCC read
/// path: identity, code point, version interval, copy-paste provenance.
/// Author / timestamp / deleted_by metadata stays record-only — lineage
/// reads (`CharAt`, `RangeInfo`, `FullChain`) keep the locked record path.
struct SnapChar {
  uint64_t id = 0;
  Version inserted = 0;
  Version deleted = 0;  // 0 = live
  uint32_t cp = 0;
  // Null for a character typed here. Most characters have none, so it
  // lives out of line: 48 bytes a char keeps whole-chain walks
  // memory-light. Consecutive characters of one import share one copy.
  std::shared_ptr<const CharSource> src;
};

struct ChainNode;

/// A child slot of the chain tree: the subtree and the totals a descent
/// needs from it, kept in the parent so positioning never touches a child
/// it skips. The tree's root is a `ChainRef` too; its counts are the
/// document's.
struct ChainRef {
  std::shared_ptr<ChainNode> node;  // null only at the root of an empty tree
  size_t live = 0;                  // chars with deleted == 0
  size_t chain = 0;                 // chars including tombstones
  uint64_t max_id = 0;              // largest char id in the subtree
};

/// One node of the persistent chain tree, a B+tree ordered by chain
/// position. A leaf holds a slice of the chain in physical order,
/// tombstones included; an internal node holds its children.
struct ChainNode {
  explicit ChainNode(uint64_t epoch) : epoch(epoch) {}

  /// The writer epoch the node was created in. A node whose epoch is older
  /// than the writer's may be shared with a published snapshot and is never
  /// mutated again: the writer clones it first.
  uint64_t epoch;
  std::vector<SnapChar> chars;  // leaf only
  std::vector<ChainRef> kids;   // internal only
  bool leaf() const { return kids.empty(); }
};

/// A read-only view of one chain tree. Its walks are the only copy: the
/// writer (`VersionedCharList`) and every snapshot read through them.
/// Positions count live characters; callers check bounds.
class CharTree {
 public:
  // Leaves are split once they pass kLeafMax chars, into pieces of about
  // kLeafTarget; an internal node is split once it passes kMaxKids
  // children. So every node but the root is at least half full, and a
  // keystroke after a publication clones one leaf (at most kLeafMax
  // SnapChars) plus a kMaxKids-wide node per level: at 1M chars, three
  // levels above the leaves. The leaf size trades that clone against
  // whole-document walks (search indexing, time travel), which are bound
  // by memory latency at leaf boundaries once edits have scattered the
  // leaves over the heap. Chain-only microbenchmark, 1M chars after 300k
  // random one-char inserts, each published (4-vCPU Xeon VM), leaf target
  // 64 / 128 / 256: keystroke ~6 / 7 / 10 us, Text() ~30 / 21 / 15 ms.
  static constexpr size_t kLeafTarget = 256;
  static constexpr size_t kLeafMax = 2 * kLeafTarget;
  static constexpr size_t kMaxKids = 32;

  CharTree() = default;
  explicit CharTree(ChainRef root) : root_(std::move(root)) {}

  const ChainRef& root() const { return root_; }
  size_t live_size() const { return root_.live; }
  /// Chain records including tombstones.
  size_t chain_size() const { return root_.chain; }
  bool empty() const { return root_.live == 0; }
  /// Levels from the root to the leaves; 0 for an empty tree.
  size_t height() const;

  /// The live character at `pos`; precondition pos < live_size().
  const SnapChar& LiveAt(size_t pos) const;
  std::string Text() const;
  /// Precondition pos + len <= live_size().
  std::string TextRange(size_t pos, size_t len) const;
  /// Live characters [pos, pos+len) in order, with provenance.
  std::vector<SnapChar> LiveRange(size_t pos, size_t len) const;
  /// Text as of `version`: chars with inserted <= version and not yet
  /// deleted at it.
  std::string TextAtVersion(Version version) const;

 protected:
  ChainRef root_;
};

/// Checks the structural invariants of the tree under `root`: each child
/// slot's counts and max id equal its subtree's, every node but the root
/// is at least half full and none is over capacity, and all leaves are at
/// the same depth. Returns kCorruption naming the first breach.
Status CheckChainTree(const ChainRef& root);

class SnapshotTracker;

/// An immutable, refcounted view of one document at one committed version.
///
/// Readers acquire one through `TextStore::AcquireSnapshot()` and then read
/// (text, ranges, time travel, copy provenance) with no LockManager
/// acquisition and no per-handle mutex: the snapshot shares tree nodes with
/// the writer-side chain copy-on-write, so it stays valid — and
/// bit-stable — while `PurgeHistory`, cache eviction, or further edits run
/// concurrently. Reclamation is by refcount: a tree node is freed when the
/// last root (a snapshot's or the writer's) reaching it drops away, never
/// while a reader still holds one.
class CharListSnapshot {
 public:
  CharListSnapshot(DocumentInfo info, Version purge_floor, CharTree tree,
                   std::shared_ptr<SnapshotTracker> tracker);
  ~CharListSnapshot();

  CharListSnapshot(const CharListSnapshot&) = delete;
  CharListSnapshot& operator=(const CharListSnapshot&) = delete;

  const DocumentInfo& info() const { return info_; }
  Version version() const { return info_.version; }
  /// Versions strictly below this are unreadable: `PurgeHistory` physically
  /// deleted tombstones that were alive in them. `TextAtVersion` below the
  /// floor returns kFailedPrecondition instead of silently wrong text.
  Version purge_floor() const { return purge_floor_; }
  uint64_t length() const { return info_.length; }

  std::string Text() const { return tree_.Text(); }
  Result<std::string> TextRange(size_t pos, size_t len) const;
  /// Text as of `version` — kFailedPrecondition below the purge floor.
  Result<std::string> TextAtVersion(Version version) const;
  /// Live characters [pos, pos+len) in order, with provenance.
  Result<std::vector<SnapChar>> LiveRange(size_t pos, size_t len) const;

 private:
  const DocumentInfo info_;
  const Version purge_floor_;
  const CharTree tree_;
  const std::shared_ptr<SnapshotTracker> tracker_;
  uint64_t seq_ = 0;  // tracker registration (0 = untracked)
};

using SnapshotRef = std::shared_ptr<const CharListSnapshot>;

/// Bookkeeping for the mvcc.* metric family. Snapshots register on
/// construction and deregister on destruction, so at any instant
///   mvcc.snapshots_published == mvcc.snapshots_reclaimed + live set
/// and the oldest-snapshot-age gauge reports how far behind the slowest
/// reader is. Held by shared_ptr from both the TextStore and every
/// snapshot, so a snapshot outliving its store still deregisters safely.
class SnapshotTracker {
 public:
  SnapshotTracker(std::shared_ptr<Clock> clock,
                  std::shared_ptr<MetricsRegistry> metrics);

  /// Registers a newly materialized snapshot; returns its tracking seq.
  uint64_t OnPublish() TENDAX_EXCLUDES(mu_);
  /// Deregisters a destroyed snapshot.
  void OnReclaim(uint64_t seq) TENDAX_EXCLUDES(mu_);
  /// Counts one reader acquisition (shared snapshots count per acquire).
  void OnAcquire();

  /// Recomputes mvcc.live_snapshots / mvcc.oldest_snapshot_age_micros;
  /// called on every stats scrape so kStats folds the gauges in.
  void RefreshGauges() TENDAX_EXCLUDES(mu_);

  uint64_t live() const TENDAX_EXCLUDES(mu_);

 private:
  const std::shared_ptr<Clock> clock_;
  const std::shared_ptr<MetricsRegistry> metrics_;
  Counter* published_ = nullptr;
  Counter* acquired_ = nullptr;
  Counter* reclaimed_ = nullptr;
  Gauge* live_gauge_ = nullptr;
  Gauge* oldest_age_ = nullptr;

  mutable Mutex mu_{"mvcc.tracker", lockorder::kRankLeaf};
  uint64_t next_seq_ TENDAX_GUARDED_BY(mu_) = 1;
  std::map<uint64_t, Timestamp> live_ TENDAX_GUARDED_BY(mu_);
};

/// The writer-side character chain: physical order including tombstones,
/// as a persistent tree. Finding a position, inserting a run and
/// tombstoning a range descend by live count in O(log n) and clone only
/// the root-to-leaf path they touch. Publishing is O(1): `Freeze()` hands
/// out the root and starts a new writer epoch, so every node reachable
/// from a published root is cloned before its next mutation. Not
/// internally synchronized — the TextStore mutates it under the document
/// handle mutex only.
class VersionedCharList : public CharTree {
 public:
  VersionedCharList() = default;
  VersionedCharList(const VersionedCharList&) = delete;
  VersionedCharList& operator=(const VersionedCharList&) = delete;

  void Clear() { root_ = ChainRef{}; }
  /// Replaces the content with `chain` (physical order, tombstones
  /// included), bulk-loading a new tree.
  void Rebuild(std::vector<SnapChar> chain);
  /// Inserts `run` directly after the live character at live_pos-1 (at the
  /// physical head for live_pos == 0) — mirroring how the record layer
  /// links new characters into the chain.
  void InsertRun(size_t live_pos, const std::vector<SnapChar>& run);
  /// Tombstones the live characters [live_pos, live_pos+len).
  void TombstoneRange(size_t live_pos, size_t len, Version deleted);
  /// Sets `deleted` on every char in `ids` (0 revives a tombstone) whose
  /// state it changes, visiting each affected leaf once; subtrees whose
  /// ids are all older than the oldest of `ids` are skipped. Returns the
  /// number of chars changed. Positions never move: tombstones stay in
  /// the chain.
  size_t SetDeleted(std::vector<uint64_t> ids, Version deleted);
  /// Physically drops tombstones with deleted <= before; returns the count.
  uint64_t PurgeBelow(Version before);

  /// Hands out the current root for snapshot publication; O(1).
  CharTree Freeze() {
    ++epoch_;
    return CharTree(root_);
  }

 private:
  ChainNode* Own(ChainRef& ref);
  template <typename T>
  std::vector<ChainRef> Pack(std::vector<T> items, size_t target);
  void SplitIfOversize(ChainRef& ref, std::vector<ChainRef>* split);
  void InsertIn(ChainRef& ref, size_t after, const std::vector<SnapChar>& run,
                std::vector<ChainRef>* split);
  void TombstoneIn(ChainRef& ref, size_t* skip, size_t* remaining,
                   Version deleted);
  bool SetDeletedIn(ChainRef& ref, const std::vector<uint64_t>& ids,
                    Version deleted, size_t* left);

  uint64_t epoch_ = 1;
};

}  // namespace tendax

#endif  // TENDAX_TEXT_SNAPSHOT_H_
