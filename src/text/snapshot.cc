#include "text/snapshot.h"

#include <algorithm>
#include <cassert>

#include "text/utf8.h"

namespace tendax {

namespace {

const std::shared_ptr<const CharSource> kNoSource;

/// Recomputes `ref`'s counts and max id from its node's contents.
void Summarize(ChainRef& ref) {
  const ChainNode& n = *ref.node;
  ref.live = ref.chain = 0;
  ref.max_id = 0;
  if (n.leaf()) {
    ref.chain = n.chars.size();
    for (const SnapChar& c : n.chars) {
      if (c.deleted == 0) ++ref.live;
      ref.max_id = std::max(ref.max_id, c.id);
    }
    return;
  }
  for (const ChainRef& k : n.kids) {
    ref.live += k.live;
    ref.chain += k.chain;
    ref.max_id = std::max(ref.max_id, k.max_id);
  }
}

/// Starts loading the chars of kids[i + 1] (and the node of kids[i + 2])
/// while kids[i] is scanned. Once edits have scattered the leaves over the
/// heap, a walk is bound by memory latency at every leaf boundary, not by
/// bandwidth.
void PrefetchNext(const std::vector<ChainRef>& kids, size_t i) {
  if (i + 2 < kids.size()) __builtin_prefetch(kids[i + 2].node.get());
  if (i + 1 >= kids.size()) return;
  const ChainNode& next = *kids[i + 1].node;
  const char* p = reinterpret_cast<const char*>(next.chars.data());
  const char* end = p + next.chars.size() * sizeof(SnapChar);
  for (; p < end; p += 64) __builtin_prefetch(p);
}

/// Calls fn(leaf) for every leaf under `n`, in chain order.
template <typename Fn>
void ForEachLeaf(const ChainNode* n, const Fn& fn) {
  if (n == nullptr) return;
  if (n->leaf()) return fn(*n);
  for (size_t i = 0; i < n->kids.size(); ++i) {
    PrefetchNext(n->kids, i);
    ForEachLeaf(n->kids[i].node.get(), fn);
  }
}

/// Appends the UTF-8 of the chars of `leaf` that keep(c) selects. ASCII
/// goes through a stack buffer, so whether a char is kept is a data
/// dependency rather than a branch: after scattered edits, kept and
/// skipped chars interleave at random and a branch would mispredict.
template <typename Keep>
void AppendLeafText(const ChainNode& leaf, const Keep& keep,
                    std::string* out) {
  char buf[CharTree::kLeafMax];
  const SnapChar* c = leaf.chars.data();
  const SnapChar* const end = c + leaf.chars.size();
  while (c < end) {  // once, unless the leaf is over kLeafMax
    const SnapChar* const stop = c + std::min<size_t>(end - c, sizeof(buf));
    char* p = buf;
    for (; c < stop; ++c) {
      if (c->cp <= 0x7F) {
        *p = static_cast<char>(c->cp);
        p += keep(*c);
      } else if (keep(*c)) {
        out->append(buf, p);
        p = buf;
        AppendUtf8Multibyte(out, c->cp);
      }
    }
    out->append(buf, p);
  }
}

/// `c`, a char of `leaf`, with its provenance resolved.
ChainChar Resolved(const ChainNode& leaf, const SnapChar& c) {
  ChainChar out{c, leaf.SourceOf(c)};
  out.src = 0;
  return out;
}

/// Calls fn(leaf, c) for the live chars under `n` after skipping `*skip`
/// of them, until `*remaining` reaches zero; skips whole subtrees by count.
template <typename Fn>
void ForLiveRange(const ChainNode* n, size_t* skip, size_t* remaining,
                  const Fn& fn) {
  if (n == nullptr) return;
  if (n->leaf()) {
    for (const SnapChar& c : n->chars) {
      if (*remaining == 0) return;
      if (c.deleted != 0) continue;
      if (*skip > 0) {
        --*skip;
        continue;
      }
      fn(*n, c);
      --*remaining;
    }
    return;
  }
  for (size_t i = 0; i < n->kids.size(); ++i) {
    if (*remaining == 0) return;
    if (*skip >= n->kids[i].live) {
      *skip -= n->kids[i].live;
      continue;
    }
    if (*remaining > n->kids[i].live - *skip) PrefetchNext(n->kids, i);
    ForLiveRange(n->kids[i].node.get(), skip, remaining, fn);
  }
}

/// Appends the leaf slots under `ref`, which is `levels` levels above the
/// leaves (1 for a leaf), so a leaf's node is never loaded.
void CollectLeaves(const ChainRef& ref, size_t levels,
                   std::vector<const ChainRef*>* out) {
  if (levels == 1) return out->push_back(&ref);
  for (const ChainRef& k : ref.node->kids) CollectLeaves(k, levels - 1, out);
}

Status CheckSubtree(const ChainRef& ref, size_t depth, bool is_root,
                    size_t* leaf_depth) {
  if (ref.node == nullptr) return Status::Corruption("chain tree: null child");
  const ChainNode& n = *ref.node;
  const size_t fill = n.leaf() ? n.chars.size() : n.kids.size();
  const size_t lo = n.leaf() ? (is_root ? 1 : CharTree::kLeafTarget / 2)
                             : (is_root ? 2 : CharTree::kMaxKids / 2);
  const size_t hi = n.leaf() ? CharTree::kLeafMax : CharTree::kMaxKids;
  const std::string at = " at depth " + std::to_string(depth);
  if (fill < lo || fill > hi) {
    return Status::Corruption("chain tree: node" + at + " holds " +
                              std::to_string(fill) + " entries");
  }
  if (n.leaf()) {
    if (*leaf_depth == 0) *leaf_depth = depth;
    if (*leaf_depth != depth) {
      return Status::Corruption("chain tree: leaves at two depths");
    }
    for (const SnapChar& c : n.chars) {
      if (c.src > n.sources.size()) {
        return Status::Corruption(
            "chain tree: char " + std::to_string(c.id) + at +
            " names provenance slot " + std::to_string(c.src) +
            " of a table of " + std::to_string(n.sources.size()));
      }
    }
    for (const auto& source : n.sources) {
      if (source == nullptr) {
        return Status::Corruption("chain tree: null provenance" + at);
      }
    }
  } else {
    for (const ChainRef& k : n.kids) {
      TENDAX_RETURN_IF_ERROR(CheckSubtree(k, depth + 1, false, leaf_depth));
    }
  }
  ChainRef actual{ref.node};
  Summarize(actual);
  if (actual.live != ref.live || actual.chain != ref.chain ||
      actual.max_id != ref.max_id) {
    return Status::Corruption("chain tree: subtree counts" + at +
                              " disagree with its contents");
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// ChainNode

const std::shared_ptr<const CharSource>& ChainNode::SourceOf(
    const SnapChar& c) const {
  return c.src == 0 ? kNoSource : sources[c.src - 1];
}

uint32_t ChainNode::Intern(const std::shared_ptr<const CharSource>& source) {
  if (source == nullptr) return 0;
  if (sources.empty() || sources.back() != source) sources.push_back(source);
  return static_cast<uint32_t>(sources.size());
}

void ChainNode::Append(SnapChar c,
                       const std::shared_ptr<const CharSource>& source) {
  c.src = Intern(source);
  chars.push_back(c);
}

// ---------------------------------------------------------------------------
// CharTree

size_t CharTree::height() const {
  size_t h = 0;
  for (const ChainNode* n = root_.node.get(); n != nullptr;
       n = n->leaf() ? nullptr : n->kids.front().node.get()) {
    ++h;
  }
  return h;
}

const SnapChar& CharTree::LiveAt(size_t pos) const {
  assert(pos < live_size());
  static const SnapChar kNone{};  // unreachable while counts are consistent
  const SnapChar* found = &kNone;
  size_t one = 1;
  ForLiveRange(root_.node.get(), &pos, &one,
               [&](const ChainNode&, const SnapChar& c) { found = &c; });
  return *found;
}

std::string CharTree::Text() const {
  std::string out;
  out.reserve(live_size());
  ForEachLeaf(root_.node.get(), [&](const ChainNode& leaf) {
    AppendLeafText(
        leaf, [](const SnapChar& c) { return c.deleted == 0; }, &out);
  });
  return out;
}

std::string CharTree::TextRange(size_t pos, size_t len) const {
  assert(len <= live_size() && pos <= live_size() - len);
  std::string out;
  out.reserve(len);
  ForLiveRange(
      root_.node.get(), &pos, &len,
      [&](const ChainNode&, const SnapChar& c) { AppendUtf8(&out, c.cp); });
  return out;
}

std::vector<ChainChar> CharTree::LiveRange(size_t pos, size_t len) const {
  assert(len <= live_size() && pos <= live_size() - len);
  std::vector<ChainChar> out;
  out.reserve(len);
  ForLiveRange(root_.node.get(), &pos, &len,
               [&](const ChainNode& leaf, const SnapChar& c) {
                 out.push_back(Resolved(leaf, c));
               });
  return out;
}

std::string CharTree::TextAtVersion(Version version) const {
  std::string out;
  out.reserve(live_size());
  ForEachLeaf(root_.node.get(), [&](const ChainNode& leaf) {
    // deleted - 1 >= version: live (0 wraps to the maximum) or deleted
    // after `version`.
    AppendLeafText(
        leaf,
        [version](const SnapChar& c) {
          return (c.inserted <= version) & (c.deleted - 1 >= version);
        },
        &out);
  });
  return out;
}

std::vector<ChainChar> CharTree::Chars() const {
  std::vector<ChainChar> out;
  out.reserve(chain_size());
  ForEachLeaf(root_.node.get(), [&](const ChainNode& leaf) {
    for (const SnapChar& c : leaf.chars) out.push_back(Resolved(leaf, c));
  });
  return out;
}

std::vector<const ChainRef*> CharTree::Leaves() const {
  std::vector<const ChainRef*> out;
  if (root_.node != nullptr) CollectLeaves(root_, height(), &out);
  return out;
}

Status CheckChainTree(const ChainRef& root) {
  if (root.node == nullptr) {
    if (root.live != 0 || root.chain != 0) {
      return Status::Corruption("chain tree: empty root records chars");
    }
    return Status::OK();
  }
  size_t leaf_depth = 0;
  return CheckSubtree(root, 1, true, &leaf_depth);
}

// ---------------------------------------------------------------------------
// CharListSnapshot

CharListSnapshot::CharListSnapshot(DocumentInfo info, Version purge_floor,
                                   CharTree tree,
                                   std::shared_ptr<SnapshotTracker> tracker)
    : info_(std::move(info)),
      purge_floor_(purge_floor),
      tree_(std::move(tree)),
      tracker_(std::move(tracker)) {
  assert(info_.length == tree_.live_size());
  if (tracker_) seq_ = tracker_->OnPublish();
}

CharListSnapshot::~CharListSnapshot() {
  if (tracker_) tracker_->OnReclaim(seq_);
}

Result<std::string> CharListSnapshot::TextRange(size_t pos, size_t len) const {
  if (len > info_.length || pos > info_.length - len) {
    return Status::OutOfRange("text range beyond document length");
  }
  return tree_.TextRange(pos, len);
}

Result<std::string> CharListSnapshot::TextAtVersion(Version version) const {
  if (version < purge_floor_) {
    return Status::FailedPrecondition(
        "version " + std::to_string(version) +
        " predates the purge floor " + std::to_string(purge_floor_) +
        " of document " + info_.id.ToString() +
        ": its tombstones were physically purged");
  }
  return tree_.TextAtVersion(version);
}

Result<std::vector<ChainChar>> CharListSnapshot::LiveRange(
    size_t pos, size_t len) const {
  if (len > info_.length || pos > info_.length - len) {
    return Status::OutOfRange("range beyond document length");
  }
  return tree_.LiveRange(pos, len);
}

// ---------------------------------------------------------------------------
// SnapshotTracker

SnapshotTracker::SnapshotTracker(std::shared_ptr<Clock> clock,
                                 std::shared_ptr<MetricsRegistry> metrics)
    : clock_(std::move(clock)), metrics_(std::move(metrics)) {
  if (metrics_) {
    published_ = metrics_->counter("mvcc.snapshots_published");
    acquired_ = metrics_->counter("mvcc.snapshots_acquired");
    reclaimed_ = metrics_->counter("mvcc.snapshots_reclaimed");
    live_gauge_ = metrics_->gauge("mvcc.live_snapshots");
    oldest_age_ = metrics_->gauge("mvcc.oldest_snapshot_age_micros");
  }
}

uint64_t SnapshotTracker::OnPublish() {
  Timestamp now = clock_ ? clock_->NowMicros() : 0;
  uint64_t seq;
  {
    MutexLock lock(mu_);
    seq = next_seq_++;
    live_[seq] = now;
  }
  MetricAdd(published_);
  return seq;
}

void SnapshotTracker::OnReclaim(uint64_t seq) {
  {
    MutexLock lock(mu_);
    live_.erase(seq);
  }
  MetricAdd(reclaimed_);
}

void SnapshotTracker::OnAcquire() { MetricAdd(acquired_); }

void SnapshotTracker::RefreshGauges() {
  int64_t live_count;
  int64_t oldest_age = 0;
  {
    MutexLock lock(mu_);
    live_count = static_cast<int64_t>(live_.size());
    if (!live_.empty() && clock_) {
      Timestamp now = clock_->NowMicros();
      Timestamp oldest = live_.begin()->second;  // seqs publish in time order
      if (now > oldest) oldest_age = static_cast<int64_t>(now - oldest);
    }
  }
  if (live_gauge_) live_gauge_->Set(live_count);
  if (oldest_age_) oldest_age_->Set(oldest_age);
}

uint64_t SnapshotTracker::live() const {
  MutexLock lock(mu_);
  return live_.size();
}

// ---------------------------------------------------------------------------
// VersionedCharList

ChainNode* VersionedCharList::Own(ChainRef& ref) {
  if (ref.node->epoch != epoch_) {
    auto copy = std::make_shared<ChainNode>(*ref.node);
    copy->epoch = epoch_;
    ref.node = std::move(copy);
  }
  return ref.node.get();
}

/// Packs `count` items (chars for leaves, child slots for internal nodes)
/// into ceil(count / target) new nodes of even size: each holds at most
/// `target` and, when there is more than one, more than target / 2.
/// fill(node, from, to) moves items [from, to) into each.
template <typename Fill>
std::vector<ChainRef> VersionedCharList::Pack(size_t count, size_t target,
                                              const Fill& fill) {
  const size_t pieces = (count + target - 1) / target;
  std::vector<ChainRef> out;
  out.reserve(pieces);
  size_t from = 0;
  for (size_t p = 0; p < pieces; ++p) {
    const size_t to = from + (count - from) / (pieces - p);
    ChainRef ref{std::make_shared<ChainNode>(epoch_)};
    fill(*ref.node, from, to);
    Summarize(ref);
    out.push_back(std::move(ref));
    from = to;
  }
  return out;
}

std::vector<ChainRef> VersionedCharList::PackKids(std::vector<ChainRef> kids) {
  return Pack(kids.size(), kMaxKids,
              [&](ChainNode& node, size_t from, size_t to) {
                node.kids.assign(std::make_move_iterator(kids.begin() + from),
                                 std::make_move_iterator(kids.begin() + to));
              });
}

void VersionedCharList::Rebuild(const std::vector<ChainChar>& chain) {
  Clear();
  if (chain.empty()) return;
  std::vector<ChainRef> level =
      Pack(chain.size(), kLeafTarget,
           [&](ChainNode& leaf, size_t from, size_t to) {
             leaf.chars.reserve(to - from);
             for (size_t i = from; i < to; ++i) {
               leaf.Append(chain[i], chain[i].source);
             }
           });
  while (level.size() > 1) level = PackKids(std::move(level));
  root_ = std::move(level.front());
}

/// Re-summarizes the owned node under `ref`; if it is over capacity,
/// `ref` keeps its first piece and the others go to `split`, in order.
void VersionedCharList::SplitIfOversize(ChainRef& ref,
                                        std::vector<ChainRef>* split) {
  ChainNode* n = ref.node.get();
  std::vector<ChainRef> pieces;
  if (n->leaf() && n->chars.size() > kLeafMax) {
    // Each piece gets a provenance table of its own chars' sources.
    pieces = Pack(n->chars.size(), kLeafTarget,
                  [n](ChainNode& leaf, size_t from, size_t to) {
                    leaf.chars.reserve(to - from);
                    for (size_t i = from; i < to; ++i) {
                      leaf.Append(n->chars[i], n->SourceOf(n->chars[i]));
                    }
                  });
  } else if (!n->leaf() && n->kids.size() > kMaxKids) {
    pieces = PackKids(std::move(n->kids));
  } else {
    Summarize(ref);
    return;
  }
  ref = std::move(pieces.front());
  split->insert(split->end(), std::make_move_iterator(pieces.begin() + 1),
                std::make_move_iterator(pieces.end()));
}

void VersionedCharList::InsertIn(ChainRef& ref, size_t after,
                                 const std::vector<ChainChar>& run,
                                 std::vector<ChainRef>* split) {
  ChainNode* n = Own(ref);
  if (n->leaf()) {
    size_t at = 0;
    while (after > 0) {
      if (n->chars[at++].deleted == 0) --after;
    }
    n->chars.insert(n->chars.begin() + static_cast<std::ptrdiff_t>(at),
                    run.begin(), run.end());
    for (size_t i = 0; i < run.size(); ++i) {
      n->chars[at + i].src = n->Intern(run[i].source);
    }
  } else {
    // The child holding the after-th live char (the first for after == 0).
    size_t i = 0;
    while (i + 1 < n->kids.size() && after > n->kids[i].live) {
      after -= n->kids[i].live;
      ++i;
    }
    std::vector<ChainRef> pieces;
    InsertIn(n->kids[i], after, run, &pieces);
    n->kids.insert(n->kids.begin() + static_cast<std::ptrdiff_t>(i + 1),
                   std::make_move_iterator(pieces.begin()),
                   std::make_move_iterator(pieces.end()));
  }
  SplitIfOversize(ref, split);
}

void VersionedCharList::InsertRun(size_t live_pos,
                                  const std::vector<ChainChar>& run) {
  assert(live_pos <= live_size());
  if (run.empty()) return;
  if (root_.node == nullptr) root_.node = std::make_shared<ChainNode>(epoch_);
  std::vector<ChainRef> split;
  InsertIn(root_, live_pos, run, &split);
  // The root split: grow the tree by a level (or more, for a long run).
  while (!split.empty()) {
    split.insert(split.begin(), std::move(root_));
    std::vector<ChainRef> level = PackKids(std::move(split));
    root_ = std::move(level.front());
    split.assign(std::make_move_iterator(level.begin() + 1),
                 std::make_move_iterator(level.end()));
  }
}

void VersionedCharList::TombstoneIn(ChainRef& ref, size_t* skip,
                                    size_t* remaining, Version deleted) {
  ChainNode* n = Own(ref);
  if (n->leaf()) {
    for (SnapChar& c : n->chars) {
      if (*remaining == 0) break;
      if (c.deleted != 0) continue;
      if (*skip > 0) {
        --*skip;
        continue;
      }
      c.deleted = deleted;
      --*remaining;
    }
  } else {
    for (ChainRef& k : n->kids) {
      if (*remaining == 0) break;
      if (*skip >= k.live) {
        *skip -= k.live;
        continue;
      }
      TombstoneIn(k, skip, remaining, deleted);
    }
  }
  Summarize(ref);
}

void VersionedCharList::TombstoneRange(size_t live_pos, size_t len,
                                       Version deleted) {
  assert(len <= live_size() && live_pos <= live_size() - len);
  if (len == 0) return;
  TombstoneIn(root_, &live_pos, &len, deleted);
  assert(len == 0);
}

bool VersionedCharList::SetDeletedIn(ChainRef& ref,
                                     const std::vector<uint64_t>& ids,
                                     Version deleted, size_t* left) {
  bool changed = false;
  const ChainNode* n = ref.node.get();
  if (n->leaf()) {
    for (size_t i = 0; i < n->chars.size() && *left > 0; ++i) {
      const SnapChar& c = n->chars[i];
      if (c.id < ids.front() || c.id > ids.back() ||
          (c.deleted == 0) == (deleted == 0) ||
          !std::binary_search(ids.begin(), ids.end(), c.id)) {
        continue;
      }
      n = Own(ref);
      ref.node->chars[i].deleted = deleted;
      changed = true;
      --*left;
    }
  } else {
    for (size_t i = 0; i < n->kids.size() && *left > 0; ++i) {
      if (n->kids[i].max_id < ids.front()) continue;
      ChainRef kid = n->kids[i];
      if (!SetDeletedIn(kid, ids, deleted, left)) continue;
      n = Own(ref);
      ref.node->kids[i] = std::move(kid);
      changed = true;
    }
  }
  if (changed) Summarize(ref);
  return changed;
}

size_t VersionedCharList::SetDeleted(std::vector<uint64_t> ids,
                                     Version deleted) {
  if (root_.node == nullptr || ids.empty()) return 0;
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  size_t left = ids.size();
  if (root_.max_id >= ids.front()) SetDeletedIn(root_, ids, deleted, &left);
  return ids.size() - left;
}

uint64_t VersionedCharList::PurgeBelow(Version before) {
  std::vector<ChainChar> kept;
  kept.reserve(chain_size());
  ForEachLeaf(root_.node.get(), [&](const ChainNode& leaf) {
    for (const SnapChar& c : leaf.chars) {
      if (c.deleted == 0 || c.deleted > before) {
        kept.push_back(Resolved(leaf, c));
      }
    }
  });
  const uint64_t purged = chain_size() - kept.size();
  if (purged > 0) Rebuild(kept);
  return purged;
}

}  // namespace tendax
