// Tests for the persistent chain tree behind every open document and every
// MVCC snapshot (`CharTree`, `VersionedCharList`, `CheckChainTree`).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "text/snapshot.h"
#include "text/utf8.h"

namespace tendax {
namespace {

ChainChar Char(uint64_t id, uint32_t cp, Version inserted = 1) {
  ChainChar c;
  c.id = id;
  c.cp = cp;
  c.inserted = inserted;
  return c;
}

/// Appends `n` live chars with ids first_id.. and cycling lowercase letters.
void Append(VersionedCharList* list, size_t n, uint64_t first_id = 1) {
  std::vector<ChainChar> run;
  for (size_t i = 0; i < n; ++i) {
    run.push_back(Char(first_id + i, static_cast<uint32_t>('a' + (i % 26))));
  }
  list->InsertRun(list->live_size(), run);
}

// ---------- basic operations ----------

TEST(CharTreeTest, InsertTombstoneAndText) {
  VersionedCharList list;
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.height(), 0u);
  list.InsertRun(0, {Char(1, 'b')});
  list.InsertRun(0, {Char(2, 'a')});
  list.InsertRun(2, {Char(3, 'c')});
  EXPECT_EQ(list.Text(), "abc");
  EXPECT_EQ(list.LiveAt(1).id, 1u);
  list.TombstoneRange(1, 1, 2);
  EXPECT_EQ(list.Text(), "ac");
  EXPECT_EQ(list.live_size(), 2u);
  EXPECT_EQ(list.chain_size(), 3u);
  EXPECT_TRUE(CheckChainTree(list.root()).ok());
}

TEST(CharTreeTest, SetDeletedFindsIds) {
  VersionedCharList list;
  Append(&list, 100);
  EXPECT_EQ(list.SetDeleted({1, 50, 100}, 2), 3u);
  EXPECT_EQ(list.live_size(), 97u);
  EXPECT_EQ(list.LiveAt(0).id, 2u);
  EXPECT_EQ(list.LiveAt(48).id, 51u);
  EXPECT_EQ(list.LiveAt(96).id, 99u);
  // Unknown ids and chars already in the requested state change nothing.
  EXPECT_EQ(list.SetDeleted({999}, 3), 0u);
  EXPECT_EQ(list.SetDeleted({1, 50}, 3), 0u);
  EXPECT_EQ(list.SetDeleted({2}, 0), 0u);
  // Reviving brings the chars back at their old positions.
  EXPECT_EQ(list.SetDeleted({50, 1, 100, 50}, 0), 3u);
  EXPECT_EQ(list.live_size(), 100u);
  EXPECT_EQ(list.LiveAt(0).id, 1u);
  EXPECT_EQ(list.LiveAt(49).id, 50u);
  EXPECT_EQ(list.LiveAt(99).id, 100u);
  EXPECT_TRUE(CheckChainTree(list.root()).ok());
}

TEST(CharTreeTest, LeafSplitsPreserveOrder) {
  VersionedCharList list;
  const size_t n = CharTree::kLeafMax * CharTree::kMaxKids * 2 + 37;
  for (size_t i = 0; i < n; ++i) {
    list.InsertRun(list.live_size(), {Char(i + 1, 'a' + (i % 26))});
  }
  EXPECT_EQ(list.live_size(), n);
  EXPECT_GE(list.height(), 3u);
  for (size_t i = 0; i < n; i += 977) {
    EXPECT_EQ(list.LiveAt(i).id, i + 1);
  }
  // Middle insert after splits.
  list.InsertRun(n / 2, {Char(999999, 'X')});
  EXPECT_EQ(list.LiveAt(n / 2).id, 999999u);
  EXPECT_EQ(list.LiveAt(n / 2 + 1).id, n / 2 + 1);
  EXPECT_EQ(list.live_size(), n + 1);
  EXPECT_TRUE(CheckChainTree(list.root()).ok());
}

TEST(CharTreeTest, TombstoneRangeAcrossLeaves) {
  VersionedCharList list;
  const size_t n = CharTree::kLeafMax * 6;
  Append(&list, n);
  const size_t len = CharTree::kLeafMax * 3;
  list.TombstoneRange(100, len, 2);
  EXPECT_EQ(list.live_size(), n - len);
  EXPECT_EQ(list.chain_size(), n);
  EXPECT_EQ(list.LiveAt(99).id, 100u);
  EXPECT_EQ(list.LiveAt(100).id, 100u + len + 1);
  EXPECT_TRUE(CheckChainTree(list.root()).ok());
}

TEST(CharTreeTest, TextRangeWindows) {
  VersionedCharList list;
  const std::string alphabet = "abcdefghijklmnopqrstuvwxyz";
  for (size_t i = 0; i < alphabet.size(); ++i) {
    list.InsertRun(i, {Char(i + 1, static_cast<uint32_t>(alphabet[i]))});
  }
  EXPECT_EQ(list.TextRange(0, 3), "abc");
  EXPECT_EQ(list.TextRange(23, 3), "xyz");
  EXPECT_EQ(list.TextRange(5, 0), "");
}

TEST(CharTreeTest, InsertGoesAfterTheLiveNeighbourBeforeTombstones) {
  VersionedCharList list;
  list.InsertRun(0, {Char(1, 'a'), Char(2, 'b'), Char(3, 'c')});
  list.TombstoneRange(1, 1, 2);  // "a[b]c"
  list.InsertRun(1, {Char(4, 'X', 3)});
  // X is linked directly after 'a', ahead of the tombstoned 'b'.
  EXPECT_EQ(list.Text(), "aXc");
  EXPECT_EQ(list.TextAtVersion(1), "abc");
  std::vector<uint64_t> order;
  for (const ChainChar& c : list.LiveRange(0, 3)) order.push_back(c.id);
  EXPECT_EQ(order, (std::vector<uint64_t>{1, 4, 3}));
  list.SetDeleted({2}, 0);
  EXPECT_EQ(list.Text(), "aXbc");
}

TEST(CharTreeTest, FrozenRootIsNeverMutated) {
  VersionedCharList list;
  Append(&list, 5000);
  CharTree frozen = list.Freeze();
  const std::string before = frozen.Text();
  list.InsertRun(2500, {Char(9001, 'Z')});
  list.TombstoneRange(0, 4000, 2);
  list.SetDeleted({4999}, 2);
  EXPECT_EQ(frozen.Text(), before);
  EXPECT_EQ(frozen.live_size(), 5000u);
  EXPECT_EQ(list.live_size(), 1000u);
  EXPECT_TRUE(CheckChainTree(frozen.root()).ok());
  EXPECT_TRUE(CheckChainTree(list.root()).ok());
}

TEST(CharTreeTest, LongRunGrowsTheTreeByLevels) {
  VersionedCharList list;
  Append(&list, 10);
  std::vector<ChainChar> run;
  const size_t n = CharTree::kLeafTarget * CharTree::kMaxKids * 3;
  for (size_t i = 0; i < n; ++i) run.push_back(Char(100 + i, 'r'));
  list.InsertRun(5, run);
  EXPECT_EQ(list.live_size(), n + 10);
  EXPECT_GE(list.height(), 3u);
  EXPECT_EQ(list.TextRange(3, 4), "derr");
  EXPECT_EQ(list.LiveAt(n + 5).id, 6u);
  EXPECT_TRUE(CheckChainTree(list.root()).ok());
}

// ---------- the invariant checker ----------

TEST(CharTreeTest, CheckerRejectsWrongSubtreeCount) {
  VersionedCharList list;
  Append(&list, 5000);
  const ChainRef good = list.Freeze().root();
  ASSERT_TRUE(CheckChainTree(good).ok());
  ASSERT_FALSE(good.node->leaf());

  // One child slot claims one live char too many.
  auto node = std::make_shared<ChainNode>(*good.node);
  node->kids[1].live += 1;
  ChainRef bad = good;
  bad.node = node;
  Status st = CheckChainTree(bad);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();

  // The root's own totals disagree with its children.
  ChainRef bad_root = good;
  bad_root.chain -= 1;
  EXPECT_TRUE(CheckChainTree(bad_root).IsCorruption());

  // A stale max id would let SetDeleted skip a subtree it must visit.
  ChainRef bad_id = good;
  bad_id.max_id -= 1;
  EXPECT_TRUE(CheckChainTree(bad_id).IsCorruption());
}

TEST(CharTreeTest, CheckerRejectsUnderfullNodesAndUnevenDepth) {
  VersionedCharList list;
  Append(&list, CharTree::kLeafTarget * CharTree::kMaxKids * 2);
  const ChainRef good = list.Freeze().root();
  ASSERT_EQ(list.height(), 3u);

  // An underfull non-root leaf.
  auto root = std::make_shared<ChainNode>(*good.node);
  auto leaf = std::make_shared<ChainNode>(1);
  leaf->chars = {Char(77777, 'u')};
  ChainRef leaf_ref{leaf, 1, 1, 77777};
  // Keep depths equal by hanging it where a leaf belongs.
  auto parent = std::make_shared<ChainNode>(*root->kids[0].node);
  parent->kids.push_back(leaf_ref);
  root->kids[0].node = parent;
  root->kids[0].live += 1;
  root->kids[0].chain += 1;
  root->kids[0].max_id = std::max(root->kids[0].max_id, uint64_t{77777});
  ChainRef underfull{root, good.live + 1, good.chain + 1,
                     std::max(good.max_id, uint64_t{77777})};
  Status st = CheckChainTree(underfull);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();

  // A leaf hung directly under the root, one level above its peers.
  auto shallow = std::make_shared<ChainNode>(*good.node);
  ChainRef big_leaf = good.node->kids[0].node->kids[0];
  shallow->kids.push_back(big_leaf);
  ChainRef uneven{shallow, good.live + big_leaf.live,
                  good.chain + big_leaf.chain, good.max_id};
  st = CheckChainTree(uneven);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST(CharTreeTest, CheckerRejectsProvenanceSlotOutsideItsLeaf) {
  VersionedCharList list;
  std::vector<ChainChar> run;
  auto import = std::make_shared<const CharSource>(CharSource{0, 0, "x"});
  for (uint64_t i = 0; i < 3 * CharTree::kLeafTarget; ++i) {
    run.push_back(Char(i + 1, 'p'));
    if (i % 2 == 0) run.back().source = import;
  }
  list.InsertRun(0, run);
  const ChainRef good = list.Freeze().root();
  ASSERT_TRUE(CheckChainTree(good).ok());
  ASSERT_FALSE(good.node->leaf());
  const ChainNode& first = *good.node->kids[0].node;
  ASSERT_EQ(first.sources.size(), 1u);
  EXPECT_EQ(first.SourceOf(first.chars[0]), import);
  EXPECT_EQ(first.SourceOf(first.chars[1]), nullptr);

  // One char names a slot one past the end of its leaf's table.
  auto leaf = std::make_shared<ChainNode>(first);
  leaf->chars[1].src = static_cast<uint32_t>(leaf->sources.size() + 1);
  auto root = std::make_shared<ChainNode>(*good.node);
  root->kids[0].node = leaf;
  ChainRef bad = good;
  bad.node = root;
  Status st = CheckChainTree(bad);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.message().find("provenance slot"), std::string::npos)
      << st.ToString();

  // The slot is in range again, but the table entry it names is gone.
  leaf->chars[1].src = 1;
  leaf->sources[0] = nullptr;
  EXPECT_TRUE(CheckChainTree(bad).IsCorruption());
}

// ---------- differential test against a flat model ----------

/// The flat model the tree must agree with: the chain as one vector.
struct FlatChain {
  std::vector<ChainChar> chars;

  size_t live() const {
    return static_cast<size_t>(std::count_if(
        chars.begin(), chars.end(),
        [](const ChainChar& c) { return c.deleted == 0; }));
  }
  /// Physical index of the live char at `pos`.
  size_t PhysicalOf(size_t pos) const {
    for (size_t i = 0; i < chars.size(); ++i) {
      if (chars[i].deleted == 0 && pos-- == 0) return i;
    }
    ADD_FAILURE() << "live position out of range";
    return chars.size();
  }
  std::vector<ChainChar> LiveRange(size_t pos, size_t len) const {
    std::vector<ChainChar> out;
    for (const ChainChar& c : chars) {
      if (c.deleted != 0) continue;
      if (pos > 0) {
        --pos;
        continue;
      }
      if (out.size() == len) break;
      out.push_back(c);
    }
    return out;
  }
  std::string TextAtVersion(Version v) const {
    std::string out;
    for (const ChainChar& c : chars) {
      if (c.inserted <= v && (c.deleted == 0 || c.deleted > v)) {
        AppendUtf8(&out, c.cp);
      }
    }
    return out;
  }
  std::string Text() const {
    std::string out;
    for (const ChainChar& c : chars) {
      if (c.deleted == 0) AppendUtf8(&out, c.cp);
    }
    return out;
  }
};

/// Same char, provenance included: the very same source object, which the
/// tree hands back out of its leaf tables.
bool SameChar(const ChainChar& a, const ChainChar& b) {
  return a.id == b.id && a.cp == b.cp && a.inserted == b.inserted &&
         a.deleted == b.deleted && a.src == 0 && b.src == 0 &&
         a.source == b.source;
}

/// Compares whole chains, tombstones and provenance included.
void ExpectSameChain(const std::vector<ChainChar>& got,
                     const std::vector<ChainChar>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(SameChar(got[i], want[i])) << "chain index " << i;
  }
}

class ChainHarness {
 public:
  explicit ChainHarness(uint64_t seed) : rng_(seed) {}

  void Run(int ops, size_t base_size) {
    Rebuild(base_size);
    Verify("initial rebuild");
    for (int op = 0; op < ops && !::testing::Test::HasFailure(); ++op) {
      const std::string what = Step();
      Verify("op " + std::to_string(op) + " (" + what + ")");
    }
    EXPECT_GE(max_height_, 3u) << "sizes must span three tree levels";
  }

 private:
  struct Frozen {
    CharTree tree;
    std::vector<ChainChar> chars;
    std::string text;
    Version at = 0;
    std::string text_at;
  };

  size_t Uniform(size_t n) {  // [0, n)
    return n == 0 ? 0 : std::uniform_int_distribution<size_t>(0, n - 1)(rng_);
  }
  bool Chance(double p) { return std::bernoulli_distribution(p)(rng_); }

  /// A fresh char; some carry provenance: a new source, or one already in
  /// the chain (the same object, as a second paste of one import shares).
  ChainChar Fresh() {
    ChainChar c = Char(next_id_++, static_cast<uint32_t>('a' + Uniform(26)),
                       version_);
    if (Chance(0.2)) c.cp = 0x00E9 + static_cast<uint32_t>(Uniform(3));
    if (Chance(0.1)) {
      c.source = std::make_shared<const CharSource>(
          CharSource{1 + Uniform(5), 1 + Uniform(1000),
                     Chance(0.5) ? "https://example.org/" : ""});
    } else if (Chance(0.05) && !model_.chars.empty()) {
      c.source = model_.chars[Uniform(model_.chars.size())].source;
    }
    return c;
  }

  void Rebuild(size_t n) {
    ++version_;
    model_.chars.clear();
    for (size_t i = 0; i < n; ++i) {
      ChainChar c = Fresh();
      c.inserted = 1 + Uniform(version_);
      if (Chance(0.15)) c.deleted = c.inserted + Uniform(version_ - c.inserted + 1);
      if (c.deleted == c.inserted && c.deleted != 0 && Chance(0.5)) {
        c.deleted = version_;
      }
      model_.chars.push_back(c);
    }
    list_.Rebuild(model_.chars);
  }

  std::string Step() {
    const size_t live = model_.live();
    const size_t pick = Uniform(100);
    if (pick < 2) {
      Rebuild(Uniform(4 * CharTree::kLeafTarget * CharTree::kMaxKids));
      return "rebuild";
    }
    if (pick < 45) {
      ++version_;
      size_t len = 1;
      if (Chance(0.15)) len = 1 + Uniform(300);
      if (Chance(0.02)) len = 1 + Uniform(6'000);
      std::vector<ChainChar> run;
      for (size_t i = 0; i < len; ++i) run.push_back(Fresh());
      if (len > 1 && Chance(0.3)) {
        // One import: the whole run shares one source, in one table slot
        // per leaf the run lands in.
        auto import = std::make_shared<const CharSource>(
            CharSource{0, 0, "import-" + std::to_string(version_)});
        for (ChainChar& c : run) c.source = import;
      }
      const size_t pos = Uniform(live + 1);
      const size_t at = pos == 0 ? 0 : model_.PhysicalOf(pos - 1) + 1;
      model_.chars.insert(model_.chars.begin() + at, run.begin(), run.end());
      list_.InsertRun(pos, run);
      return "insert " + std::to_string(len) + " at " + std::to_string(pos);
    }
    if (pick < 65) {
      if (live == 0) return "noop";
      ++version_;
      const size_t pos = Uniform(live);
      size_t len = 1 + Uniform(std::min<size_t>(live - pos, 3));
      if (Chance(0.2)) len = 1 + Uniform(std::min<size_t>(live - pos, 500));
      size_t skip = pos, left = len;
      for (ChainChar& c : model_.chars) {
        if (c.deleted != 0 || left == 0) continue;
        if (skip > 0) {
          --skip;
          continue;
        }
        c.deleted = version_;
        --left;
      }
      list_.TombstoneRange(pos, len, version_);
      return "tombstone " + std::to_string(len) + " at " + std::to_string(pos);
    }
    if (pick < 85) {
      ++version_;
      const bool revive = Chance(0.5);
      const Version to = revive ? 0 : version_;
      std::vector<uint64_t> ids;
      const size_t k = 1 + Uniform(Chance(0.1) ? 200 : 40);
      for (size_t i = 0; i < k && !model_.chars.empty(); ++i) {
        // Mostly recent chars (undo of a paste), some anywhere.
        size_t idx = Uniform(model_.chars.size());
        if (Chance(0.5)) {
          idx = static_cast<size_t>(
              std::max_element(model_.chars.begin(), model_.chars.end(),
                               [](const ChainChar& a, const ChainChar& b) {
                                 return a.id < b.id;
                               }) -
              model_.chars.begin());
        }
        ids.push_back(model_.chars[idx].id - (Chance(0.5) ? Uniform(3) : 0));
      }
      ids.push_back(next_id_ + 17);  // never in the chain
      std::vector<uint64_t> sorted = ids;
      std::sort(sorted.begin(), sorted.end());
      size_t expect = 0;
      for (ChainChar& c : model_.chars) {
        if (!std::binary_search(sorted.begin(), sorted.end(), c.id)) continue;
        if ((c.deleted == 0) == (to == 0)) continue;
        c.deleted = to;
        ++expect;
      }
      EXPECT_EQ(list_.SetDeleted(ids, to), expect);
      return std::string(revive ? "revive " : "delete ") +
             std::to_string(ids.size()) + " ids";
    }
    if (pick < 88) {
      const Version before = Uniform(version_ + 1);
      const size_t n = model_.chars.size();
      std::erase_if(model_.chars, [&](const ChainChar& c) {
        return c.deleted != 0 && c.deleted <= before;
      });
      EXPECT_EQ(list_.PurgeBelow(before), n - model_.chars.size());
      return "purge below " + std::to_string(before);
    }
    Frozen f;
    f.tree = list_.Freeze();
    f.chars = model_.chars;
    f.text = model_.Text();
    f.at = Uniform(version_ + 1);
    f.text_at = model_.TextAtVersion(f.at);
    if (frozen_.size() < 6) {
      frozen_.push_back(std::move(f));
    } else {
      frozen_[Uniform(frozen_.size())] = std::move(f);
    }
    return "freeze";
  }

  void Verify(const std::string& where) {
    SCOPED_TRACE(where);
    const size_t live = model_.live();
    ASSERT_EQ(list_.live_size(), live);
    ASSERT_EQ(list_.chain_size(), model_.chars.size());
    Status st = CheckChainTree(list_.root());
    ASSERT_TRUE(st.ok()) << st.ToString();
    max_height_ = std::max(max_height_, list_.height());

    ASSERT_EQ(list_.Text(), model_.Text());
    const Version v = Uniform(version_ + 1);
    ASSERT_EQ(list_.TextAtVersion(v), model_.TextAtVersion(v));
    // Every char's provenance, through splits, clones and rebuilds.
    ExpectSameChain(list_.Chars(), model_.chars);
    if (::testing::Test::HasFatalFailure()) return;
    if (live > 0) {
      for (int i = 0; i < 4; ++i) {
        const size_t pos = Uniform(live);
        const SnapChar& got = list_.LiveAt(pos);
        const ChainChar& want = model_.chars[model_.PhysicalOf(pos)];
        ASSERT_TRUE(got.id == want.id && got.cp == want.cp &&
                    got.inserted == want.inserted &&
                    got.deleted == want.deleted);
        ASSERT_TRUE(SameChar(list_.LiveRange(pos, 1)[0], want));
      }
      const size_t pos = Uniform(live);
      const size_t len = Uniform(std::min<size_t>(live - pos, 2'500) + 1);
      const std::vector<ChainChar> got = list_.LiveRange(pos, len);
      const std::vector<ChainChar> want = model_.LiveRange(pos, len);
      ASSERT_EQ(got.size(), want.size());
      std::string text;
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_TRUE(SameChar(got[i], want[i])) << "at " << i;
        AppendUtf8(&text, want[i].cp);
      }
      ASSERT_EQ(list_.TextRange(pos, len), text);
    }
    // Every earlier snapshot still returns its original bytes, and one of
    // them its original provenance, though the writer cloned its leaves.
    for (const Frozen& f : frozen_) {
      ASSERT_EQ(f.tree.Text(), f.text);
      ASSERT_EQ(f.tree.TextAtVersion(f.at), f.text_at);
      ASSERT_TRUE(CheckChainTree(f.tree.root()).ok());
    }
    if (!frozen_.empty()) {
      const Frozen& f = frozen_[Uniform(frozen_.size())];
      ExpectSameChain(f.tree.Chars(), f.chars);
    }
  }

  std::mt19937_64 rng_;
  VersionedCharList list_;
  FlatChain model_;
  std::vector<Frozen> frozen_;
  uint64_t next_id_ = 1;
  Version version_ = 0;
  size_t max_height_ = 0;
};

int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoi(v) : fallback;
}

TEST(CharTreeTest, MatchesFlatModel) {
  const int seeds = EnvInt("TENDAX_MVCC_SCHEDULES", 6);
  const int ops = EnvInt("TENDAX_MVCC_OPS", 300);
  for (int seed = 1; seed <= seeds && !HasFailure(); ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    // Past kMaxKids full leaves, so the tree starts three levels deep.
    const size_t base = CharTree::kLeafTarget * CharTree::kMaxKids;
    ChainHarness(static_cast<uint64_t>(seed)).Run(ops, base * (1 + seed % 3));
  }
}

TEST(CharTreeTest, MatchesFlatModelFourLevelsDeep) {
  // Bulk-loaded leaves hold kLeafTarget chars and nodes kMaxKids children,
  // so this many chars need a fourth level.
  const size_t n = CharTree::kLeafTarget * CharTree::kMaxKids *
                       CharTree::kMaxKids + 1'000;
  VersionedCharList list;
  Append(&list, n);
  EXPECT_EQ(list.height(), 4u);
  ChainHarness(99).Run(EnvInt("TENDAX_MVCC_OPS", 300) / 10, n);
}

}  // namespace
}  // namespace tendax
