// Differential tests of the incremental search index: after every edit, the
// engine that reindexes only the chain-tree leaves an edit replaced must
// agree with an engine built from scratch over the same store, and with a
// tokenization of the text it indexed (SearchEngine::CheckIntegrity).

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <random>
#include <thread>

#include "server_fixture.h"

namespace tendax {
namespace {

const char* const kWords[] = {"alpha", "beta",  "gamma", "delta", "omega",
                              "tree",  "leaf",  "index", "query", "chain",
                              "text",  "word",  "edit",  "paste", "undo"};

class SearchIndexTest : public ServerTest {
 protected:
  std::string Prose(std::mt19937_64& rng, size_t chars) {
    std::string out;
    while (out.size() < chars) {
      out += kWords[rng() % std::size(kWords)];
      out += rng() % 9 == 0 ? ".\n" : " ";
    }
    return out;
  }

  /// The primary engine's results for a few queries, against those of an
  /// engine indexed from scratch (no commit listener) over the same store.
  void ExpectSameAsFresh(const std::string& when) {
    SCOPED_TRACE(when);
    SearchEngine* engine = server_->search();
    std::vector<std::string> queries = {"alpha", "omega", "gamma tree",
                                        "undo", "xq", "alphabeta"};
    std::vector<std::vector<SearchResult>> got;
    for (const std::string& q : queries) {
      auto r = engine->Search(q);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      got.push_back(std::move(*r));
    }
    Status st = engine->CheckIntegrity();
    ASSERT_TRUE(st.ok()) << st.ToString();

    SearchEngine fresh(server_->db(), server_->text(), server_->meta(),
                       server_->documents(), server_->lineage());
    for (DocumentId doc : server_->text()->ListDocuments()) {
      ASSERT_TRUE(fresh.IndexDocument(doc).ok());
    }
    ASSERT_TRUE(fresh.CheckIntegrity().ok());
    EXPECT_EQ(engine->IndexedTerms(), fresh.IndexedTerms());
    EXPECT_EQ(engine->IndexedDocuments(), fresh.IndexedDocuments());
    for (size_t i = 0; i < queries.size(); ++i) {
      auto want = fresh.Search(queries[i]);
      ASSERT_TRUE(want.ok());
      ASSERT_EQ(got[i].size(), want->size()) << queries[i];
      for (size_t j = 0; j < want->size(); ++j) {
        EXPECT_EQ(got[i][j].doc, (*want)[j].doc) << queries[i];
        EXPECT_EQ(got[i][j].score, (*want)[j].score) << queries[i];
        EXPECT_EQ(got[i][j].name, (*want)[j].name) << queries[i];
        EXPECT_EQ(got[i][j].snippet, (*want)[j].snippet) << queries[i];
      }
    }
  }
};

TEST_F(SearchIndexTest, SeededEditsMatchAFreshIndex) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    TextStore* text = server_->text();
    DocumentId doc = MakeDoc(alice_, "main " + std::to_string(seed),
                             Prose(rng, 24000));
    DocumentId other = MakeDoc(bob_, "other " + std::to_string(seed),
                               Prose(rng, 3000));
    ExpectSameAsFresh("set-up");

    std::vector<CharId> pasted;  // the last paste, for its undo
    std::vector<CharId> erased;  // the last backspace, for its undo
    auto pick = [&](size_t size) { return size == 0 ? 0 : rng() % size; };
    for (int step = 0; step < 90; ++step) {
      auto current = text->Text(doc);
      ASSERT_TRUE(current.ok());
      const std::string& s = *current;
      const size_t size = s.size();
      std::string what;
      Status st;
      switch (rng() % 12) {
        case 0: {  // mid-word insert
          size_t at = pick(size);
          while (at > 0 && at < size &&
                 !(isalpha(s[at - 1]) && isalpha(s[at]))) {
            at = pick(size);
          }
          what = "mid-word insert at " + std::to_string(at);
          st = text->InsertText(alice_, doc, at, "xq").status();
          break;
        }
        case 1: {  // delete the separator between two words
          size_t at = s.find(' ', pick(size));
          if (at == std::string::npos) at = s.find(' ');
          what = "join at " + std::to_string(at);
          st = text->DeleteRange(alice_, doc, at, 1).status();
          break;
        }
        case 2: {  // delete a leaf's worth or more
          size_t len = std::min<size_t>(300 + rng() % 900, size);
          size_t at = pick(size - len);
          what = "delete " + std::to_string(len) + " at " +
                 std::to_string(at);
          st = text->DeleteRange(alice_, doc, at, len).status();
          break;
        }
        case 3:
        case 4: {  // paste, from either document
          DocumentId from = rng() % 3 == 0 ? other : doc;
          auto from_len = text->Length(from);
          ASSERT_TRUE(from_len.ok());
          size_t len = 50 + rng() % 750;
          len = std::min<size_t>(len, *from_len);
          auto clip = text->Copy(alice_, from, pick(*from_len - len), len);
          ASSERT_TRUE(clip.ok()) << clip.status().ToString();
          size_t at = pick(size);
          what = "paste " + std::to_string(len) + " at " + std::to_string(at);
          auto r = text->Paste(alice_, doc, at, *clip);
          st = r.status();
          if (r.ok()) pasted = r->chars;
          break;
        }
        case 5: {  // undo of the last paste
          what = "undo paste";
          if (!pasted.empty()) {
            st = text->DeleteChars(alice_, doc, pasted).status();
          }
          pasted.clear();
          break;
        }
        case 6: {  // backspace
          size_t len = std::min<size_t>(1 + rng() % 5, size);
          size_t at = pick(size - len);
          what = "backspace " + std::to_string(len) + " at " +
                 std::to_string(at);
          auto r = text->DeleteRange(bob_, doc, at, len);
          st = r.status();
          if (r.ok()) erased = r->chars;
          break;
        }
        case 7: {  // undo of the last backspace
          what = "undo backspace";
          if (!erased.empty()) {
            st = text->ResurrectChars(bob_, doc, erased).status();
          }
          erased.clear();
          break;
        }
        case 8: {
          auto version = text->CurrentVersion(doc);
          ASSERT_TRUE(version.ok());
          what = "purge below " + std::to_string(*version);
          st = text->PurgeHistory(alice_, doc, *version).status();
          // Purged tombstones can no longer be revived.
          erased.clear();
          pasted.clear();
          break;
        }
        case 9:
          what = "rename";
          st = text->RenameDocument(
              alice_, doc, std::string(kWords[rng() % std::size(kWords)]) +
                               " " + kWords[rng() % std::size(kWords)]);
          break;
        case 10:
          if (rng() % 2 == 0) {
            what = "evict";
            text->EvictDocument(doc);
          } else {
            what = "invalidate";
            text->InvalidateHandle(doc);
          }
          break;
        case 11:
          what = std::string("snapshots ") +
                 (text->snapshots_enabled() ? "off" : "on");
          text->SetSnapshotsEnabled(!text->snapshots_enabled());
          break;
      }
      ASSERT_TRUE(st.ok()) << what << ": " << st.ToString();
      ExpectSameAsFresh("step " + std::to_string(step) + ": " + what);
      if (HasFatalFailure()) return;
    }
    text->SetSnapshotsEnabled(true);
  }
}

TEST_F(SearchIndexTest, OneCharEditTokenizesAFewLeaves) {
  std::mt19937_64 rng(7);
  DocumentId doc = MakeDoc(alice_, "long", Prose(rng, 100000));
  Counter* tokenized =
      server_->db()->metrics()->counter("search.leaves_tokenized");
  ASSERT_TRUE(server_->search()->Search("alpha").ok());
  const uint64_t full = tokenized->Value();
  EXPECT_GE(full, 100000 / CharTree::kLeafMax);

  ASSERT_TRUE(server_->text()->InsertText(alice_, doc, 50000, "z").ok());
  ASSERT_TRUE(server_->search()->Search("alpha").ok());
  EXPECT_LE(tokenized->Value() - full, 3u);
  ASSERT_TRUE(server_->search()->CheckIntegrity().ok());
}

TEST_F(SearchIndexTest, WriterTypesWhileTwoThreadsSearch) {
  std::mt19937_64 rng(11);
  DocumentId doc = MakeDoc(alice_, "shared", Prose(rng, 20000));
  std::atomic<bool> done{false};
  std::thread writer([&] {
    std::mt19937_64 wrng(12);
    for (int i = 0; i < 1500; ++i) {
      auto len = server_->text()->Length(doc);
      if (!len.ok()) {
        ADD_FAILURE() << len.status().ToString();
        break;
      }
      size_t at = wrng() % (*len + 1);
      TextStore* text = server_->text();
      Status st = wrng() % 8 == 0 && at < *len
                      ? text->DeleteRange(alice_, doc, at, 1).status()
                      : text->InsertText(alice_, doc, at,
                                         std::string(1, "ab c"[wrng() % 4]))
                            .status();
      if (!st.ok()) {
        ADD_FAILURE() << st.ToString();
        break;
      }
    }
    done = true;
  });
  auto search = [&](const char* term) {
    size_t searches = 0;
    while (!done || searches == 0) {
      auto r = server_->search()->Search(term);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      ++searches;
    }
  };
  std::thread first(search, "alpha");
  std::thread second(search, "omega");
  writer.join();
  first.join();
  second.join();
  ExpectSameAsFresh("after the race");
}

}  // namespace
}  // namespace tendax
