// Tests for the core TeNDaX contribution: text as a native database type.

#include <gtest/gtest.h>

#include <thread>

#include "text/text_store.h"
#include "text/utf8.h"

namespace tendax {
namespace {

// ---------- UTF-8 ----------

TEST(Utf8Test, RoundTripAsciiAndMultibyte) {
  std::string text = "a\xC3\xA9\xE2\x82\xAC\xF0\x9F\x98\x80z";  // aé€😀z
  auto cps = DecodeUtf8(text);
  ASSERT_EQ(cps.size(), 5u);
  EXPECT_EQ(cps[0], 'a');
  EXPECT_EQ(cps[1], 0xE9u);
  EXPECT_EQ(cps[2], 0x20ACu);
  EXPECT_EQ(cps[3], 0x1F600u);
  EXPECT_EQ(cps[4], 'z');
  EXPECT_EQ(EncodeUtf8(cps), text);
}

TEST(Utf8Test, InvalidBytesBecomeReplacement) {
  std::string bad = "a\xFFz";
  auto cps = DecodeUtf8(bad);
  ASSERT_EQ(cps.size(), 3u);
  EXPECT_EQ(cps[1], 0xFFFDu);
  // Truncated multi-byte at end.
  auto cps2 = DecodeUtf8("ab\xE2\x82");
  ASSERT_EQ(cps2.size(), 3u);
  EXPECT_EQ(cps2[2], 0xFFFDu);
  // Overlong encoding rejected.
  auto cps3 = DecodeUtf8("\xC0\x80");
  EXPECT_EQ(cps3[0], 0xFFFDu);
}

// ---------- TextStore ----------

class TextStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.buffer_pool_pages = 512;
    options.clock = std::make_shared<ManualClock>();
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    store_ = std::make_unique<TextStore>(db_.get());
    ASSERT_TRUE(store_->Init().ok());
    auto doc = store_->CreateDocument(alice_, "draft.txt");
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    doc_ = *doc;
  }

  UserId alice_{1};
  UserId bob_{2};
  std::unique_ptr<Database> db_;
  std::unique_ptr<TextStore> store_;
  DocumentId doc_;
};

TEST_F(TextStoreTest, EmptyDocument) {
  EXPECT_EQ(*store_->Text(doc_), "");
  EXPECT_EQ(*store_->Length(doc_), 0u);
  EXPECT_EQ(*store_->CurrentVersion(doc_), 0u);
}

TEST_F(TextStoreTest, TypeAndRead) {
  auto r = store_->InsertText(alice_, doc_, 0, "hello world");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->version, 1u);
  EXPECT_EQ(r->chars.size(), 11u);
  EXPECT_EQ(*store_->Text(doc_), "hello world");
  EXPECT_EQ(*store_->Length(doc_), 11u);
}

TEST_F(TextStoreTest, InsertAtPositions) {
  ASSERT_TRUE(store_->InsertText(alice_, doc_, 0, "ad").ok());
  ASSERT_TRUE(store_->InsertText(alice_, doc_, 1, "bc").ok());
  EXPECT_EQ(*store_->Text(doc_), "abcd");
  ASSERT_TRUE(store_->InsertText(alice_, doc_, 0, ">>").ok());
  EXPECT_EQ(*store_->Text(doc_), ">>abcd");
  ASSERT_TRUE(store_->InsertText(alice_, doc_, 6, "<<").ok());
  EXPECT_EQ(*store_->Text(doc_), ">>abcd<<");
}

TEST_F(TextStoreTest, InsertBeyondEndRejected) {
  auto r = store_->InsertText(alice_, doc_, 5, "x");
  EXPECT_TRUE(r.status().IsOutOfRange());
  EXPECT_EQ(*store_->CurrentVersion(doc_), 0u);  // nothing committed
}

TEST_F(TextStoreTest, DeleteRange) {
  ASSERT_TRUE(store_->InsertText(alice_, doc_, 0, "hello cruel world").ok());
  auto r = store_->DeleteRange(alice_, doc_, 5, 6);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*store_->Text(doc_), "hello world");
  EXPECT_EQ(*store_->Length(doc_), 11u);
  // Deleting past the end fails and changes nothing.
  EXPECT_TRUE(store_->DeleteRange(alice_, doc_, 8, 10).status()
                  .IsOutOfRange());
  EXPECT_EQ(*store_->Text(doc_), "hello world");
}

TEST_F(TextStoreTest, MultibyteTextSurvives) {
  std::string text = "gr\xC3\xBC\xC3\x9F dich \xF0\x9F\x98\x80";
  ASSERT_TRUE(store_->InsertText(alice_, doc_, 0, text).ok());
  EXPECT_EQ(*store_->Text(doc_), text);
  // Position arithmetic is in code points, not bytes.
  EXPECT_EQ(*store_->Length(doc_), DecodeUtf8(text).size());
}

TEST_F(TextStoreTest, CharLevelMetadataCaptured) {
  ASSERT_TRUE(store_->InsertText(alice_, doc_, 0, "ab").ok());
  ASSERT_TRUE(store_->InsertText(bob_, doc_, 2, "cd").ok());
  auto a = store_->CharAt(doc_, 0);
  auto c = store_->CharAt(doc_, 2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(a->author, alice_);
  EXPECT_EQ(c->author, bob_);
  EXPECT_EQ(a->inserted_version, 1u);
  EXPECT_EQ(c->inserted_version, 2u);
  EXPECT_EQ(a->deleted_version, 0u);
  EXPECT_GT(a->created, 0u);
  EXPECT_FALSE(a->src_doc.valid());  // typed, not pasted
}

TEST_F(TextStoreTest, DeletedCharsKeepTombstoneMetadata) {
  ASSERT_TRUE(store_->InsertText(alice_, doc_, 0, "abc").ok());
  auto del = store_->DeleteRange(bob_, doc_, 1, 1);
  ASSERT_TRUE(del.ok());
  auto info = store_->GetChar(doc_, del->chars[0]);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->deleted_version, 2u);
  EXPECT_EQ(info->deleted_by, bob_);
  EXPECT_EQ(info->cp, static_cast<uint32_t>('b'));
}

TEST_F(TextStoreTest, CopyPasteRecordsProvenance) {
  ASSERT_TRUE(store_->InsertText(alice_, doc_, 0, "source text").ok());
  auto other = store_->CreateDocument(bob_, "target.txt");
  ASSERT_TRUE(other.ok());

  auto copied = store_->Copy(bob_, doc_, 0, 6);
  ASSERT_TRUE(copied.ok());
  ASSERT_EQ(copied->size(), 6u);
  auto pasted = store_->Paste(bob_, *other, 0, *copied);
  ASSERT_TRUE(pasted.ok());
  EXPECT_EQ(*store_->Text(*other), "source");

  auto info = store_->CharAt(*other, 0);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->src_doc, doc_);
  EXPECT_TRUE(info->src_char.valid());
  // The source points at the original character in doc_.
  auto original = store_->GetChar(doc_, info->src_char);
  ASSERT_TRUE(original.ok());
  EXPECT_EQ(original->cp, static_cast<uint32_t>('s'));
}

TEST_F(TextStoreTest, TransitiveCopyKeepsOriginalSource) {
  ASSERT_TRUE(store_->InsertText(alice_, doc_, 0, "xy").ok());
  auto doc2 = store_->CreateDocument(bob_, "two");
  auto doc3 = store_->CreateDocument(bob_, "three");
  auto c1 = store_->Copy(bob_, doc_, 0, 2);
  ASSERT_TRUE(store_->Paste(bob_, *doc2, 0, *c1).ok());
  auto c2 = store_->Copy(bob_, *doc2, 0, 2);
  ASSERT_TRUE(store_->Paste(bob_, *doc3, 0, *c2).ok());
  // doc3's chars point at doc_ (the origin), not doc2.
  auto info = store_->CharAt(*doc3, 0);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->src_doc, doc_);
}

TEST_F(TextStoreTest, ExternalSourceTracked) {
  ASSERT_TRUE(store_
                  ->InsertText(alice_, doc_, 0, "imported",
                               "file://report.doc")
                  .ok());
  auto info = store_->CharAt(doc_, 3);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->src_external, "file://report.doc");
}

TEST_F(TextStoreTest, TimeTravelReadsEveryVersion) {
  ASSERT_TRUE(store_->InsertText(alice_, doc_, 0, "abc").ok());   // v1
  ASSERT_TRUE(store_->InsertText(alice_, doc_, 3, "def").ok());   // v2
  ASSERT_TRUE(store_->DeleteRange(alice_, doc_, 1, 2).ok());      // v3: a def
  ASSERT_TRUE(store_->InsertText(alice_, doc_, 1, "X").ok());     // v4

  EXPECT_EQ(*store_->TextAtVersion(doc_, 0), "");
  EXPECT_EQ(*store_->TextAtVersion(doc_, 1), "abc");
  EXPECT_EQ(*store_->TextAtVersion(doc_, 2), "abcdef");
  EXPECT_EQ(*store_->TextAtVersion(doc_, 3), "adef");
  EXPECT_EQ(*store_->TextAtVersion(doc_, 4), "aXdef");
  EXPECT_EQ(*store_->TextAtVersion(doc_, 99), *store_->Text(doc_));
}

TEST_F(TextStoreTest, DeleteCharsAndResurrect) {
  ASSERT_TRUE(store_->InsertText(alice_, doc_, 0, "undo me").ok());
  auto del = store_->DeleteRange(alice_, doc_, 0, 4);
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(*store_->Text(doc_), " me");
  auto res = store_->ResurrectChars(alice_, doc_, del->chars);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(*store_->Text(doc_), "undo me");
  // Resurrected chars are live again at their original positions.
  auto info = store_->CharAt(doc_, 0);
  EXPECT_EQ(info->deleted_version, 0u);
}

TEST_F(TextStoreTest, DeleteCharsById) {
  auto ins = store_->InsertText(alice_, doc_, 0, "abcdef");
  ASSERT_TRUE(ins.ok());
  // Delete chars 'b', 'd', 'f' by id (an undo of three scattered inserts).
  std::vector<CharId> victims = {ins->chars[1], ins->chars[3], ins->chars[5]};
  auto del = store_->DeleteChars(alice_, doc_, victims);
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(*store_->Text(doc_), "ace");
  // Deleting the same ids again is a no-op (already tombstoned).
  auto again = store_->DeleteChars(alice_, doc_, victims);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->chars.empty());
  EXPECT_EQ(*store_->Text(doc_), "ace");
}

TEST_F(TextStoreTest, UndoAcrossLeavesKeepsCacheInStepWithRecords) {
  // Long enough that the chain cache spans many tree leaves.
  std::string text;
  for (int i = 0; i < 3000; ++i) text += static_cast<char>('a' + i % 26);
  ASSERT_TRUE(store_->InsertText(alice_, doc_, 0, text).ok());
  auto del = store_->DeleteRange(alice_, doc_, 500, 1500);
  ASSERT_TRUE(del.ok());
  auto paste = store_->InsertText(alice_, doc_, 700, "pasted");
  ASSERT_TRUE(paste.ok());
  ASSERT_TRUE(store_->CheckIntegrity().ok());

  // Undo of the paste, then undo of the delete: both in place, no reload.
  ASSERT_TRUE(store_->DeleteChars(alice_, doc_, paste->chars).ok());
  auto res = store_->ResurrectChars(alice_, doc_, del->chars);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->chars.size(), 1500u);
  EXPECT_EQ(*store_->Text(doc_), text);
  Status st = store_->CheckIntegrity();
  EXPECT_TRUE(st.ok()) << st.ToString();

  // The cache agrees with a reload from the records.
  store_->InvalidateHandle(doc_);
  EXPECT_EQ(*store_->Text(doc_), text);
  // The paste went in after live char 699, i.e. after text[2199], ahead
  // of no tombstone: history shows it there.
  EXPECT_EQ(*store_->TextAtVersion(doc_, 3),
            text.substr(0, 2200) + "pasted" + text.substr(2200));
}

TEST_F(TextStoreTest, TextRangeAndRangeInfo) {
  ASSERT_TRUE(store_->InsertText(alice_, doc_, 0, "0123456789").ok());
  EXPECT_EQ(*store_->TextRange(doc_, 2, 5), "23456");
  auto info = store_->RangeInfo(doc_, 2, 3);
  ASSERT_TRUE(info.ok());
  ASSERT_EQ(info->size(), 3u);
  EXPECT_EQ((*info)[0].cp, static_cast<uint32_t>('2'));
  EXPECT_TRUE(store_->TextRange(doc_, 8, 5).status().IsOutOfRange());
}

TEST_F(TextStoreTest, DocumentInfoAndRename) {
  auto info = store_->GetDocumentInfo(doc_);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->name, "draft.txt");
  EXPECT_EQ(info->creator, alice_);
  EXPECT_EQ(info->state, "draft");

  ASSERT_TRUE(store_->RenameDocument(alice_, doc_, "final.txt").ok());
  ASSERT_TRUE(store_->SetDocumentState(alice_, doc_, "published").ok());
  info = store_->GetDocumentInfo(doc_);
  EXPECT_EQ(info->name, "final.txt");
  EXPECT_EQ(info->state, "published");
  EXPECT_EQ(*store_->FindDocumentByName("final.txt"), doc_);
  EXPECT_TRUE(store_->FindDocumentByName("draft.txt").status().IsNotFound());
}

TEST_F(TextStoreTest, ListDocuments) {
  auto d2 = store_->CreateDocument(bob_, "b");
  auto d3 = store_->CreateDocument(bob_, "c");
  ASSERT_TRUE(d2.ok());
  ASSERT_TRUE(d3.ok());
  auto docs = store_->ListDocuments();
  EXPECT_EQ(docs.size(), 3u);
  EXPECT_EQ(docs[0], doc_);
}

TEST_F(TextStoreTest, VersionsAdvancePerEditTransaction) {
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(store_->InsertText(alice_, doc_, 0, "x").ok());
  }
  EXPECT_EQ(*store_->CurrentVersion(doc_), 5u);
}

TEST_F(TextStoreTest, HandleReloadMatchesCache) {
  ASSERT_TRUE(store_->InsertText(alice_, doc_, 0, "persistent text").ok());
  ASSERT_TRUE(store_->DeleteRange(alice_, doc_, 4, 6).ok());
  std::string before = *store_->Text(doc_);
  store_->InvalidateHandle(doc_);
  EXPECT_EQ(*store_->Text(doc_), before);
  EXPECT_EQ(*store_->Length(doc_), before.size());
}

TEST_F(TextStoreTest, ConcurrentEditorsOnSameDocumentSerialize) {
  constexpr int kThreads = 4;
  constexpr int kEditsPerThread = 25;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      UserId user(100 + t);
      for (int i = 0; i < kEditsPerThread; ++i) {
        auto r = store_->InsertText(user, doc_, 0, "a");
        if (!r.ok()) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(*store_->Length(doc_),
            static_cast<uint64_t>(kThreads * kEditsPerThread));
  EXPECT_EQ(*store_->CurrentVersion(doc_),
            static_cast<uint64_t>(kThreads * kEditsPerThread));
}

TEST_F(TextStoreTest, ConcurrentEditorsOnDistinctDocuments) {
  constexpr int kThreads = 4;
  constexpr int kEdits = 30;
  std::vector<DocumentId> docs;
  for (int t = 0; t < kThreads; ++t) {
    auto d = store_->CreateDocument(UserId(200 + t),
                                    "doc" + std::to_string(t));
    ASSERT_TRUE(d.ok());
    docs.push_back(*d);
  }
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kEdits; ++i) {
        auto r = store_->InsertText(UserId(200 + t), docs[t],
                                    i, std::string(1, 'a' + t));
        if (!r.ok()) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(*store_->Text(docs[t]), std::string(kEdits, 'a' + t));
  }
}

// ---------- persistence across crash ----------

TEST(TextStoreRecoveryTest, DocumentsSurviveCrash) {
  auto disk = std::make_shared<InMemoryDiskManager>();
  auto log = std::make_shared<InMemoryLogStorage>();
  DocumentId doc;
  std::string expected;
  {
    DatabaseOptions options;
    options.disk = disk;
    options.log_storage = log;
    options.buffer_pool_pages = 256;
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok());
    TextStore store(db->get());
    ASSERT_TRUE(store.Init().ok());
    auto d = store.CreateDocument(UserId(1), "crashdoc");
    ASSERT_TRUE(d.ok());
    doc = *d;
    ASSERT_TRUE(store.InsertText(UserId(1), doc, 0, "hello world").ok());
    ASSERT_TRUE(store.DeleteRange(UserId(1), doc, 0, 6).ok());
    ASSERT_TRUE(store.InsertText(UserId(1), doc, 5, "!").ok());
    expected = *store.Text(doc);
    (*db)->SimulateCrash();
  }
  DatabaseOptions options;
  options.disk = disk;
  options.log_storage = log;
  options.buffer_pool_pages = 256;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  TextStore store(db->get());
  ASSERT_TRUE(store.Init().ok());
  EXPECT_EQ(*store.Text(doc), expected);
  EXPECT_EQ(expected, "world!");
  // Metadata survived too.
  auto info = store.GetDocumentInfo(doc);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->name, "crashdoc");
  EXPECT_EQ(info->version, 3u);
}

}  // namespace
}  // namespace tendax
