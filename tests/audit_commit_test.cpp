// Tests for the commit path that makes an edit and its audit row one
// transaction: pre-commit hooks (which may write) and commit listeners
// (which may not).

#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "core/tendax.h"
#include "storage/disk_manager.h"
#include "storage/wal.h"
#include "util/clock.h"

namespace tendax {
namespace {

Schema RowSchema() {
  return Schema({{"id", ColumnType::kUint64}, {"name", ColumnType::kString}});
}

std::unique_ptr<Database> OpenDb() {
  DatabaseOptions options;
  options.disk = std::make_shared<InMemoryDiskManager>();
  options.log_storage = std::make_shared<InMemoryLogStorage>();
  auto db = Database::Open(options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(*db);
}

ChangeEvent Event(DocumentId doc) {
  ChangeEvent ev;
  ev.kind = ChangeKind::kTextInserted;
  ev.doc = doc;
  return ev;
}

TEST(PreCommitHookTest, RunsOnlyForTransactionsWithEvents) {
  auto db = OpenDb();
  auto table = db->CreateTable("rows", RowSchema());
  ASSERT_TRUE(table.ok());
  int calls = 0;
  db->txns()->AddPreCommitHook([&](Transaction*) {
    ++calls;
    return Status::OK();
  });
  ASSERT_TRUE(db->txns()
                  ->RunInTxn(UserId(1),
                             [&](Transaction* txn) {
                               return (*table)
                                   ->Insert(txn, Record({uint64_t{1},
                                                         std::string("a")}))
                                   .status();
                             })
                  .ok());
  EXPECT_EQ(calls, 0) << "a transaction without events runs no hook";
  ASSERT_TRUE(db->txns()
                  ->RunInTxn(UserId(1),
                             [&](Transaction* txn) {
                               txn->AddEvent(Event(DocumentId(7)));
                               return Status::OK();
                             })
                  .ok());
  EXPECT_EQ(calls, 1);
}

TEST(PreCommitHookTest, HookWritesCommitInTheSameTransaction) {
  auto db = OpenDb();
  auto rows = db->CreateTable("rows", RowSchema());
  auto trail = db->CreateTable("trail", RowSchema());
  ASSERT_TRUE(rows.ok() && trail.ok());
  db->txns()->AddPreCommitHook([&](Transaction* txn) {
    for (ChangeEvent& ev : *txn->mutable_events()) {
      ev.detail = "hooked";
      auto rid = (*trail)->Insert(
          txn, Record({ev.doc.value, std::string("trail")}));
      if (!rid.ok()) return rid.status();
    }
    return Status::OK();
  });
  std::string seen_detail;
  db->txns()->AddCommitListener(
      [&](TxnId, UserId, const ChangeBatch& batch) {
        if (!batch.empty()) seen_detail = batch.front().detail;
      });
  const uint64_t committed = db->txns()->stats().committed;
  ASSERT_TRUE(db->txns()
                  ->RunInTxn(UserId(1),
                             [&](Transaction* txn) {
                               txn->AddEvent(Event(DocumentId(7)));
                               return (*rows)
                                   ->Insert(txn, Record({uint64_t{1},
                                                         std::string("a")}))
                                   .status();
                             })
                  .ok());
  EXPECT_EQ(db->txns()->stats().committed, committed + 1);
  EXPECT_EQ(*(*rows)->Count(), 1u);
  EXPECT_EQ(*(*trail)->Count(), 1u);
  EXPECT_EQ(seen_detail, "hooked") << "listeners see the hook's annotations";
}

TEST(PreCommitHookTest, FailedHookAbortsTheTransaction) {
  auto db = OpenDb();
  auto rows = db->CreateTable("rows", RowSchema());
  ASSERT_TRUE(rows.ok());
  db->txns()->AddPreCommitHook(
      [](Transaction*) { return Status::IOError("injected hook failure"); });
  int listened = 0;
  db->txns()->AddCommitListener(
      [&](TxnId, UserId, const ChangeBatch&) { ++listened; });
  const TxnManagerStats before = db->txns()->stats();
  Status st = db->txns()->RunInTxn(UserId(1), [&](Transaction* txn) {
    txn->AddEvent(Event(DocumentId(7)));
    return (*rows)
        ->Insert(txn, Record({uint64_t{1}, std::string("a")}))
        .status();
  });
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_EQ(*(*rows)->Count(), 0u) << "the body's write was rolled back";
  EXPECT_EQ(listened, 0);
  EXPECT_EQ(db->txns()->ActiveCount(), 0u);
  EXPECT_EQ(db->txns()->stats().aborted, before.aborted + 1);
  EXPECT_EQ(db->txns()->stats().committed, before.committed);
}

TEST(PreCommitHookTest, LogUpdateInsideCommitListenerFails) {
  auto db = OpenDb();
  auto rows = db->CreateTable("rows", RowSchema());
  ASSERT_TRUE(rows.ok());
  Status from_listener = Status::OK();
  bool ran = false;
  db->txns()->AddCommitListener(
      [&](TxnId, UserId, const ChangeBatch& batch) {
        if (batch.empty() || ran) return;
        ran = true;
        Transaction* txn = db->txns()->Begin(UserId(2));
        from_listener =
            (*rows)
                ->Insert(txn, Record({uint64_t{99}, std::string("late")}))
                .status();
        (void)db->txns()->Abort(txn);
      });
  ASSERT_TRUE(db->txns()
                  ->RunInTxn(UserId(1),
                             [&](Transaction* txn) {
                               txn->AddEvent(Event(DocumentId(7)));
                               return (*rows)
                                   ->Insert(txn, Record({uint64_t{1},
                                                         std::string("a")}))
                                   .status();
                             })
                  .ok());
  ASSERT_TRUE(ran);
  EXPECT_TRUE(from_listener.IsFailedPrecondition())
      << from_listener.ToString();
  EXPECT_EQ(*(*rows)->Count(), 1u);
  // The guard covers the listener call only: writing after it works.
  ASSERT_TRUE(db->txns()
                  ->RunInTxn(UserId(1),
                             [&](Transaction* txn) {
                               return (*rows)
                                   ->Insert(txn, Record({uint64_t{2},
                                                         std::string("b")}))
                                   .status();
                             })
                  .ok());
  EXPECT_EQ(*(*rows)->Count(), 2u);
}

uint64_t CountEditRows(TendaxServer* server, DocumentId doc) {
  uint64_t rows = 0;
  EXPECT_TRUE(server->meta()
                  ->VisitAudit([&](const AuditEntry& e) {
                    if (e.doc == doc && e.kind == AuditKind::kEdit) ++rows;
                    return true;
                  })
                  .ok());
  return rows;
}

TEST(AuditCommitTest, OneCommitAndOneAuditRowPerKeystroke) {
  TendaxOptions options;
  options.db.clock = std::make_shared<ManualClock>(1'000'000'000, 1000);
  auto server = TendaxServer::Open(std::move(options));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto user = (*server)->accounts()->CreateUser("typist");
  ASSERT_TRUE(user.ok());
  auto editor = (*server)->AttachEditor(*user, "typist");
  ASSERT_TRUE(editor.ok()) << editor.status().ToString();
  auto doc = (*editor)->CreateDocument("keys.txt");
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE((*editor)->Type(*doc, 0, "seed text").ok());

  MetricsRegistry* metrics = (*server)->db()->metrics();
  const uint64_t commits = metrics->counter("txn.committed")->Value();
  const uint64_t syncs = metrics->counter("wal.syncs")->Value();
  const uint64_t appends = metrics->counter("wal.appends")->Value();
  const uint64_t rows = CountEditRows(server->get(), *doc);
  constexpr uint64_t kKeys = 20;
  for (uint64_t i = 0; i < kKeys; ++i) {
    ASSERT_TRUE((*editor)->Type(*doc, 4, "k").ok());
  }
  EXPECT_EQ(metrics->counter("txn.committed")->Value() - commits, kKeys);
  EXPECT_EQ(metrics->counter("wal.syncs")->Value() - syncs, kKeys);
  // begin, char record, doc record, audit row, commit.
  EXPECT_EQ(metrics->counter("wal.appends")->Value() - appends, 5 * kKeys);
  EXPECT_EQ(CountEditRows(server->get(), *doc) - rows, kKeys);
  Status integrity = (*server)->CheckIntegrity();
  EXPECT_TRUE(integrity.ok()) << integrity.ToString();
}

// Fails every read of the pages it is given, as sectors gone bad would.
class BadPagesDiskManager : public DiskManager {
 public:
  explicit BadPagesDiskManager(std::shared_ptr<DiskManager> inner)
      : inner_(std::move(inner)) {}

  void FailReads(std::set<PageId> pages) {
    std::lock_guard<std::mutex> lock(mu_);
    bad_ = std::move(pages);
  }
  uint64_t failed_reads() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failed_reads_;
  }

  Result<PageId> AllocatePage() override { return inner_->AllocatePage(); }
  Status ReadPage(PageId id, char* out) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (bad_.count(id) > 0) {
        ++failed_reads_;
        return Status::IOError("injected read error on page " +
                               std::to_string(id));
      }
    }
    return inner_->ReadPage(id, out);
  }
  Status WritePage(PageId id, const char* data) override {
    return inner_->WritePage(id, data);
  }
  uint32_t NumPages() const override { return inner_->NumPages(); }
  Status Sync() override { return inner_->Sync(); }

 private:
  std::shared_ptr<DiskManager> inner_;
  mutable std::mutex mu_;
  std::set<PageId> bad_;
  uint64_t failed_reads_ = 0;
};

// An edit whose audit row cannot be written does not commit: the audit
// table's pages read as bad, the edit fails with the read error, and the
// text, the version, the audit trail and the aggregates are as before.
TEST(AuditCommitTest, FailedAuditInsertFailsTheEdit) {
  auto disk = std::make_shared<BadPagesDiskManager>(
      std::make_shared<InMemoryDiskManager>());
  auto log = std::make_shared<InMemoryLogStorage>();
  auto open = [&] {
    TendaxOptions options;
    options.db.disk = disk;
    options.db.log_storage = log;
    // Far fewer pages than the document's char records, so a scan of
    // those pushes the audit table's pages out of the pool.
    options.db.buffer_pool_pages = 16;
    options.db.clock = std::make_shared<ManualClock>(1'000'000'000, 1000);
    return TendaxServer::Open(std::move(options));
  };
  UserId user;
  DocumentId doc;
  {
    auto server = open();
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    auto u = (*server)->accounts()->CreateUser("writer");
    ASSERT_TRUE(u.ok());
    user = *u;
    auto d = (*server)->text()->CreateDocument(user, "bulky.txt");
    ASSERT_TRUE(d.ok());
    doc = *d;
    ASSERT_TRUE(
        (*server)->text()->InsertText(user, doc, 0, std::string(6000, 'x'))
            .ok());
  }
  auto server = open();
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const std::string text_before = *(*server)->text()->Text(doc);
  const Version version_before = *(*server)->text()->CurrentVersion(doc);
  const DocumentMeta meta_before = (*server)->meta()->Meta(doc);
  const uint64_t rows_before = CountEditRows(server->get(), doc);
  ASSERT_EQ(rows_before, 1u);

  auto audit = (*server)->db()->GetTable("tendax_audit");
  auto chars = (*server)->db()->GetTable("tendax_chars");
  ASSERT_TRUE(audit.ok() && chars.ok());
  ASSERT_TRUE((*chars)->Count().ok());  // the next audit insert reads disk
  std::vector<PageId> pages = (*audit)->pages();
  disk->FailReads(std::set<PageId>(pages.begin(), pages.end()));
  Status st = (*server)->text()->InsertText(user, doc, 10, "lost").status();
  disk->FailReads({});
  ASSERT_GT(disk->failed_reads(), 0u)
      << "the audit insert never went to disk; the pool is too large";
  EXPECT_TRUE(st.IsIOError()) << st.ToString();

  EXPECT_EQ(*(*server)->text()->Text(doc), text_before);
  EXPECT_EQ(*(*server)->text()->CurrentVersion(doc), version_before);
  EXPECT_EQ(CountEditRows(server->get(), doc), rows_before);
  EXPECT_TRUE((*server)->meta()->Meta(doc) == meta_before);
  EXPECT_EQ((*server)->db()->txns()->ActiveCount(), 0u);
  Status integrity = (*server)->CheckIntegrity();
  EXPECT_TRUE(integrity.ok()) << integrity.ToString();

  // The disk is healthy again: the next edit commits with its row.
  ASSERT_TRUE((*server)->text()->InsertText(user, doc, 10, "kept").ok());
  EXPECT_EQ(CountEditRows(server->get(), doc), rows_before + 1);
  EXPECT_EQ(*(*server)->text()->CurrentVersion(doc), version_before + 1);
}

// CheckIntegrity rebuilds the aggregates from the persisted trail: a row
// that reached the table without going through the audit path shows up.
TEST(AuditCommitTest, CheckIntegrityComparesAggregatesWithTheTrail) {
  TendaxOptions options;
  options.db.clock = std::make_shared<ManualClock>(1'000'000'000, 1000);
  auto server = TendaxServer::Open(std::move(options));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto user = (*server)->accounts()->CreateUser("auditor");
  ASSERT_TRUE(user.ok());
  auto doc = (*server)->text()->CreateDocument(*user, "checked.txt");
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE((*server)->text()->InsertText(*user, *doc, 0, "abc").ok());
  ASSERT_TRUE((*server)->meta()->RecordRead(*user, *doc).ok());
  Status clean = (*server)->CheckIntegrity();
  ASSERT_TRUE(clean.ok()) << clean.ToString();

  auto audit = (*server)->db()->GetTable("tendax_audit");
  ASSERT_TRUE(audit.ok());
  ASSERT_TRUE((*server)
                  ->db()
                  ->txns()
                  ->RunInTxn(*user,
                             [&](Transaction* txn) {
                               return (*audit)
                                   ->Insert(txn,
                                            Record({uint64_t{1000},
                                                    doc->value, user->value,
                                                    uint64_t{static_cast<
                                                        uint64_t>(
                                                        AuditKind::kEdit)},
                                                    uint64_t{5},
                                                    std::string()}))
                                   .status();
                             })
                  .ok());
  Status st = (*server)->CheckIntegrity();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

}  // namespace
}  // namespace tendax
