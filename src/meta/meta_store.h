#ifndef TENDAX_META_META_STORE_H_
#define TENDAX_META_META_STORE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/database.h"
#include "text/text_store.h"
#include "util/ids.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/shared_list.h"

namespace tendax {

/// Kinds of audited interactions with a document.
enum class AuditKind : uint8_t {
  kCreate = 1,
  kEdit = 2,
  kRead = 3,
  kLayout = 4,
  kStructure = 5,
  kSecurity = 6,
  kWorkflow = 7,
  kRename = 8,
  kStateChange = 9,
};

const char* AuditKindName(AuditKind kind);

/// One audit-trail entry.
struct AuditEntry {
  uint64_t seq = 0;
  DocumentId doc;
  UserId user;
  AuditKind kind = AuditKind::kEdit;
  Timestamp at = 0;
  std::string detail;
};

/// Per-user interaction summary with one document.
struct UserTouch {
  uint64_t reads = 0;
  uint64_t edits = 0;
  Timestamp last_read = 0;
  Timestamp last_edit = 0;

  bool operator==(const UserTouch&) const = default;
};

/// Aggregated document-level metadata — the paper's automatically gathered
/// "document creation process" metadata: creator, authors, readers, state,
/// size, timestamps (Sec. 2).
struct DocumentMeta {
  DocumentId doc;
  std::set<UserId> authors;
  std::set<UserId> readers;
  uint64_t total_edits = 0;
  uint64_t total_reads = 0;
  Timestamp last_edit_at = 0;
  UserId last_edit_by;
  Timestamp last_read_at = 0;
  std::map<UserId, UserTouch> by_user;

  bool operator==(const DocumentMeta&) const = default;
};

/// Captures metadata automatically while documents are created and used:
/// every audited change event (edits, layout, workflow, …) gets its audit
/// row inside the transaction that made the change, so the two commit or
/// vanish together; explicit read events get a transaction of their own.
/// In-memory aggregates over the trail feed dynamic folders, search ranking
/// and mining. Also stores user-defined document properties.
class MetaStore {
 public:
  explicit MetaStore(Database* db);

  /// Creates tables, rebuilds aggregates from the persisted audit trail and
  /// hooks into the transaction manager: a pre-commit hook writes the audit
  /// rows, a commit listener updates the aggregates. Call once.
  Status Init();

  /// Explicitly records that `user` read `doc` (editors call this when a
  /// document is opened).
  Status RecordRead(UserId user, DocumentId doc);

  /// Document aggregates (empty record if the doc was never touched).
  DocumentMeta Meta(DocumentId doc) const;

  /// Documents `user` read/edited since `since` (microsecond timestamp).
  std::vector<DocumentId> ReadBy(UserId user, Timestamp since) const;
  std::vector<DocumentId> EditedBy(UserId user, Timestamp since) const;

  /// All documents with any recorded interaction.
  std::vector<DocumentId> TouchedDocuments() const;

  /// Visits the persisted audit trail in sequence order.
  Status VisitAudit(const std::function<bool(const AuditEntry&)>& fn) const;

  // --- user-defined properties (doc-level key/value) ---

  Status SetProperty(UserId user, DocumentId doc, const std::string& key,
                     const std::string& value);
  Result<std::string> GetProperty(DocumentId doc, const std::string& key) const;
  std::map<std::string, std::string> Properties(DocumentId doc) const;

  /// Listener invoked after each audit entry is committed (dynamic folders
  /// subscribe here for incremental refresh). It may run inside a commit
  /// listener, so it must not write.
  using AuditListener = std::function<void(const AuditEntry&)>;
  void AddAuditListener(AuditListener listener);

  /// Rebuilds the aggregates from the persisted audit trail and compares
  /// them with the live ones; Corruption names the first document that
  /// differs. Call at quiescence: a row whose transaction is still in
  /// flight, or committed but not yet published, reads as a mismatch.
  Status CheckIntegrity() const;

 private:
  using Aggregates = std::unordered_map<uint64_t, DocumentMeta>;

  /// Maps a committed change event to an audit kind (or nullopt to skip).
  static std::optional<AuditKind> KindForEvent(ChangeKind kind);
  /// Pre-commit hook: one audit row per audited event of `txn`, written in
  /// `txn`; stamps each event's `audit_seq` (and `at`, if unset).
  Status WriteAuditRows(Transaction* txn);
  /// Commit listener: publishes the rows `batch`'s transaction wrote.
  void OnCommitted(UserId user, const ChangeBatch& batch);
  /// Applies a committed entry to the aggregates, then runs the listeners.
  void Publish(const AuditEntry& entry);
  /// Aggregates of the whole persisted trail; sets `*max_seq` if non-null.
  Result<Aggregates> ReadTrail(uint64_t* max_seq) const;

  Database* const db_;
  HeapTable* audit_table_ = nullptr;
  HeapTable* props_table_ = nullptr;

  // Guards the aggregate caches and listener list; never held across a
  // transaction or a listener call. The listener list is an immutable
  // snapshot, replaced whole when one is added.
  mutable Mutex mu_{"metastore.mu", lockorder::kRankDocument};
  Aggregates meta_ TENDAX_GUARDED_BY(mu_);
  std::map<std::pair<uint64_t, std::string>, std::string> props_
      TENDAX_GUARDED_BY(mu_);
  std::map<std::pair<uint64_t, std::string>, RecordId> prop_rids_
      TENDAX_GUARDED_BY(mu_);
  SharedList<AuditListener> listeners_ TENDAX_GUARDED_BY(mu_);
  std::atomic<uint64_t> next_seq_{1};
};

}  // namespace tendax

#endif  // TENDAX_META_META_STORE_H_
