#ifndef TENDAX_TEXT_TEXT_STORE_H_
#define TENDAX_TEXT_TEXT_STORE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/database.h"
#include "text/snapshot.h"
#include "util/ids.h"
#include "util/mutex.h"
#include "util/result.h"

namespace tendax {

/// Full metadata of one stored character — the paper's character-level
/// "creation process" metadata (Sec. 2): author, roles (via author), time,
/// copy-paste reference, version interval.
struct CharInfo {
  CharId id;
  DocumentId doc;
  uint32_t cp = 0;
  UserId author;
  Timestamp created = 0;
  Version inserted_version = 0;
  Version deleted_version = 0;  // 0 = live
  UserId deleted_by;
  DocumentId src_doc;           // copy-paste provenance (invalid = typed)
  CharId src_char;
  std::string src_external;     // non-TeNDaX source label, if any
};

/// Outcome of one editing transaction.
struct EditResult {
  Version version = 0;              // document version the edit created
  std::vector<CharId> chars;        // affected characters, in order
};

/// One character captured by Copy, carrying the provenance that Paste will
/// record: the source character is the *original* (transitive source if the
/// copied character was itself pasted), per the paper's data-lineage design.
struct PasteChar {
  uint32_t cp = 0;
  DocumentId src_doc;
  CharId src_char;
  std::string src_external;
};

/// TeNDaX's Text Native Database eXtension: text stored as one record per
/// character, doubly linked inside the database; every edit operation runs
/// as a real-time database transaction (insert/delete/copy/paste each
/// commit before they are visible anywhere).
///
/// Characters are tombstoned, never physically removed, which yields
/// time-travel reads (`TextAtVersion`) and cheap global undo. Per-document
/// order is cached in memory for open documents (a persistent tree,
/// `VersionedCharList`) and rebuilt from the linked records at open — the
/// database stays the only source of truth.
///
/// Concurrency: every editing call takes an exclusive transaction-scoped
/// lock on the document, so concurrent edits on one document serialize per
/// keystroke — the paper's database-centric alternative to operational
/// transformation. Reads are MVCC: each committed edit publishes an
/// immutable refcounted `CharListSnapshot` and read-only operations serve
/// from the latest published snapshot with no LockManager acquisition and
/// no handle mutex (see `AcquireSnapshot`), so readers never stall behind
/// a writer waiting on the commit flush.
class TextStore {
 public:
  explicit TextStore(Database* db);

  /// Creates tables/indexes and rebuilds derived state (id counters and the
  /// char-id -> rid index) from storage. Call once after Database::Open.
  Status Init();

  // --- document lifecycle ---

  Result<DocumentId> CreateDocument(UserId user, const std::string& name);
  Result<DocumentInfo> GetDocumentInfo(DocumentId doc);
  Result<DocumentId> FindDocumentByName(const std::string& name);
  std::vector<DocumentId> ListDocuments();
  Status RenameDocument(UserId user, DocumentId doc, const std::string& name);
  Status SetDocumentState(UserId user, DocumentId doc,
                          const std::string& state);

  // --- editing (each call is one committed transaction) ---

  /// Inserts typed text at `pos` (0-based over live characters). A non-empty
  /// `external_source` records provenance from outside TeNDaX (file import,
  /// web paste) on every inserted character.
  Result<EditResult> InsertText(UserId user, DocumentId doc, size_t pos,
                                const std::string& utf8,
                                const std::string& external_source = "");

  /// Captures [pos, pos+len) with provenance for a later Paste. Reads a
  /// published snapshot inside a snapshot-read transaction (no locks); with
  /// snapshots disabled it falls back to a shared document lock.
  Result<std::vector<PasteChar>> Copy(UserId user, DocumentId doc, size_t pos,
                                      size_t len);

  /// Inserts previously copied characters, recording each one's copy-paste
  /// reference.
  Result<EditResult> Paste(UserId user, DocumentId doc, size_t pos,
                           const std::vector<PasteChar>& chars);

  /// Tombstones [pos, pos+len).
  Result<EditResult> DeleteRange(UserId user, DocumentId doc, size_t pos,
                                 size_t len);

  /// Tombstones specific characters (undo support). Characters already
  /// deleted are skipped.
  Result<EditResult> DeleteChars(UserId user, DocumentId doc,
                                 const std::vector<CharId>& ids);

  /// Brings tombstoned characters back to life at their original list
  /// position (undo of a delete).
  Result<EditResult> ResurrectChars(UserId user, DocumentId doc,
                                    const std::vector<CharId>& ids);

  // --- reads (MVCC snapshot path when enabled) ---

  /// The latest published snapshot of `doc`: an immutable view of the last
  /// committed version. The fast path is one atomic shared_ptr load — no
  /// LockManager acquisition, no handle mutex; only a cold cache (first
  /// read after open/eviction) materializes under the handle mutex.
  /// Fails kFailedPrecondition when snapshots are disabled.
  Result<SnapshotRef> AcquireSnapshot(DocumentId doc)
      TENDAX_EXCLUDES(handles_mu_);

  Result<std::string> Text(DocumentId doc);
  Result<std::string> TextRange(DocumentId doc, size_t pos, size_t len);
  /// Reconstructs the text as of `version` from the snapshot chain
  /// (tombstones included). Versions below the document's purge floor —
  /// i.e. versions whose tombstones `PurgeHistory` physically deleted —
  /// fail with kFailedPrecondition instead of returning silently wrong
  /// text.
  Result<std::string> TextAtVersion(DocumentId doc, Version version);
  Result<uint64_t> Length(DocumentId doc);
  Result<Version> CurrentVersion(DocumentId doc);
  Result<CharInfo> CharAt(DocumentId doc, size_t pos);
  Result<CharInfo> GetChar(DocumentId doc, CharId id);
  /// Character metadata for [pos, pos+len) — feeds lineage and mining.
  Result<std::vector<CharInfo>> RangeInfo(DocumentId doc, size_t pos,
                                          size_t len);

  /// Every character record of the document in chain order, *including*
  /// tombstones — the raw material for version diffs and history purging.
  Result<std::vector<CharInfo>> FullChain(DocumentId doc);

  /// Physically deletes tombstones whose deletion version is <= `before`,
  /// unlinking them from the chain in one transaction. This irreversibly
  /// truncates history: the document's purge floor rises to the highest
  /// deletion version purged, `TextAtVersion` below the floor fails typed,
  /// and undo of the covered deletes becomes impossible. Snapshots already
  /// held by readers are untouched (copy-on-write) and keep reading their
  /// pre-purge history. Returns the number of records purged (the
  /// storage-reclamation ablation of DESIGN.md).
  Result<uint64_t> PurgeHistory(UserId user, DocumentId doc, Version before);

  /// Drops the in-memory cache for `doc` (it reloads on next access).
  void InvalidateHandle(DocumentId doc) TENDAX_EXCLUDES(handles_mu_);

  /// Cache eviction: drops the handle *and* its published snapshot.
  /// Readers still holding a `SnapshotRef` keep it alive by refcount; the
  /// next read reloads from storage. Returns false if nothing was cached.
  bool EvictDocument(DocumentId doc) TENDAX_EXCLUDES(handles_mu_);

  /// Toggles the MVCC read path (default on). Disabling routes every read
  /// back through the legacy handle-mutex path and Copy back to a shared
  /// document lock — the ablation baseline for bench_mvcc. Toggling clears
  /// published snapshots so a re-enable never serves stale state.
  void SetSnapshotsEnabled(bool on) TENDAX_EXCLUDES(handles_mu_);
  bool snapshots_enabled() const {
    return snapshots_enabled_.load(std::memory_order_relaxed);
  }

  /// Checks every loaded document's in-memory chain against its tree
  /// invariants (`CheckChainTree`) and, when the cache is at the stored
  /// version, its live count against the document record's. Takes each
  /// document's shared lock, so no edit is half applied. kCorruption names
  /// the document and the first breach.
  Status CheckIntegrity() TENDAX_EXCLUDES(handles_mu_);

  /// Recomputes mvcc.live_snapshots / mvcc.oldest_snapshot_age_micros;
  /// the stats scrape calls this so kStats folds the gauges in.
  void RefreshMvccGauges();
  /// The reclamation tracker (test/introspection hook; never null).
  const std::shared_ptr<SnapshotTracker>& snapshot_tracker() const {
    return tracker_;
  }

  Database* db() { return db_; }

 private:
  struct DocHandle {
    // Outer lock of the edit path (rank kRankDocument): held across the
    // whole editing transaction — heap tables, indexes, txn manager, WAL
    // all rank higher. Instances are peers; cross-document nesting (e.g. a
    // paste reading its copy source) generates no lock-order edge.
    Mutex mu{"textstore.doc", lockorder::kRankDocument};
    bool loaded TENDAX_GUARDED_BY(mu) = false;
    RecordId doc_rid TENDAX_GUARDED_BY(mu);
    DocumentId id TENDAX_GUARDED_BY(mu);
    std::string name TENDAX_GUARDED_BY(mu);
    UserId creator TENDAX_GUARDED_BY(mu);
    Timestamp created TENDAX_GUARDED_BY(mu) = 0;
    std::string state TENDAX_GUARDED_BY(mu);
    Version version TENDAX_GUARDED_BY(mu) = 0;
    // Versions strictly below this are unreadable (purged history);
    // persisted in the documents table, raised only by PurgeHistory.
    Version purge_floor TENDAX_GUARDED_BY(mu) = 0;
    // head/tail: physical first/last char id (may be tombstones).
    uint64_t head TENDAX_GUARDED_BY(mu) = 0;
    uint64_t tail TENDAX_GUARDED_BY(mu) = 0;
    // Full chain including tombstones; published snapshots share its
    // tree nodes copy-on-write.
    VersionedCharList chain TENDAX_GUARDED_BY(mu);
    std::unordered_map<uint64_t, RecordId> char_rids
        TENDAX_GUARDED_BY(mu);  // all chars
    // The MVCC publication slot. The slot has its own leaf mutex so the
    // read fast path copies the shared_ptr without touching `mu` (or any
    // LockManager state) — the critical section is a refcount bump, never
    // materialization. Not std::atomic<shared_ptr>: libstdc++ implements
    // that with an untagged lock-bit protocol TSAN cannot model, and the
    // race checks in `ctest -L mvcc` under -fsanitize=thread are part of
    // this subsystem's contract. Stores (commit publication, cold
    // materialization, eviction) are version-monotone — an
    // early-lock-released commit that finishes its flush late never
    // overwrites a newer snapshot.
    Mutex snapshot_mu{"textstore.snapshot", lockorder::kRankLeaf};
    SnapshotRef snapshot TENDAX_GUARDED_BY(snapshot_mu);
    // The highest version the slot ever held. Eviction and stale-cache
    // drops empty the slot but keep this, so the post-commit install of a
    // slow committer cannot put an older version back where a reader that
    // already saw a newer one (through this handle object) would find it.
    Version published TENDAX_GUARDED_BY(snapshot_mu) = 0;
    // Snapshot prepared by an in-flight edit (under `mu`, pre-commit);
    // moved into `snapshot` by the commit listener / post-commit install,
    // discarded on abort via handle invalidation.
    SnapshotRef pending_snapshot TENDAX_GUARDED_BY(mu);
  };

  using EditBody =
      std::function<Status(Transaction*, DocHandle*, EditResult*)>;

  /// Registry lookup only — creates the slot but does not load or lock it.
  std::shared_ptr<DocHandle> HandleSlot(DocumentId doc)
      TENDAX_EXCLUDES(handles_mu_);
  Result<std::shared_ptr<DocHandle>> Handle(DocumentId doc)
      TENDAX_EXCLUDES(handles_mu_);
  Status LoadHandle(DocHandle* handle, DocumentId doc)
      TENDAX_REQUIRES(handle->mu);
  /// Pins an edit's base to the committed document header; caller holds the
  /// document X lock. Eviction racing an in-flight edit can leave two
  /// handle objects for one document, and a commit that went through the
  /// detached one leaves this handle's cache — including `doc_rid`, which
  /// record updates move — behind the stored state. One header read per
  /// edit detects that and reloads.
  Status EnsureFreshBase(DocHandle* handle, DocumentId doc)
      TENDAX_REQUIRES(handle->mu);
  /// Runs `body` inside a transaction holding the document's X lock, with
  /// the handle's mutex held; bumps the document version and emits `event`.
  /// After a successful commit the prepared snapshot is published.
  Result<EditResult> RunEdit(UserId user, DocumentId doc, ChangeKind kind,
                             const EditBody& body);

  /// Materializes an immutable snapshot of the handle's current state;
  /// O(1): it shares the chain tree's root.
  SnapshotRef PrepareLockedSnapshot(DocHandle* handle)
      TENDAX_REQUIRES(handle->mu);
  /// Stores `snap` into the publication slot unless the slot holds, or
  /// ever held, a newer version.
  static void Publish(DocHandle* handle, const SnapshotRef& snap)
      TENDAX_REQUIRES(handle->snapshot_mu);
  /// Version-monotone store into the publication slot.
  void InstallSnapshot(DocHandle* handle, const SnapshotRef& snap)
      TENDAX_EXCLUDES(handle->mu);
  /// Commit listener: publishes the pending snapshot of every document a
  /// just-committed transaction edited (runs before later-registered
  /// listeners such as the search index, which therefore see fresh
  /// snapshots).
  void OnCommitted(const ChangeBatch& events) TENDAX_EXCLUDES(handles_mu_);

  Result<Record> ReadCharRecord(DocHandle* handle, uint64_t char_id)
      TENDAX_REQUIRES(handle->mu);
  Status UpdateCharRecord(Transaction* txn, DocHandle* handle,
                          uint64_t char_id, const Record& record)
      TENDAX_REQUIRES(handle->mu);
  Status WriteDocRecord(Transaction* txn, DocHandle* handle)
      TENDAX_REQUIRES(handle->mu);
  /// DeleteChars (deleted) / ResurrectChars (!deleted): records first,
  /// then the chain cache in one pass.
  Result<EditResult> SetCharsDeleted(UserId user, DocumentId doc,
                                     const std::vector<CharId>& ids,
                                     bool deleted);
  /// Core insertion: links `chars` after the live character at pos-1.
  Status InsertCharsAt(Transaction* txn, DocHandle* handle, UserId user,
                       size_t pos, const std::vector<PasteChar>& chars,
                       Version new_version, EditResult* result)
      TENDAX_REQUIRES(handle->mu);

  Database* const db_;
  HeapTable* chars_table_ = nullptr;
  HeapTable* docs_table_ = nullptr;
  BPlusTree* char_index_ = nullptr;  // char_id -> rid
  BPlusTree* doc_index_ = nullptr;   // doc_id -> rid

  std::atomic<bool> snapshots_enabled_{true};
  std::shared_ptr<SnapshotTracker> tracker_;
  Counter* m_evictions_ = nullptr;

  // Registry of handles only; always released before a handle's own mu.
  Mutex handles_mu_{"textstore.handles", lockorder::kRankDocument};
  std::unordered_map<uint64_t, std::shared_ptr<DocHandle>> handles_
      TENDAX_GUARDED_BY(handles_mu_);

  std::atomic<uint64_t> next_char_id_{1};
  std::atomic<uint64_t> next_doc_id_{1};
};

}  // namespace tendax

#endif  // TENDAX_TEXT_TEXT_STORE_H_
