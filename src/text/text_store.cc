#include "text/text_store.h"

#include <algorithm>

#include "text/utf8.h"
#include "util/logging.h"

namespace tendax {

namespace {

// Column positions in the characters table.
enum CharCol : size_t {
  kCcId = 0,
  kCcDoc,
  kCcCp,
  kCcOrigin,
  kCcAuthor,
  kCcCreated,
  kCcInsVer,
  kCcDelVer,
  kCcDeletedBy,
  kCcSrcDoc,
  kCcSrcChar,
  kCcSrcExt,
};

// Column positions in the documents table.
enum DocCol : size_t {
  kDcId = 0,
  kDcName,
  kDcCreator,
  kDcCreated,
  kDcState,
  kDcVersion,
  kDcLive,
  kDcPurgeFloor,
};

Schema CharsSchema() {
  return Schema({{"char_id", ColumnType::kUint64},
                 {"doc_id", ColumnType::kUint64},
                 {"codepoint", ColumnType::kUint64},
                 {"origin", ColumnType::kUint64},
                 {"author", ColumnType::kUint64},
                 {"created_at", ColumnType::kUint64},
                 {"inserted_version", ColumnType::kUint64},
                 {"deleted_version", ColumnType::kUint64},
                 {"deleted_by", ColumnType::kUint64},
                 {"src_doc", ColumnType::kUint64},
                 {"src_char", ColumnType::kUint64},
                 {"src_external", ColumnType::kString}});
}

Schema DocsSchema() {
  return Schema({{"doc_id", ColumnType::kUint64},
                 {"name", ColumnType::kString},
                 {"creator", ColumnType::kUint64},
                 {"created_at", ColumnType::kUint64},
                 {"state", ColumnType::kString},
                 {"version", ColumnType::kUint64},
                 {"live_count", ColumnType::kUint64},
                 {"purge_floor", ColumnType::kUint64}});
}

CharInfo CharInfoFromRecord(const Record& rec) {
  CharInfo info;
  info.id = CharId(rec.GetUint(kCcId));
  info.doc = DocumentId(rec.GetUint(kCcDoc));
  info.cp = static_cast<uint32_t>(rec.GetUint(kCcCp));
  info.author = UserId(rec.GetUint(kCcAuthor));
  info.created = rec.GetUint(kCcCreated);
  info.inserted_version = rec.GetUint(kCcInsVer);
  info.deleted_version = rec.GetUint(kCcDelVer);
  info.deleted_by = UserId(rec.GetUint(kCcDeletedBy));
  info.src_doc = DocumentId(rec.GetUint(kCcSrcDoc));
  info.src_char = CharId(rec.GetUint(kCcSrcChar));
  info.src_external = rec.GetString(kCcSrcExt);
  return info;
}

/// The chain's provenance for a char: null without one, `prev` when equal
/// to it (so a run from one source shares a single copy).
std::shared_ptr<const CharSource> SourceOf(
    uint64_t doc, uint64_t char_id, const std::string& external,
    const std::shared_ptr<const CharSource>& prev) {
  if (doc == 0 && char_id == 0 && external.empty()) return nullptr;
  if (prev != nullptr && prev->doc == doc && prev->char_id == char_id &&
      prev->external == external) {
    return prev;
  }
  return std::make_shared<const CharSource>(CharSource{doc, char_id, external});
}

/// Copy's capture of `c` from document `doc`. Provenance points at the
/// *original* character: if `c` was itself pasted, keep its source;
/// otherwise `c` is the source.
PasteChar CopyOf(const ChainChar& c, DocumentId doc) {
  PasteChar pc;
  pc.cp = c.cp;
  if (c.source != nullptr && c.source->doc != 0) {
    pc.src_doc = DocumentId(c.source->doc);
    pc.src_char = CharId(c.source->char_id);
  } else {
    pc.src_doc = doc;
    pc.src_char = CharId(c.id);
  }
  if (c.source != nullptr) pc.src_external = c.source->external;
  return pc;
}

Status PurgeFloorError(DocumentId doc, Version version, Version floor) {
  return Status::FailedPrecondition(
      "version " + std::to_string(version) + " predates the purge floor " +
      std::to_string(floor) + " of document " + doc.ToString() +
      ": its tombstones were physically purged");
}

/// Adds (`add`) or removes the index entry (key, packed rid), undone if
/// `txn` rolls back: indexes are not logged.
Status IndexEntry(Transaction* txn, BPlusTree* index, uint64_t key,
                  uint64_t packed, bool add) {
  TENDAX_RETURN_IF_ERROR(add ? index->Insert(key, packed)
                             : index->Delete(key, packed));
  txn->AddRollbackAction([=] {
    (void)(add ? index->Delete(key, packed) : index->Insert(key, packed));
  });
  return Status::OK();
}

/// Updates the record at `rid`; if the update moved it, re-points its entry
/// under `key` in `index`. Returns where the record now is.
Result<RecordId> UpdateIndexed(Transaction* txn, HeapTable* table,
                               BPlusTree* index, uint64_t key, RecordId rid,
                               const Record& rec) {
  auto moved = table->Update(txn, rid, rec);
  if (!moved.ok() || moved->Pack() == rid.Pack()) return moved;
  TENDAX_RETURN_IF_ERROR(IndexEntry(txn, index, key, rid.Pack(), false));
  TENDAX_RETURN_IF_ERROR(IndexEntry(txn, index, key, moved->Pack(), true));
  return moved;
}

/// The one rule for chain order. Each char record stores its origin: the
/// char it was inserted directly after, 0 for the document start. The
/// chain is a preorder walk of the tree those origins form, each node's
/// children in descending id. Ids are allocated under the document X lock,
/// so a new char has the largest id in its document and the walk puts it
/// directly after its origin, where the insert put it. Returns the indexes
/// of `chars` in chain order (`origins[i]` belongs to `chars[i]`); a
/// duplicate id, an origin outside the document or a cycle is kCorruption.
Result<std::vector<size_t>> OriginOrder(const std::vector<ChainChar>& chars,
                                        const std::vector<uint64_t>& origins) {
  const size_t n = chars.size();
  auto id = [&](size_t i) { return chars[i].id; };
  std::vector<size_t> by_id(n);
  for (size_t i = 0; i < n; ++i) by_id[i] = i;
  std::sort(by_id.begin(), by_id.end(),
            [&](size_t a, size_t b) { return id(a) > id(b); });
  std::vector<std::vector<size_t>> kids(n + 1);  // kids[n]: the start's
  for (size_t k = 0; k < n; ++k) {
    const size_t i = by_id[k];
    if (k > 0 && id(by_id[k - 1]) == id(i)) {
      return Status::Corruption("two records of char " + std::to_string(id(i)));
    }
    auto it = std::lower_bound(
        by_id.begin(), by_id.end(), origins[i],
        [&](size_t j, uint64_t origin) { return id(j) > origin; });
    if (origins[i] != 0 && (it == by_id.end() || id(*it) != origins[i])) {
      return Status::Corruption("char " + std::to_string(id(i)) +
                                "'s origin " + std::to_string(origins[i]) +
                                " is not in the document");
    }
    kids[origins[i] == 0 ? n : *it].push_back(i);
  }
  std::vector<size_t> order, stack(kids[n].rbegin(), kids[n].rend());
  order.reserve(n);
  while (!stack.empty()) {
    const size_t i = stack.back();
    stack.pop_back();
    order.push_back(i);
    stack.insert(stack.end(), kids[i].rbegin(), kids[i].rend());
  }
  if (order.size() != n) {
    return Status::Corruption("an origin cycle cuts chars off the start");
  }
  return order;
}

}  // namespace

TextStore::TextStore(Database* db)
    : db_(db),
      tracker_(std::make_shared<SnapshotTracker>(db->clock_shared(),
                                                 db->metrics_shared())) {
  if (db_->metrics() != nullptr) {
    m_evictions_ = db_->metrics()->counter("mvcc.evictions");
  }
}

Status TextStore::Init() {
  auto chars = db_->EnsureTable("tendax_chars", CharsSchema());
  if (!chars.ok()) return chars.status();
  chars_table_ = *chars;
  auto docs = db_->EnsureTable("tendax_docs", DocsSchema());
  if (!docs.ok()) return docs.status();
  docs_table_ = *docs;

  auto doc_chars = db_->CreateIndex("tendax_doc_chars");
  if (!doc_chars.ok()) return doc_chars.status();
  doc_chars_ = *doc_chars;
  auto doc_index = db_->CreateIndex("tendax_doc_rid");
  if (!doc_index.ok()) return doc_index.status();
  doc_index_ = *doc_index;

  // Rebuild derived state (indexes are not persisted).
  uint64_t max_char = 0, max_doc = 0;
  Status index_status = Status::OK();
  TENDAX_RETURN_IF_ERROR(
      chars_table_->Scan([&](RecordId rid, const Record& rec) {
        max_char = std::max(max_char, rec.GetUint(kCcId));
        Status st = doc_chars_->Insert(rec.GetUint(kCcDoc), rid.Pack());
        if (!st.ok()) {
          index_status = st;
          return false;
        }
        return true;
      }));
  TENDAX_RETURN_IF_ERROR(index_status);
  TENDAX_RETURN_IF_ERROR(
      docs_table_->Scan([&](RecordId rid, const Record& rec) {
        uint64_t id = rec.GetUint(kDcId);
        max_doc = std::max(max_doc, id);
        Status st = doc_index_->Insert(id, rid.Pack());
        if (!st.ok()) {
          index_status = st;
          return false;
        }
        return true;
      }));
  TENDAX_RETURN_IF_ERROR(index_status);
  next_char_id_ = max_char + 1;
  next_doc_id_ = max_doc + 1;

  // Snapshot publication rides the commit: this listener runs before any
  // listener registered later (sessions, search), so those observe the
  // fresh snapshot of every document the transaction edited.
  db_->txns()->AddCommitListener(
      [this](TxnId, UserId, const ChangeBatch& events) {
        OnCommitted(events);
      });
  return Status::OK();
}

Result<DocumentId> TextStore::CreateDocument(UserId user,
                                             const std::string& name) {
  DocumentId doc(next_doc_id_.fetch_add(1));
  Timestamp now = db_->clock()->NowMicros();
  Status st = db_->txns()->RunInTxn(user, [&](Transaction* txn) -> Status {
    TENDAX_RETURN_IF_ERROR(db_->locks()->Acquire(
        txn->id(), MakeResource(ResourceKind::kDocument, doc.value),
        LockMode::kX));
    Record rec({doc.value, name, user.value, uint64_t{now},
                std::string("draft"), uint64_t{0}, uint64_t{0}, uint64_t{0}});
    auto rid = docs_table_->Insert(txn, rec);
    if (!rid.ok()) return rid.status();
    TENDAX_RETURN_IF_ERROR(
        IndexEntry(txn, doc_index_, doc.value, rid->Pack(), true));
    ChangeEvent ev;
    ev.kind = ChangeKind::kDocumentCreated;
    ev.doc = doc;
    ev.user = user;
    ev.at = now;
    ev.detail = name;
    txn->AddEvent(ev);
    return Status::OK();
  });
  if (!st.ok()) return st;
  return doc;
}

std::shared_ptr<TextStore::DocHandle> TextStore::HandleSlot(DocumentId doc) {
  MutexLock lock(handles_mu_);
  auto& slot = handles_[doc.value];
  if (!slot) slot = std::make_shared<DocHandle>();
  return slot;
}

Result<std::shared_ptr<TextStore::DocHandle>> TextStore::Handle(
    DocumentId doc) {
  std::shared_ptr<DocHandle> handle = HandleSlot(doc);
  MutexLock lock(handle->mu);
  if (!handle->loaded) {
    TENDAX_RETURN_IF_ERROR(LoadHandle(handle.get(), doc));
  }
  return handle;
}

Status TextStore::LoadHandle(DocHandle* handle, DocumentId doc) {
  auto rid_packed = doc_index_->GetFirst(doc.value);
  if (!rid_packed.ok()) {
    return Status::NotFound("document " + doc.ToString() + " does not exist");
  }
  RecordId doc_rid = RecordId::Unpack(*rid_packed);
  auto rec = docs_table_->Get(doc_rid);
  if (!rec.ok()) return rec.status();

  handle->doc_rid = doc_rid;
  handle->id = doc;
  handle->name = rec->GetString(kDcName);
  handle->creator = UserId(rec->GetUint(kDcCreator));
  handle->created = rec->GetUint(kDcCreated);
  handle->state = rec->GetString(kDcState);
  handle->version = rec->GetUint(kDcVersion);
  handle->purge_floor = rec->GetUint(kDcPurgeFloor);
  handle->loaded = false;
  handle->char_rids.clear();
  auto stored = ReadChain(doc);
  if (!stored.ok()) return stored.status();
  for (size_t i = 0; i < stored->chars.size(); ++i) {
    handle->char_rids[stored->chars[i].id] = stored->rids[i];
  }
  handle->chain.Rebuild(stored->chars);
  handle->loaded = true;
  return Status::OK();
}

Result<TextStore::StoredChain> TextStore::ReadChain(DocumentId doc) {
  std::vector<RecordId> rids;
  TENDAX_RETURN_IF_ERROR(doc_chars_->ScanRange(
      doc.value, doc.value, [&](uint64_t, uint64_t packed) {
        rids.push_back(RecordId::Unpack(packed));
        return true;
      }));
  std::vector<ChainChar> chars(rids.size());
  std::vector<uint64_t> origins(rids.size());
  for (size_t i = 0; i < rids.size(); ++i) {
    auto rec = chars_table_->Get(rids[i]);
    if (!rec.ok()) return rec.status();
    ChainChar& c = chars[i];
    c.id = rec->GetUint(kCcId);
    origins[i] = rec->GetUint(kCcOrigin);
    c.cp = static_cast<uint32_t>(rec->GetUint(kCcCp));
    c.inserted = rec->GetUint(kCcInsVer);
    c.deleted = rec->GetUint(kCcDelVer);
    // Records of one paste sit next to each other in the heap, so they
    // share one provenance copy here as they do in the chain.
    c.source = SourceOf(rec->GetUint(kCcSrcDoc), rec->GetUint(kCcSrcChar),
                        rec->GetString(kCcSrcExt),
                        i > 0 ? chars[i - 1].source : nullptr);
  }
  auto order = OriginOrder(chars, origins);
  if (!order.ok()) return order.status();
  StoredChain out;
  out.chars.reserve(order->size());
  out.rids.reserve(order->size());
  for (size_t i : *order) {
    out.chars.push_back(std::move(chars[i]));
    out.rids.push_back(rids[i]);
  }
  return out;
}

Status TextStore::EnsureFreshBase(DocHandle* handle, DocumentId doc) {
  auto rid_packed = doc_index_->GetFirst(doc.value);
  if (!rid_packed.ok()) {
    return Status::NotFound("document " + doc.ToString() + " does not exist");
  }
  RecordId doc_rid = RecordId::Unpack(*rid_packed);
  auto rec = docs_table_->Get(doc_rid);
  if (!rec.ok()) return rec.status();
  if (handle->loaded && handle->doc_rid == doc_rid &&
      handle->version == rec->GetUint(kDcVersion)) {
    return Status::OK();
  }
  return LoadHandle(handle, doc);
}

void TextStore::InvalidateHandle(DocumentId doc) {
  MutexLock lock(handles_mu_);
  handles_.erase(doc.value);
}

bool TextStore::EvictDocument(DocumentId doc) {
  std::shared_ptr<DocHandle> handle;
  {
    MutexLock lock(handles_mu_);
    auto it = handles_.find(doc.value);
    if (it == handles_.end()) return false;
    handle = std::move(it->second);
    handles_.erase(it);
  }
  {
    MutexLock lock(handle->mu);
    handle->loaded = false;
    handle->pending_snapshot = nullptr;
    // Readers that already acquired the snapshot keep it alive by
    // refcount; this only drops the store's own reference.
    {
      MutexLock slot(handle->snapshot_mu);
      handle->snapshot = nullptr;
    }
    handle->chain.Clear();
    handle->char_rids.clear();
  }
  MetricAdd(m_evictions_);
  return true;
}

void TextStore::SetSnapshotsEnabled(bool on) {
  bool was = snapshots_enabled_.exchange(on, std::memory_order_relaxed);
  if (was == on) return;
  // Drop published state across the toggle so a re-enable can never serve
  // a snapshot that missed edits made while the path was disabled.
  std::vector<std::shared_ptr<DocHandle>> all;
  {
    MutexLock lock(handles_mu_);
    all.reserve(handles_.size());
    for (auto& [id, handle] : handles_) all.push_back(handle);
  }
  for (auto& handle : all) {
    MutexLock lock(handle->mu);
    handle->pending_snapshot = nullptr;
    MutexLock slot(handle->snapshot_mu);
    handle->snapshot = nullptr;
  }
}

void TextStore::RefreshMvccGauges() { tracker_->RefreshGauges(); }

Status TextStore::CheckIntegrity() {
  std::vector<std::pair<uint64_t, std::shared_ptr<DocHandle>>> all;
  {
    MutexLock lock(handles_mu_);
    all.assign(handles_.begin(), handles_.end());
  }
  for (auto& [id, handle] : all) {
    const DocumentId doc(id);
    Status st = db_->txns()->RunInTxn(
        UserId(0), [&](Transaction* txn) -> Status {
          TENDAX_RETURN_IF_ERROR(db_->locks()->Acquire(
              txn->id(), MakeResource(ResourceKind::kDocument, doc.value),
              LockMode::kS));
          MutexLock lock(handle->mu);
          if (!handle->loaded) return Status::OK();
          TENDAX_RETURN_IF_ERROR(CheckChainTree(handle->chain.root()));
          auto rid = doc_index_->GetFirst(doc.value);
          if (!rid.ok()) return rid.status();
          auto rec = docs_table_->Get(RecordId::Unpack(*rid));
          if (!rec.ok()) return rec.status();
          // A cache behind the stored version is stale, not corrupt: the
          // next edit or read reloads it.
          if (rec->GetUint(kDcVersion) != handle->version) return Status::OK();
          if (rec->GetUint(kDcLive) != handle->chain.live_size()) {
            return Status::Corruption("chain live count != document record's");
          }
          auto stored = ReadChain(doc);
          if (!stored.ok()) return stored.status();
          const std::vector<ChainChar> cached = handle->chain.Chars();
          auto same = [](const ChainChar& a, const ChainChar& b) {
            return a.id == b.id && a.cp == b.cp && a.inserted == b.inserted &&
                   a.deleted == b.deleted;
          };
          if (!std::equal(cached.begin(), cached.end(), stored->chars.begin(),
                          stored->chars.end(), same)) {
            return Status::Corruption("chain differs from the records' order");
          }
          return Status::OK();
        });
    if (!st.ok()) {
      return Status::FromCode(st.code(), "document " + doc.ToString() + ": " +
                                             st.message());
    }
  }
  return Status::OK();
}

DocumentInfo TextStore::InfoOf(DocHandle* handle) {
  DocumentInfo info;
  info.id = handle->id;
  info.name = handle->name;
  info.creator = handle->creator;
  info.created = handle->created;
  info.state = handle->state;
  info.version = handle->version;
  info.length = handle->chain.live_size();
  return info;
}

SnapshotRef TextStore::PrepareLockedSnapshot(DocHandle* handle) {
  return std::make_shared<CharListSnapshot>(
      InfoOf(handle), handle->purge_floor, handle->chain.Freeze(), tracker_);
}

void TextStore::Publish(DocHandle* handle, const SnapshotRef& snap) {
  if (snap->version() < handle->published) return;
  if (handle->snapshot == nullptr ||
      handle->snapshot->version() < snap->version()) {
    handle->snapshot = snap;
    handle->published = snap->version();
  }
}

void TextStore::InstallSnapshot(DocHandle* handle, const SnapshotRef& snap) {
  MutexLock lock(handle->mu);
  {
    MutexLock slot(handle->snapshot_mu);
    Publish(handle, snap);
  }
  if (handle->pending_snapshot == snap) handle->pending_snapshot = nullptr;
}

void TextStore::OnCommitted(const ChangeBatch& events) {
  if (!snapshots_enabled_.load(std::memory_order_relaxed)) return;
  for (const ChangeEvent& ev : events) {
    if (!ev.doc.valid() || ev.version == 0) continue;
    std::shared_ptr<DocHandle> handle;
    {
      MutexLock lock(handles_mu_);
      auto it = handles_.find(ev.doc.value);
      if (it == handles_.end()) continue;
      handle = it->second;
    }
    MutexLock lock(handle->mu);
    if (handle->pending_snapshot == nullptr ||
        handle->pending_snapshot->version() != ev.version) {
      // No matching pending edit: the commit went through a detached
      // handle object (eviction raced the edit). Drop whatever this —
      // the current — handle has cached so the next read or edit
      // re-materializes the committed state instead of serving a base
      // the commit already superseded.
      if (handle->loaded && handle->version < ev.version) {
        handle->loaded = false;
      }
      MutexLock slot(handle->snapshot_mu);
      if (handle->snapshot != nullptr &&
          handle->snapshot->version() < ev.version) {
        handle->snapshot = nullptr;
      }
      continue;
    }
    {
      MutexLock slot(handle->snapshot_mu);
      Publish(handle.get(), handle->pending_snapshot);
    }
    handle->pending_snapshot = nullptr;
  }
}

Result<SnapshotRef> TextStore::AcquireSnapshot(DocumentId doc) {
  if (!snapshots_enabled_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("mvcc snapshots are disabled");
  }
  std::shared_ptr<DocHandle> handle = HandleSlot(doc);
  SnapshotRef snap;
  {
    // Fast path: a refcount bump under the leaf slot mutex — no
    // LockManager, no handle mutex, no materialization.
    MutexLock slot(handle->snapshot_mu);
    snap = handle->snapshot;
  }
  if (snap == nullptr) {
    // Cold cache (first read after open / invalidation / eviction):
    // materialize under a shared document lock, once. The S lock is what
    // makes the rebuild read *committed* state: a writer applies its char
    // records before its durable commit releases the X lock, so a lock-free
    // reload here could capture a chain newer than the document header it
    // came with (or worse, a state that later aborts). This is the one
    // place the snapshot path touches the LockManager; every subsequent
    // read hits the published slot above.
    Status st = db_->txns()->RunInTxn(
        UserId(0), [&](Transaction* txn) -> Status {
          TENDAX_RETURN_IF_ERROR(db_->locks()->Acquire(
              txn->id(), MakeResource(ResourceKind::kDocument, doc.value),
              LockMode::kS));
          MutexLock lock(handle->mu);
          // A loaded cache may still be stale (a commit that went through
          // a detached handle) or torn (loaded by a lock-free path while
          // an edit was applying its records); pin it to the committed
          // header first.
          TENDAX_RETURN_IF_ERROR(EnsureFreshBase(handle.get(), doc));
          MutexLock slot(handle->snapshot_mu);
          if (handle->snapshot == nullptr) {
            Publish(handle.get(), PrepareLockedSnapshot(handle.get()));
          }
          snap = handle->snapshot;
          // Unreachable: under the S lock the stored header is at least
          // every version ever published.
          if (snap == nullptr) {
            return Status::Internal("snapshot slot below its high-water mark");
          }
          return Status::OK();
        });
    if (!st.ok()) return st;
  }
  tracker_->OnAcquire();
  return snap;
}

Result<Record> TextStore::ReadCharRecord(DocHandle* handle,
                                         uint64_t char_id) {
  auto it = handle->char_rids.find(char_id);
  if (it == handle->char_rids.end()) {
    return Status::NotFound("char " + std::to_string(char_id) +
                            " not in document");
  }
  return chars_table_->Get(it->second);
}

Status TextStore::UpdateCharRecord(Transaction* txn, DocHandle* handle,
                                   uint64_t char_id, const Record& record) {
  auto it = handle->char_rids.find(char_id);
  if (it == handle->char_rids.end()) {
    return Status::NotFound("char " + std::to_string(char_id) +
                            " not in document");
  }
  auto rid = UpdateIndexed(txn, chars_table_, doc_chars_, handle->id.value,
                           it->second, record);
  if (!rid.ok()) return rid.status();
  it->second = *rid;
  return Status::OK();
}

Status TextStore::WriteDocRecord(Transaction* txn, DocHandle* handle) {
  Record rec({handle->id.value, handle->name, handle->creator.value,
              uint64_t{handle->created}, handle->state,
              uint64_t{handle->version}, uint64_t{handle->chain.live_size()},
              uint64_t{handle->purge_floor}});
  auto rid = UpdateIndexed(txn, docs_table_, doc_index_, handle->id.value,
                           handle->doc_rid, rec);
  if (!rid.ok()) return rid.status();
  handle->doc_rid = *rid;
  return Status::OK();
}

Result<EditResult> TextStore::RunEdit(UserId user, DocumentId doc,
                                      ChangeKind kind, const EditBody& body) {
  // No load here: a load outside the document lock can capture another
  // edit's uncommitted records. EnsureFreshBase loads under the X lock.
  std::shared_ptr<DocHandle> handle = HandleSlot(doc);
  DocHandle* h = handle.get();

  EditResult result;
  bool cache_mutated = false;
  SnapshotRef prepared;
  Status st = db_->txns()->RunInTxn(user, [&](Transaction* txn) -> Status {
    prepared = nullptr;
    TENDAX_RETURN_IF_ERROR(db_->locks()->Acquire(
        txn->id(), MakeResource(ResourceKind::kDocument, doc.value),
        LockMode::kX));
    MutexLock lock(h->mu);
    TENDAX_RETURN_IF_ERROR(EnsureFreshBase(h, doc));
    result = EditResult{};
    Version new_version = h->version + 1;
    result.version = new_version;
    cache_mutated = true;  // the body may mutate the cache at any point
    Status body_status = body(txn, h, &result);
    if (!body_status.ok()) {
      // The DB side is rolled back by the abort; the cache may have been
      // mutated by the body — drop it so it reloads from the database.
      h->loaded = false;
      return body_status;
    }
    h->version = new_version;
    TENDAX_RETURN_IF_ERROR(WriteDocRecord(txn, h));

    ChangeEvent ev;
    ev.kind = kind;
    ev.doc = doc;
    ev.user = user;
    ev.version = new_version;
    ev.at = db_->clock()->NowMicros();
    if (!result.chars.empty()) ev.anchor = result.chars.front();
    ev.count = result.chars.size();
    txn->AddEvent(ev);

    // Prepare — but do not publish — the post-edit snapshot. The commit
    // listener installs it the instant the transaction durably commits;
    // an abort discards it with the invalidated handle.
    if (snapshots_enabled_.load(std::memory_order_relaxed)) {
      prepared = PrepareLockedSnapshot(h);
      h->pending_snapshot = prepared;
    }
    return Status::OK();
  });
  if (!st.ok()) {
    if (cache_mutated) InvalidateHandle(doc);
    return st;
  }
  // Belt and braces: the commit listener already published `prepared` in
  // the common case; this covers commits whose event was not matched (the
  // store is monotone, so a double install is a no-op).
  if (prepared != nullptr) InstallSnapshot(h, prepared);
  return result;
}

Status TextStore::InsertCharsAt(Transaction* txn, DocHandle* handle,
                                UserId user, size_t pos,
                                const std::vector<PasteChar>& chars,
                                Version new_version, EditResult* result) {
  if (pos > handle->chain.live_size()) {
    return Status::OutOfRange("insert position " + std::to_string(pos) +
                              " beyond document length " +
                              std::to_string(handle->chain.live_size()));
  }
  if (chars.empty()) return Status::OK();
  const Timestamp now = db_->clock()->NowMicros();

  // The run goes directly after the live char at pos-1 (the document start
  // for pos == 0): that char is the first new char's origin, and each next
  // one's origin is the char before it.
  uint64_t origin = pos > 0 ? handle->chain.LiveAt(pos - 1).id : 0;
  std::vector<ChainChar> run;
  run.reserve(chars.size());
  for (const PasteChar& pc : chars) {
    const uint64_t id = next_char_id_.fetch_add(1);
    Record rec({id, handle->id.value, uint64_t{pc.cp}, origin, user.value,
                uint64_t{now}, uint64_t{new_version}, uint64_t{0}, uint64_t{0},
                pc.src_doc.value, pc.src_char.value, pc.src_external});
    auto rid = chars_table_->Insert(txn, rec);
    if (!rid.ok()) return rid.status();
    handle->char_rids[id] = *rid;
    TENDAX_RETURN_IF_ERROR(
        IndexEntry(txn, doc_chars_, handle->id.value, rid->Pack(), true));
    run.push_back(ChainChar{{id, new_version, 0, pc.cp},
                            SourceOf(pc.src_doc.value, pc.src_char.value,
                                     pc.src_external,
                                     run.empty() ? nullptr
                                                 : run.back().source)});
    result->chars.push_back(CharId(id));
    origin = id;
  }
  handle->chain.InsertRun(pos, run);
  return Status::OK();
}

Result<EditResult> TextStore::InsertText(UserId user, DocumentId doc,
                                         size_t pos, const std::string& utf8,
                                         const std::string& external_source) {
  std::vector<PasteChar> chars;
  for (uint32_t cp : DecodeUtf8(utf8)) {
    chars.push_back(PasteChar{cp, {}, {}, external_source});
  }
  return Paste(user, doc, pos, chars);
}

Result<std::vector<PasteChar>> TextStore::Copy(UserId user, DocumentId doc,
                                               size_t pos, size_t len) {
  std::vector<ChainChar> range;
  Status st;
  if (snapshots_enabled_.load(std::memory_order_relaxed)) {
    auto snap = AcquireSnapshot(doc);
    if (!snap.ok()) return snap.status();
    // The snapshot is immutable, so no locks are needed for stability; the
    // snapshot-read transaction keeps the op inside the txn framework
    // (accounting, uniform call shape) without ever blocking on a writer.
    // LiveRange checks the range.
    st = db_->txns()->RunSnapshotRead(user, [&](Transaction*) -> Status {
      auto live = (*snap)->LiveRange(pos, len);
      if (!live.ok()) return live.status();
      range = std::move(*live);
      return Status::OK();
    });
  } else {
    // Legacy (snapshots disabled): shared lock + handle mutex.
    auto handle = Handle(doc);
    if (!handle.ok()) return handle.status();
    DocHandle* h = handle->get();
    st = db_->txns()->RunInTxn(user, [&](Transaction* txn) -> Status {
      // Shared lock: copying reads a stable snapshot of the source range.
      TENDAX_RETURN_IF_ERROR(db_->locks()->Acquire(
          txn->id(), MakeResource(ResourceKind::kDocument, doc.value),
          LockMode::kS));
      MutexLock lock(h->mu);
      if (!h->loaded) TENDAX_RETURN_IF_ERROR(LoadHandle(h, doc));
      const size_t size = h->chain.live_size();
      if (len > size || pos > size - len) {
        return Status::OutOfRange("copy range beyond document length");
      }
      range = h->chain.LiveRange(pos, len);
      return Status::OK();
    });
  }
  if (!st.ok()) return st;
  std::vector<PasteChar> out;
  out.reserve(range.size());
  for (const ChainChar& c : range) out.push_back(CopyOf(c, doc));
  return out;
}

Result<EditResult> TextStore::Paste(UserId user, DocumentId doc, size_t pos,
                                    const std::vector<PasteChar>& chars) {
  return RunEdit(user, doc, ChangeKind::kTextInserted,
                 [&](Transaction* txn, DocHandle* h, EditResult* out) {
                   return InsertCharsAt(txn, h, user, pos, chars,
                                        out->version, out);
                 });
}

Result<EditResult> TextStore::DeleteRange(UserId user, DocumentId doc,
                                          size_t pos, size_t len) {
  return RunEdit(
      user, doc, ChangeKind::kTextDeleted,
      [&](Transaction* txn, DocHandle* h, EditResult* out) -> Status {
        const size_t size = h->chain.live_size();
        if (len > size || pos > size - len) {
          return Status::OutOfRange("delete range beyond document length");
        }
        for (const ChainChar& c : h->chain.LiveRange(pos, len)) {
          auto rec = ReadCharRecord(h, c.id);
          if (!rec.ok()) return rec.status();
          rec->value(kCcDelVer) = uint64_t{out->version};
          rec->value(kCcDeletedBy) = user.value;
          TENDAX_RETURN_IF_ERROR(UpdateCharRecord(txn, h, c.id, *rec));
          out->chars.push_back(CharId(c.id));
        }
        h->chain.TombstoneRange(pos, len, out->version);
        return Status::OK();
      });
}

Result<EditResult> TextStore::SetCharsDeleted(UserId user, DocumentId doc,
                                              const std::vector<CharId>& ids,
                                              bool deleted) {
  return RunEdit(
      user, doc, deleted ? ChangeKind::kTextDeleted : ChangeKind::kTextInserted,
      [&](Transaction* txn, DocHandle* h, EditResult* out) -> Status {
        const Version version = deleted ? out->version : 0;
        std::vector<uint64_t> changed;
        for (CharId id : ids) {
          auto rec = ReadCharRecord(h, id.value);
          if (!rec.ok()) return rec.status();
          if ((rec->GetUint(kCcDelVer) == 0) != deleted) continue;  // no-op
          rec->value(kCcDelVer) = uint64_t{version};
          rec->value(kCcDeletedBy) = deleted ? user.value : uint64_t{0};
          TENDAX_RETURN_IF_ERROR(UpdateCharRecord(txn, h, id.value, *rec));
          changed.push_back(id.value);
          out->chars.push_back(id);
        }
        // Tombstones never leave the chain, so flipping them in place
        // moves no position: one pass over the affected leaves. A
        // mismatch fails the edit, and the abort reloads the cache.
        if (h->chain.SetDeleted(changed, version) != changed.size()) {
          return Status::Internal("char chain cache out of sync");
        }
        return Status::OK();
      });
}

Result<EditResult> TextStore::DeleteChars(UserId user, DocumentId doc,
                                          const std::vector<CharId>& ids) {
  return SetCharsDeleted(user, doc, ids, true);
}

Result<EditResult> TextStore::ResurrectChars(UserId user, DocumentId doc,
                                             const std::vector<CharId>& ids) {
  return SetCharsDeleted(user, doc, ids, false);
}

Result<FrozenChain> TextStore::FreezeChain(DocumentId doc) {
  if (snapshots_enabled_.load(std::memory_order_relaxed)) {
    auto snap = AcquireSnapshot(doc);
    if (!snap.ok()) return snap.status();
    return FrozenChain{(*snap)->info(), (*snap)->tree()};
  }
  auto handle = Handle(doc);
  if (!handle.ok()) return handle.status();
  DocHandle* h = handle->get();
  MutexLock lock(h->mu);
  return FrozenChain{InfoOf(h), h->chain.Freeze()};
}

Result<std::string> TextStore::Text(DocumentId doc) {
  if (snapshots_enabled_.load(std::memory_order_relaxed)) {
    auto snap = AcquireSnapshot(doc);
    if (!snap.ok()) return snap.status();
    return (*snap)->Text();
  }
  auto handle = Handle(doc);
  if (!handle.ok()) return handle.status();
  MutexLock lock((*handle)->mu);
  return (*handle)->chain.Text();
}

Result<std::string> TextStore::TextRange(DocumentId doc, size_t pos,
                                         size_t len) {
  if (snapshots_enabled_.load(std::memory_order_relaxed)) {
    auto snap = AcquireSnapshot(doc);
    if (!snap.ok()) return snap.status();
    return (*snap)->TextRange(pos, len);
  }
  auto handle = Handle(doc);
  if (!handle.ok()) return handle.status();
  MutexLock lock((*handle)->mu);
  const size_t size = (*handle)->chain.live_size();
  if (len > size || pos > size - len) {
    return Status::OutOfRange("text range beyond document length");
  }
  return (*handle)->chain.TextRange(pos, len);
}

Result<std::string> TextStore::TextAtVersion(DocumentId doc,
                                             Version version) {
  if (snapshots_enabled_.load(std::memory_order_relaxed)) {
    auto snap = AcquireSnapshot(doc);
    if (!snap.ok()) return snap.status();
    return (*snap)->TextAtVersion(version);
  }
  auto handle = Handle(doc);
  if (!handle.ok()) return handle.status();
  DocHandle* h = handle->get();
  MutexLock lock(h->mu);
  if (version < h->purge_floor) {
    return PurgeFloorError(doc, version, h->purge_floor);
  }
  return h->chain.TextAtVersion(version);
}

Result<uint64_t> TextStore::Length(DocumentId doc) {
  if (snapshots_enabled_.load(std::memory_order_relaxed)) {
    auto snap = AcquireSnapshot(doc);
    if (!snap.ok()) return snap.status();
    return (*snap)->length();
  }
  auto handle = Handle(doc);
  if (!handle.ok()) return handle.status();
  MutexLock lock((*handle)->mu);
  return static_cast<uint64_t>((*handle)->chain.live_size());
}

Result<Version> TextStore::CurrentVersion(DocumentId doc) {
  if (snapshots_enabled_.load(std::memory_order_relaxed)) {
    auto snap = AcquireSnapshot(doc);
    if (!snap.ok()) return snap.status();
    return (*snap)->version();
  }
  auto handle = Handle(doc);
  if (!handle.ok()) return handle.status();
  MutexLock lock((*handle)->mu);
  return (*handle)->version;
}

Result<CharInfo> TextStore::CharAt(DocumentId doc, size_t pos) {
  auto handle = Handle(doc);
  if (!handle.ok()) return handle.status();
  DocHandle* h = handle->get();
  MutexLock lock(h->mu);
  if (pos >= h->chain.live_size()) {
    return Status::OutOfRange("position beyond document length");
  }
  auto rec = ReadCharRecord(h, h->chain.LiveAt(pos).id);
  if (!rec.ok()) return rec.status();
  return CharInfoFromRecord(*rec);
}

Result<CharInfo> TextStore::GetChar(DocumentId doc, CharId id) {
  auto handle = Handle(doc);
  if (!handle.ok()) return handle.status();
  DocHandle* h = handle->get();
  MutexLock lock(h->mu);
  auto rec = ReadCharRecord(h, id.value);
  if (!rec.ok()) return rec.status();
  return CharInfoFromRecord(*rec);
}

Result<std::vector<CharInfo>> TextStore::RangeInfo(DocumentId doc, size_t pos,
                                                   size_t len) {
  auto handle = Handle(doc);
  if (!handle.ok()) return handle.status();
  DocHandle* h = handle->get();
  MutexLock lock(h->mu);
  if (len > h->chain.live_size() || pos > h->chain.live_size() - len) {
    return Status::OutOfRange("range beyond document length");
  }
  return LockedRangeInfo(h, pos, len);
}

Result<std::vector<CharInfo>> TextStore::LiveInfo(DocumentId doc) {
  auto handle = Handle(doc);
  if (!handle.ok()) return handle.status();
  DocHandle* h = handle->get();
  MutexLock lock(h->mu);
  return LockedRangeInfo(h, 0, h->chain.live_size());
}

Result<std::vector<CharInfo>> TextStore::LockedRangeInfo(DocHandle* h,
                                                         size_t pos,
                                                         size_t len) {
  std::vector<CharInfo> out;
  out.reserve(len);
  for (const ChainChar& c : h->chain.LiveRange(pos, len)) {
    auto rec = ReadCharRecord(h, c.id);
    if (!rec.ok()) return rec.status();
    out.push_back(CharInfoFromRecord(*rec));
  }
  return out;
}

Result<std::vector<CharInfo>> TextStore::FullChain(DocumentId doc) {
  auto handle = Handle(doc);
  if (!handle.ok()) return handle.status();
  DocHandle* h = handle->get();
  MutexLock lock(h->mu);
  std::vector<CharInfo> out;
  out.reserve(h->chain.chain_size());
  for (const ChainChar& c : h->chain.Chars()) {
    auto rec = ReadCharRecord(h, c.id);
    if (!rec.ok()) return rec.status();
    out.push_back(CharInfoFromRecord(*rec));
  }
  return out;
}

Result<uint64_t> TextStore::PurgeHistory(UserId user, DocumentId doc,
                                         Version before) {
  uint64_t purged = 0;
  auto result = RunEdit(
      user, doc, ChangeKind::kMetadataChanged,
      [&](Transaction* txn, DocHandle* h, EditResult*) -> Status {
        purged = 0;
        const std::vector<ChainChar> chain = h->chain.Chars();
        auto purgeable = [&](const ChainChar& c) {
          return c.deleted != 0 && c.deleted <= before;
        };
        if (std::none_of(chain.begin(), chain.end(), purgeable)) {
          return Status::OK();
        }
        // Physically delete the purged records, tracking the highest
        // deletion version removed: that becomes the new purge floor (any
        // version >= it already saw all purged characters as dead, so
        // reads at or above the floor stay exact). Every survivor whose
        // origin is not its surviving predecessor is re-pointed at it: the
        // survivors then form one path from the document start, whose walk
        // is their chain order whatever their ids.
        Version max_del = 0;
        uint64_t predecessor = 0;
        for (const ChainChar& c : chain) {
          auto it = h->char_rids.find(c.id);
          if (it == h->char_rids.end()) {
            return Status::Internal("char chain cache out of sync");
          }
          if (!purgeable(c)) {
            auto rec = chars_table_->Get(it->second);
            if (!rec.ok()) return rec.status();
            if (rec->GetUint(kCcOrigin) != predecessor) {
              rec->value(kCcOrigin) = predecessor;
              TENDAX_RETURN_IF_ERROR(UpdateCharRecord(txn, h, c.id, *rec));
            }
            predecessor = c.id;
            continue;
          }
          TENDAX_RETURN_IF_ERROR(chars_table_->Delete(txn, it->second));
          TENDAX_RETURN_IF_ERROR(IndexEntry(txn, doc_chars_, h->id.value,
                                            it->second.Pack(), false));
          h->char_rids.erase(it);
          max_del = std::max(max_del, c.deleted);
          ++purged;
        }
        uint64_t chain_purged = h->chain.PurgeBelow(before);
        TENDAX_CHECK(chain_purged == purged);
        if (max_del > h->purge_floor) {
          h->purge_floor = max_del;  // persisted by WriteDocRecord
        }
        return Status::OK();
      });
  if (!result.ok()) return result.status();
  return purged;
}

Result<DocumentInfo> TextStore::GetDocumentInfo(DocumentId doc) {
  if (snapshots_enabled_.load(std::memory_order_relaxed)) {
    auto snap = AcquireSnapshot(doc);
    if (!snap.ok()) return snap.status();
    return (*snap)->info();
  }
  auto handle = Handle(doc);
  if (!handle.ok()) return handle.status();
  MutexLock lock((*handle)->mu);
  return InfoOf(handle->get());
}

Result<DocumentId> TextStore::FindDocumentByName(const std::string& name) {
  DocumentId found;
  TENDAX_RETURN_IF_ERROR(docs_table_->Scan([&](RecordId, const Record& rec) {
    if (rec.GetString(kDcName) == name) {
      found = DocumentId(rec.GetUint(kDcId));
      return false;
    }
    return true;
  }));
  if (!found.valid()) {
    return Status::NotFound("no document named '" + name + "'");
  }
  return found;
}

std::vector<DocumentId> TextStore::ListDocuments() {
  std::vector<DocumentId> out;
  // A partial scan yields a partial listing; the signature has no error
  // channel and callers treat the result as a best-effort directory.
  (void)docs_table_->Scan([&](RecordId, const Record& rec) {
    out.push_back(DocumentId(rec.GetUint(kDcId)));
    return true;
  });
  std::sort(out.begin(), out.end());
  return out;
}

Status TextStore::RenameDocument(UserId user, DocumentId doc,
                                 const std::string& name) {
  auto result = RunEdit(user, doc, ChangeKind::kDocumentRenamed,
                        [&](Transaction*, DocHandle* h, EditResult* out) {
                          h->name = name;
                          out->chars.clear();
                          return Status::OK();
                        });
  return result.ok() ? Status::OK() : result.status();
}

Status TextStore::SetDocumentState(UserId user, DocumentId doc,
                                   const std::string& state) {
  auto result = RunEdit(user, doc, ChangeKind::kDocumentStateChanged,
                        [&](Transaction*, DocHandle* h, EditResult* out) {
                          h->state = state;
                          out->chars.clear();
                          return Status::OK();
                        });
  return result.ok() ? Status::OK() : result.status();
}

}  // namespace tendax
