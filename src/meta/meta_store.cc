#include "meta/meta_store.h"

#include <algorithm>

namespace tendax {

namespace {

Schema AuditSchema() {
  return Schema({{"seq", ColumnType::kUint64},
                 {"doc_id", ColumnType::kUint64},
                 {"user_id", ColumnType::kUint64},
                 {"kind", ColumnType::kUint64},
                 {"at", ColumnType::kUint64},
                 {"detail", ColumnType::kString}});
}

Schema PropsSchema() {
  return Schema({{"doc_id", ColumnType::kUint64},
                 {"key", ColumnType::kString},
                 {"value", ColumnType::kString}});
}

Record RecordFromEntry(const AuditEntry& e) {
  return Record({e.seq, e.doc.value, e.user.value,
                 uint64_t{static_cast<uint64_t>(e.kind)}, uint64_t{e.at},
                 e.detail});
}

void ApplyToAggregates(const AuditEntry& entry,
                       std::unordered_map<uint64_t, DocumentMeta>* aggregates) {
  DocumentMeta& meta = (*aggregates)[entry.doc.value];
  meta.doc = entry.doc;
  UserTouch& touch = meta.by_user[entry.user];
  if (entry.kind == AuditKind::kRead) {
    meta.readers.insert(entry.user);
    ++meta.total_reads;
    ++touch.reads;
    touch.last_read = std::max(touch.last_read, entry.at);
    meta.last_read_at = std::max(meta.last_read_at, entry.at);
  } else {
    meta.authors.insert(entry.user);
    ++meta.total_edits;
    ++touch.edits;
    touch.last_edit = std::max(touch.last_edit, entry.at);
    if (entry.at >= meta.last_edit_at) {
      meta.last_edit_at = entry.at;
      meta.last_edit_by = entry.user;
    }
  }
}

AuditEntry EntryFromRecord(const Record& rec) {
  AuditEntry e;
  e.seq = rec.GetUint(0);
  e.doc = DocumentId(rec.GetUint(1));
  e.user = UserId(rec.GetUint(2));
  e.kind = static_cast<AuditKind>(rec.GetUint(3));
  e.at = rec.GetUint(4);
  e.detail = rec.GetString(5);
  return e;
}

}  // namespace

const char* AuditKindName(AuditKind kind) {
  switch (kind) {
    case AuditKind::kCreate:
      return "create";
    case AuditKind::kEdit:
      return "edit";
    case AuditKind::kRead:
      return "read";
    case AuditKind::kLayout:
      return "layout";
    case AuditKind::kStructure:
      return "structure";
    case AuditKind::kSecurity:
      return "security";
    case AuditKind::kWorkflow:
      return "workflow";
    case AuditKind::kRename:
      return "rename";
    case AuditKind::kStateChange:
      return "state";
  }
  return "?";
}

MetaStore::MetaStore(Database* db) : db_(db) {}

Status MetaStore::Init() {
  auto audit = db_->EnsureTable("tendax_audit", AuditSchema());
  if (!audit.ok()) return audit.status();
  audit_table_ = *audit;
  auto props = db_->EnsureTable("tendax_props", PropsSchema());
  if (!props.ok()) return props.status();
  props_table_ = *props;

  uint64_t max_seq = 0;
  auto trail = ReadTrail(&max_seq);
  if (!trail.ok()) return trail.status();
  next_seq_ = max_seq + 1;
  {
    MutexLock lock(mu_);
    meta_ = std::move(*trail);
  }
  TENDAX_RETURN_IF_ERROR(
      props_table_->Scan([&](RecordId rid, const Record& rec) {
        auto key = std::make_pair(rec.GetUint(0), rec.GetString(1));
        props_[key] = rec.GetString(2);
        prop_rids_[key] = rid;
        return true;
      }));

  // Automatic capture: every audited change event becomes an audit row in
  // its own transaction (the paper's "meta data gathered automatically"),
  // and the aggregates follow once that transaction has committed.
  db_->txns()->AddPreCommitHook(
      [this](Transaction* txn) { return WriteAuditRows(txn); });
  db_->txns()->AddCommitListener(
      [this](TxnId, UserId user, const ChangeBatch& batch) {
        OnCommitted(user, batch);
      });
  return Status::OK();
}

Result<MetaStore::Aggregates> MetaStore::ReadTrail(uint64_t* max_seq) const {
  Aggregates aggregates;
  TENDAX_RETURN_IF_ERROR(
      audit_table_->Scan([&](RecordId, const Record& rec) {
        AuditEntry e = EntryFromRecord(rec);
        if (max_seq != nullptr) *max_seq = std::max(*max_seq, e.seq);
        ApplyToAggregates(e, &aggregates);
        return true;
      }));
  return aggregates;
}

Status MetaStore::CheckIntegrity() const {
  auto trail = ReadTrail(nullptr);
  if (!trail.ok()) return trail.status();
  MutexLock lock(mu_);
  for (const auto& [doc, meta] : *trail) {
    auto it = meta_.find(doc);
    if (it == meta_.end() || !(it->second == meta)) {
      return Status::Corruption(
          "audit aggregates of doc " + std::to_string(doc) +
          " differ from the audit trail: trail has " +
          std::to_string(meta.total_edits) + " edits and " +
          std::to_string(meta.total_reads) + " reads, live has " +
          (it == meta_.end()
               ? std::string("none")
               : std::to_string(it->second.total_edits) + " edits and " +
                     std::to_string(it->second.total_reads) + " reads"));
    }
  }
  if (meta_.size() != trail->size()) {
    return Status::Corruption(
        "audit aggregates cover " + std::to_string(meta_.size()) +
        " documents, the audit trail " + std::to_string(trail->size()));
  }
  return Status::OK();
}

std::optional<AuditKind> MetaStore::KindForEvent(ChangeKind kind) {
  switch (kind) {
    case ChangeKind::kDocumentCreated:
      return AuditKind::kCreate;
    case ChangeKind::kTextInserted:
    case ChangeKind::kTextDeleted:
    case ChangeKind::kUndoApplied:
    case ChangeKind::kRedoApplied:
      return AuditKind::kEdit;
    case ChangeKind::kLayoutChanged:
      return AuditKind::kLayout;
    case ChangeKind::kStructureChanged:
    case ChangeKind::kNoteAdded:
    case ChangeKind::kObjectInserted:
      return AuditKind::kStructure;
    case ChangeKind::kSecurityChanged:
      return AuditKind::kSecurity;
    case ChangeKind::kWorkflowChanged:
      return AuditKind::kWorkflow;
    case ChangeKind::kDocumentRenamed:
      return AuditKind::kRename;
    case ChangeKind::kDocumentStateChanged:
      return AuditKind::kStateChange;
    default:
      return std::nullopt;
  }
}

namespace {

AuditEntry EntryForEvent(const ChangeEvent& ev, AuditKind kind,
                         UserId txn_user) {
  AuditEntry entry;
  entry.seq = ev.audit_seq;
  entry.doc = ev.doc;
  entry.user = ev.user.valid() ? ev.user : txn_user;
  entry.kind = kind;
  entry.at = ev.at;
  entry.detail = ev.detail;
  return entry;
}

}  // namespace

Status MetaStore::WriteAuditRows(Transaction* txn) {
  for (ChangeEvent& ev : *txn->mutable_events()) {
    auto kind = KindForEvent(ev.kind);
    if (!kind.has_value() || !ev.doc.valid()) continue;
    if (ev.at == 0) ev.at = db_->clock()->NowMicros();
    ev.audit_seq = next_seq_.fetch_add(1);
    auto rid = audit_table_->Insert(
        txn, RecordFromEntry(EntryForEvent(ev, *kind, txn->user())));
    if (!rid.ok()) return rid.status();
  }
  return Status::OK();
}

void MetaStore::OnCommitted(UserId user, const ChangeBatch& batch) {
  for (const ChangeEvent& ev : batch) {
    if (ev.audit_seq == 0) continue;
    Publish(EntryForEvent(ev, *KindForEvent(ev.kind), user));
  }
}

void MetaStore::Publish(const AuditEntry& entry) {
  SharedList<AuditListener> listeners;
  {
    MutexLock lock(mu_);
    ApplyToAggregates(entry, &meta_);
    listeners = listeners_;
  }
  if (listeners == nullptr) return;
  for (const auto& listener : *listeners) listener(entry);
}

Status MetaStore::RecordRead(UserId user, DocumentId doc) {
  if (!doc.valid()) return Status::OK();
  AuditEntry entry;
  entry.seq = next_seq_.fetch_add(1);
  entry.doc = doc;
  entry.user = user;
  entry.kind = AuditKind::kRead;
  entry.at = db_->clock()->NowMicros();
  TENDAX_RETURN_IF_ERROR(db_->txns()->RunInTxn(user, [&](Transaction* txn) {
    return audit_table_->Insert(txn, RecordFromEntry(entry)).status();
  }));
  Publish(entry);
  return Status::OK();
}

DocumentMeta MetaStore::Meta(DocumentId doc) const {
  MutexLock lock(mu_);
  auto it = meta_.find(doc.value);
  if (it == meta_.end()) {
    DocumentMeta empty;
    empty.doc = doc;
    return empty;
  }
  return it->second;
}

std::vector<DocumentId> MetaStore::ReadBy(UserId user,
                                          Timestamp since) const {
  MutexLock lock(mu_);
  std::vector<DocumentId> out;
  for (const auto& [doc, meta] : meta_) {
    auto it = meta.by_user.find(user);
    if (it != meta.by_user.end() && it->second.last_read >= since) {
      out.push_back(DocumentId(doc));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<DocumentId> MetaStore::EditedBy(UserId user,
                                            Timestamp since) const {
  MutexLock lock(mu_);
  std::vector<DocumentId> out;
  for (const auto& [doc, meta] : meta_) {
    auto it = meta.by_user.find(user);
    if (it != meta.by_user.end() && it->second.last_edit >= since) {
      out.push_back(DocumentId(doc));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<DocumentId> MetaStore::TouchedDocuments() const {
  MutexLock lock(mu_);
  std::vector<DocumentId> out;
  out.reserve(meta_.size());
  for (const auto& [doc, meta] : meta_) out.push_back(DocumentId(doc));
  std::sort(out.begin(), out.end());
  return out;
}

Status MetaStore::VisitAudit(
    const std::function<bool(const AuditEntry&)>& fn) const {
  std::vector<AuditEntry> entries;
  TENDAX_RETURN_IF_ERROR(
      audit_table_->Scan([&](RecordId, const Record& rec) {
        entries.push_back(EntryFromRecord(rec));
        return true;
      }));
  std::sort(entries.begin(), entries.end(),
            [](const AuditEntry& a, const AuditEntry& b) {
              return a.seq < b.seq;
            });
  for (const AuditEntry& e : entries) {
    if (!fn(e)) break;
  }
  return Status::OK();
}

Status MetaStore::SetProperty(UserId user, DocumentId doc,
                              const std::string& key,
                              const std::string& value) {
  auto map_key = std::make_pair(doc.value, key);
  RecordId existing;
  bool update = false;
  {
    MutexLock lock(mu_);
    auto it = prop_rids_.find(map_key);
    if (it != prop_rids_.end()) {
      existing = it->second;
      update = true;
    }
  }
  Record rec({doc.value, key, value});
  RecordId new_rid;
  Status st = db_->txns()->RunInTxn(user, [&](Transaction* txn) -> Status {
    if (update) {
      auto rid = props_table_->Update(txn, existing, rec);
      if (!rid.ok()) return rid.status();
      new_rid = *rid;
    } else {
      auto rid = props_table_->Insert(txn, rec);
      if (!rid.ok()) return rid.status();
      new_rid = *rid;
    }
    return Status::OK();
  });
  if (!st.ok()) return st;
  MutexLock lock(mu_);
  props_[map_key] = value;
  prop_rids_[map_key] = new_rid;
  return Status::OK();
}

Result<std::string> MetaStore::GetProperty(DocumentId doc,
                                           const std::string& key) const {
  MutexLock lock(mu_);
  auto it = props_.find(std::make_pair(doc.value, key));
  if (it == props_.end()) {
    return Status::NotFound("no property '" + key + "' on " + doc.ToString());
  }
  return it->second;
}

std::map<std::string, std::string> MetaStore::Properties(
    DocumentId doc) const {
  MutexLock lock(mu_);
  std::map<std::string, std::string> out;
  auto lo = props_.lower_bound(std::make_pair(doc.value, std::string()));
  for (auto it = lo; it != props_.end() && it->first.first == doc.value;
       ++it) {
    out[it->first.second] = it->second;
  }
  return out;
}

void MetaStore::AddAuditListener(AuditListener listener) {
  MutexLock lock(mu_);
  listeners_ = Appended(listeners_, std::move(listener));
}

}  // namespace tendax
