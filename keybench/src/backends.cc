#include "backends.h"

#include "bench.h"
#include "text/utf8.h"
#include "trace.h"

namespace keybench {

using tendax::CommandKind;
using tendax::DocumentId;
using tendax::Result;
using tendax::Right;
using tendax::Status;

Status BenchLogStorage::Append(const tendax::Slice& data) {
  bytes.fetch_add(data.size(), std::memory_order_relaxed);
  ScopedSpan span(SpanName::kLogAppend);
  return inner_->Append(data);
}

Status BenchLogStorage::Sync() {
  syncs.fetch_add(1, std::memory_order_relaxed);
  Status st;
  {
    ScopedSpan span(SpanName::kLogSync);
    st = inner_->Sync();
  }
  if (Tracer::Active()) Tracer::NoteSync(NowNs());
  return st;
}

Status BenchDiskManager::ReadPage(tendax::PageId id, char* out) {
  reads.fetch_add(1, std::memory_order_relaxed);
  ScopedSpan span(SpanName::kPageRead);
  return inner_->ReadPage(id, out);
}

Status BenchDiskManager::WritePage(tendax::PageId id, const char* data) {
  writes.fetch_add(1, std::memory_order_relaxed);
  ScopedSpan span(SpanName::kPageWrite);
  return inner_->WritePage(id, data);
}

Status EditorSequence::Type(DocumentId doc, size_t pos,
                            const std::string& text) {
  {
    ScopedSpan span(SpanName::kSecurity);
    TENDAX_RETURN_IF_ERROR(
        server_->accounts()->Require(user_, doc, Right::kWrite));
  }
  Result<tendax::EditResult> result = Status::Internal("not run");
  {
    ScopedSpan span(SpanName::kTextEdit);
    result = server_->text()->InsertText(user_, doc, pos, text);
  }
  if (!result.ok()) return result.status();
  ScopedSpan span(SpanName::kUndoRecord);
  server_->undo()->RecordInsert(user_, doc, *result, text);
  return Status::OK();
}

Status EditorSequence::Erase(DocumentId doc, size_t pos, size_t len) {
  {
    ScopedSpan span(SpanName::kSecurity);
    TENDAX_RETURN_IF_ERROR(
        server_->accounts()->Require(user_, doc, Right::kWrite));
  }
  Result<std::string> erased = Status::Internal("not run");
  {
    ScopedSpan span(SpanName::kTextRead);
    erased = server_->text()->TextRange(doc, pos, len);
  }
  if (!erased.ok()) return erased.status();
  Result<tendax::EditResult> result = Status::Internal("not run");
  {
    ScopedSpan span(SpanName::kTextEdit);
    result = server_->text()->DeleteRange(user_, doc, pos, len);
  }
  if (!result.ok()) return result.status();
  ScopedSpan span(SpanName::kUndoRecord);
  server_->undo()->RecordDelete(user_, doc, *result, *erased);
  return Status::OK();
}

Result<std::vector<tendax::PasteChar>> EditorSequence::Copy(DocumentId doc,
                                                            size_t pos,
                                                            size_t len) {
  {
    ScopedSpan span(SpanName::kSecurity);
    TENDAX_RETURN_IF_ERROR(
        server_->accounts()->Require(user_, doc, Right::kRead));
  }
  ScopedSpan span(SpanName::kTextCopy);
  return server_->text()->Copy(user_, doc, pos, len);
}

Status EditorSequence::Paste(DocumentId doc, size_t pos,
                             const std::vector<tendax::PasteChar>& clipboard) {
  {
    ScopedSpan span(SpanName::kSecurity);
    TENDAX_RETURN_IF_ERROR(
        server_->accounts()->Require(user_, doc, Right::kWrite));
  }
  Result<tendax::EditResult> result = Status::Internal("not run");
  {
    ScopedSpan span(SpanName::kTextPaste);
    result = server_->text()->Paste(user_, doc, pos, clipboard);
  }
  if (!result.ok()) return result.status();
  ScopedSpan span(SpanName::kUndoRecord);
  std::vector<uint32_t> cps;
  cps.reserve(clipboard.size());
  for (const tendax::PasteChar& c : clipboard) cps.push_back(c.cp);
  server_->undo()->RecordInsert(user_, doc, *result, tendax::EncodeUtf8(cps));
  return Status::OK();
}

Status EditorSequence::Undo(DocumentId doc) {
  {
    ScopedSpan span(SpanName::kSecurity);
    TENDAX_RETURN_IF_ERROR(
        server_->accounts()->Require(user_, doc, Right::kWrite));
  }
  ScopedSpan span(SpanName::kUndoApply);
  return server_->undo()->UndoLocal(user_, doc).status();
}

Result<std::string> EditorSequence::TextAt(DocumentId doc,
                                           tendax::Version version) {
  {
    ScopedSpan span(SpanName::kSecurity);
    TENDAX_RETURN_IF_ERROR(
        server_->accounts()->Require(user_, doc, Right::kRead));
  }
  Result<tendax::SnapshotRef> snap = Status::Internal("not run");
  {
    ScopedSpan span(SpanName::kSnapshot);
    snap = server_->text()->AcquireSnapshot(doc);
  }
  if (!snap.ok()) return snap.status();
  ScopedSpan span(SpanName::kTextRead);
  return (*snap)->TextAtVersion(version);
}

Status EditorSequence::Open(DocumentId doc) {
  {
    ScopedSpan span(SpanName::kSecurity);
    TENDAX_RETURN_IF_ERROR(
        server_->accounts()->Require(user_, doc, Right::kRead));
  }
  ScopedSpan span(SpanName::kSessionOpen);
  return server_->sessions()->OpenDocument(session_, doc);
}

Status EditorSequence::Close(DocumentId doc) {
  ScopedSpan span(SpanName::kSessionOpen);
  return server_->sessions()->CloseDocument(session_, doc);
}

Result<std::string> TracedTextRange(tendax::TextStore* text, DocumentId doc,
                                    size_t pos, size_t len) {
  Result<tendax::SnapshotRef> snap = Status::Internal("not run");
  {
    ScopedSpan span(SpanName::kSnapshot);
    snap = text->AcquireSnapshot(doc);
  }
  if (!snap.ok()) return snap.status();
  ScopedSpan span(SpanName::kTextRead);
  return (*snap)->TextRange(pos, len);
}

Result<std::string> BenchTransport::RoundTrip(const std::string& request) {
  ScopedSpan span(SpanName::kWire);
  if (!Tracer::Active()) return endpoint_->HandleFrame(request);
  return TracedRoundTrip(request);
}

Result<std::string> BenchTransport::TracedRoundTrip(
    const std::string& request) {
  auto body = tendax::OpenFrame(request);
  if (!body.ok()) return body.status();
  auto command = tendax::DecodeCommand(*body);
  if (!command.ok()) return endpoint_->HandleFrame(request);
  const tendax::EditCommand& c = *command;
  tendax::WireResponse response;
  auto fail = [&response](const Status& st) {
    response.code = st.code();
    response.message = st.message();
  };
  switch (c.kind) {
    case CommandKind::kType:
      fail(sequence_->Type(c.doc, c.pos, c.text));
      break;
    case CommandKind::kErase:
      fail(sequence_->Erase(c.doc, c.pos, c.len));
      break;
    case CommandKind::kCopy: {
      auto clip = sequence_->Copy(c.doc, c.pos, c.len);
      if (!clip.ok()) {
        fail(clip.status());
        break;
      }
      clipboard_ = std::move(*clip);
      response.payload = "traced";
      break;
    }
    case CommandKind::kPaste:
      fail(sequence_->Paste(c.doc, c.pos, clipboard_));
      break;
    case CommandKind::kUndo:
      fail(sequence_->Undo(c.doc));
      break;
    case CommandKind::kGetTextAt: {
      auto text = sequence_->TextAt(c.doc, c.pos);
      if (!text.ok()) {
        fail(text.status());
        break;
      }
      response.payload = std::move(*text);
      break;
    }
    case CommandKind::kOpen:
      fail(sequence_->Open(c.doc));
      break;
    case CommandKind::kClose:
      fail(sequence_->Close(c.doc));
      break;
    default:
      return endpoint_->HandleFrame(request);
  }
  return tendax::SealFrame(tendax::EncodeResponse(response));
}

void AddChainListener(tendax::TendaxServer* server) {
  server->db()->txns()->AddCommitListener(
      [](tendax::TxnId, tendax::UserId, const tendax::ChangeBatch& batch) {
        if (!Tracer::Active()) return;
        for (const tendax::ChangeEvent& ev : batch) {
          if (ev.kind == tendax::ChangeKind::kTextInserted ||
              ev.kind == tendax::ChangeKind::kTextDeleted) {
            Tracer::NoteEditCommitted(NowNs());
            return;
          }
        }
      });
}

}  // namespace keybench
