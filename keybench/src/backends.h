// The benchmark's decorators for the three boundaries the server accepts by
// injection (log storage, page store, wire transport), and the public call
// sequence `Editor` runs per gesture, issued by the benchmark itself in
// traced gestures so that each call gets its own span.
#ifndef KEYBENCH_BACKENDS_H_
#define KEYBENCH_BACKENDS_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "collab/wire.h"
#include "core/tendax.h"
#include "storage/disk_manager.h"
#include "storage/wal.h"

namespace keybench {

/// Counts every call the WAL makes into its log backend and, inside traced
/// gestures, times it. Forwards segmentation so the checkpointer and
/// rotation behave as over the bare backend.
class BenchLogStorage : public tendax::LogStorage {
 public:
  explicit BenchLogStorage(std::shared_ptr<tendax::LogStorage> inner)
      : inner_(std::move(inner)) {}

  tendax::Status Append(const tendax::Slice& data) override;
  tendax::Status Sync() override;
  tendax::Status ReadAll(std::string* out) override {
    return inner_->ReadAll(out);
  }
  tendax::Status Truncate() override { return inner_->Truncate(); }
  bool segmented() const override { return inner_->segmented(); }
  uint64_t current_segment() const override {
    return inner_->current_segment();
  }
  std::vector<uint64_t> SegmentIds() const override {
    return inner_->SegmentIds();
  }
  uint64_t SegmentBytes(uint64_t id) const override {
    return inner_->SegmentBytes(id);
  }
  tendax::Status ReadSegment(uint64_t id, std::string* out) override {
    return inner_->ReadSegment(id, out);
  }
  tendax::Status RotateSegment(uint64_t* new_id) override {
    return inner_->RotateSegment(new_id);
  }
  tendax::Status DropSegment(uint64_t id, uint64_t* bytes_freed) override {
    return inner_->DropSegment(id, bytes_freed);
  }

  std::atomic<uint64_t> bytes{0};
  std::atomic<uint64_t> syncs{0};

 private:
  const std::shared_ptr<tendax::LogStorage> inner_;
};

/// Counts page reads and writes the buffer pool issues; times them inside
/// traced gestures.
class BenchDiskManager : public tendax::DiskManager {
 public:
  explicit BenchDiskManager(std::shared_ptr<tendax::DiskManager> inner)
      : inner_(std::move(inner)) {}

  tendax::Result<tendax::PageId> AllocatePage() override {
    return inner_->AllocatePage();
  }
  tendax::Status ReadPage(tendax::PageId id, char* out) override;
  tendax::Status WritePage(tendax::PageId id, const char* data) override;
  uint32_t NumPages() const override { return inner_->NumPages(); }
  tendax::Status Sync() override { return inner_->Sync(); }

  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> writes{0};

 private:
  const std::shared_ptr<tendax::DiskManager> inner_;
};

/// The public calls `Editor` makes for each gesture, in the same order.
/// Traced gestures issue them through this class instead of through
/// `Editor`, so each layer call is its own span.
class EditorSequence {
 public:
  EditorSequence(tendax::TendaxServer* server, tendax::UserId user,
                 tendax::SessionId session)
      : server_(server), user_(user), session_(session) {}

  tendax::Status Type(tendax::DocumentId doc, size_t pos,
                      const std::string& text);
  tendax::Status Erase(tendax::DocumentId doc, size_t pos, size_t len);
  tendax::Result<std::vector<tendax::PasteChar>> Copy(tendax::DocumentId doc,
                                                      size_t pos, size_t len);
  tendax::Status Paste(tendax::DocumentId doc, size_t pos,
                       const std::vector<tendax::PasteChar>& clipboard);
  tendax::Status Undo(tendax::DocumentId doc);
  tendax::Result<std::string> TextAt(tendax::DocumentId doc,
                                     tendax::Version version);
  tendax::Status Open(tendax::DocumentId doc);
  tendax::Status Close(tendax::DocumentId doc);

 private:
  tendax::TendaxServer* const server_;
  const tendax::UserId user_;
  const tendax::SessionId session_;
};

/// `TextStore::TextRange` as two spans: snapshot acquisition and the read.
tendax::Result<std::string> TracedTextRange(tendax::TextStore* text,
                                            tendax::DocumentId doc,
                                            size_t pos, size_t len);

/// The wire between a `RetryingClient` and its `RemoteEditorEndpoint`.
/// Untraced frames go straight to `HandleFrame`. In a traced gesture the
/// transport opens the frame and runs an edit, copy, paste, undo, open,
/// close or time travel through an `EditorSequence` for the endpoint's
/// editor (the same calls the endpoint's `Editor` would make), so the
/// server side is broken down by layer; other commands, polls among them,
/// go to `HandleFrame`. A traced copy keeps its clipboard here, not in the
/// endpoint's handle table, for the traced paste that follows it. That skips what the
/// endpoint's `Handle` does around the editor call (dedup, dispatch
/// metrics, deadline scope, admission), which cannot be timed from outside
/// the program: traced remote requests run slightly less server code than
/// untraced ones.
class BenchTransport : public tendax::WireTransport {
 public:
  BenchTransport(tendax::RemoteEditorEndpoint* endpoint,
                 EditorSequence* sequence)
      : endpoint_(endpoint), sequence_(sequence) {}

  tendax::Result<std::string> RoundTrip(const std::string& request) override;

 private:
  tendax::Result<std::string> TracedRoundTrip(const std::string& request);

  tendax::RemoteEditorEndpoint* const endpoint_;
  EditorSequence* const sequence_;
  std::vector<tendax::PasteChar> clipboard_;  // traced copy -> paste
};

/// Registers the benchmark's commit listener, which runs after every
/// listener the server registered, and closes `txn.listener_chain` spans.
void AddChainListener(tendax::TendaxServer* server);

}  // namespace keybench

#endif  // KEYBENCH_BACKENDS_H_
