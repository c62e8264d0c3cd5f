// Span tracing from outside the program: the benchmark opens a span around
// each call it makes into a layer's public functions, and its backend
// decorators open spans around the calls the database makes into them.
// Spans stay in per-thread memory until the run ends.
#ifndef KEYBENCH_TRACE_H_
#define KEYBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace keybench {

enum class SpanName : uint8_t {
  // Roots: one client-side gesture each.
  kKeystroke,
  kPaste,
  kUndo,
  kView,
  kPoll,
  kSearch,
  kOpen,
  kTimeTravel,
  kFolders,
  // Layer calls.
  kWire,            // collab.wire: transport round trip (client side)
  kSessionPoll,     // collab.session: Poll / Resume
  kSessionOpen,     // collab.session: OpenDocument / CloseDocument
  kSecurity,        // security: AccessControl::Require
  kTextEdit,        // text: InsertText / DeleteRange
  kTextRead,        // text: snapshot Text / TextRange / TextAtVersion
  kTextCopy,        // text: Copy
  kTextPaste,       // text: Paste
  kSnapshot,        // text: AcquireSnapshot
  kUndoRecord,      // collab.undo: RecordInsert / RecordDelete
  kUndoApply,       // collab.undo: UndoLocal
  kListenerChain,   // txn: commit-record sync return -> last listener
  kLogAppend,       // storage: LogStorage::Append
  kLogSync,         // storage: LogStorage::Sync
  kPageRead,        // storage: DiskManager::ReadPage
  kPageWrite,       // storage: DiskManager::WritePage
  kSearchQuery,     // search: SearchEngine::Search
  kFoldersContents, // folders: FolderManager::DynamicContents
  kCount
};

const char* SpanNameString(SpanName name);

struct SpanRecord {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t request = 0;
  int32_t parent = -1;  // index in the same thread's buffer
  SpanName name = SpanName::kKeystroke;
};

/// Thread-local span state. Spans record only inside a traced root, so the
/// untraced path costs one thread-local flag test per decorated call.
class Tracer {
 public:
  /// True inside a traced root span on this thread.
  static bool Active();
  /// Adds a finished child span of the innermost open span.
  static void Record(SpanName name, int64_t start_ns, int64_t end_ns);

  /// Commit-chain bookkeeping for `txn.listener_chain`: the log decorator
  /// notes each Sync return inside a traced gesture; the benchmark's commit
  /// listener turns the first one into a span when both the edit's and the
  /// audit row's commit synced on this thread (otherwise the edit's commit
  /// record was made durable by another thread's sync and its time is
  /// unknown here).
  static void NoteSync(int64_t return_ns);
  static void NoteEditCommitted(int64_t now_ns);

  struct Summary {
    /// Self time (span minus the union of its children) per span name, ns.
    std::map<SpanName, std::vector<double>> self_ns;
    /// Share of each keystroke root covered by its child spans, percent.
    std::vector<double> keystroke_coverage_pct;
  };
  static Summary Analyze();
  /// Writes every span as a tab-separated row; false on I/O failure.
  static bool Write(const std::string& path);
};

/// Child span over the enclosing scope; no-op outside a traced root.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int32_t index_ = -1;
};

/// Root span of one gesture; records only when `traced`.
class RootSpan {
 public:
  RootSpan(SpanName name, bool traced);
  ~RootSpan();
  RootSpan(const RootSpan&) = delete;
  RootSpan& operator=(const RootSpan&) = delete;

 private:
  int32_t index_ = -1;
};

}  // namespace keybench

#endif  // KEYBENCH_TRACE_H_
