#ifndef TENDAX_TXN_EVENTS_H_
#define TENDAX_TXN_EVENTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/ids.h"

namespace tendax {

/// What a committed transaction did, at domain granularity. Events are
/// attached to the transaction while it runs and published to subscribers
/// (editor sessions, dynamic folders, the search index, awareness) only
/// after commit — this is the "everything typed appears as soon as it is
/// stored persistently" propagation path of the paper.
enum class ChangeKind : uint16_t {
  kTextInserted = 1,
  kTextDeleted = 2,
  kLayoutChanged = 3,
  kStructureChanged = 4,
  kDocumentCreated = 5,
  kDocumentRenamed = 6,
  kDocumentStateChanged = 7,
  kSecurityChanged = 8,
  kNoteAdded = 9,
  kObjectInserted = 10,
  kWorkflowChanged = 11,
  kMetadataChanged = 12,
  kDocumentRead = 13,
  kFolderChanged = 14,
  kUndoApplied = 15,
  kRedoApplied = 16,
  /// Delivery-layer marker, not a committed change: the session's change
  /// stream was trimmed (slow consumer / stale resume cursor) and per-event
  /// redelivery is impossible. The client must re-read a document snapshot;
  /// events delivered after the marker may predate that snapshot and are
  /// invalidation hints only.
  kResync = 17,
};

/// Highest valid `ChangeKind` value; decoders reject anything outside
/// [1, kChangeKindMax].
constexpr uint16_t kChangeKindMax = 17;

/// One domain-level change produced by a transaction.
struct ChangeEvent {
  ChangeKind kind;
  DocumentId doc;
  UserId user;
  Version version = 0;      // document version created by the commit
  Timestamp at = 0;         // commit-side stamp
  CharId anchor;            // first affected character (if any)
  uint64_t count = 0;       // number of affected characters/items
  std::string detail;       // operation-specific payload (e.g. text)
  /// Sequence number of the audit row the commit wrote for this event
  /// (0 = not audited). Set by the audit pre-commit hook; not on the wire.
  uint64_t audit_seq = 0;
};

using ChangeBatch = std::vector<ChangeEvent>;

}  // namespace tendax

#endif  // TENDAX_TXN_EVENTS_H_
