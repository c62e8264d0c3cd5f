// The workloads. Each is one process driving the public API of an in-memory
// server with default options: one closed-loop typist on a 1M-char
// document, more than the buffer pool holds,
//
//  large_doc    in process, calling Editor directly;
//  remote_doc   a remote editor: RetryingClient, wire frames and the
//               server's RemoteEditorEndpoint on every gesture;
//
// beside a searcher and a browser. Every workload runs every gesture kind
// the end-to-end metrics time, so each run reports all of them. Gesture
// kinds outside the typist's mix are side traffic, sized by the samples per
// slice the estimators need (kSidePeriodNs), not by any claim about real
// users.
#include <functional>
#include <memory>
#include <thread>

#include "backends.h"
#include "collab/retrying_client.h"
#include "core/tendax.h"
#include "trace.h"
#include "workload.h"

namespace keybench {
namespace {

using tendax::ChangeEvent;
using tendax::ChangeKind;
using tendax::CommandKind;
using tendax::DocumentId;
using tendax::Editor;
using tendax::FolderId;
using tendax::FolderQuery;
using tendax::Ranking;
using tendax::Result;
using tendax::Status;
using tendax::TendaxOptions;
using tendax::TendaxServer;
using tendax::UserId;
using tendax::Version;

constexpr uint64_t kHourMicros = 3'600'000'000ULL;

/// Period of each side gesture kind (see the file comment): 200 ms, so
/// that each 3-s slice of the benchmark's 30-s runs holds 15 samples of
/// every kind for the median of per-slice percentiles, the estimator every
/// percentile uses. A fixed period rather than a fixed count per slice
/// keeps large_doc's searcher (about 80 ms a search) from overloading in
/// shorter runs.
constexpr int64_t kSidePeriodNs = 200'000'000;

// ---------------------------------------------------------------------------
// Server environment

struct Env {
  std::shared_ptr<BenchLogStorage> log;
  std::shared_ptr<BenchDiskManager> disk;
  std::unique_ptr<TendaxServer> server;
  TendaxOptions options;
};

const char* CommitFlushName(tendax::CommitFlushMode mode) {
  switch (mode) {
    case tendax::CommitFlushMode::kInline:
      return "kInline";
    case tendax::CommitFlushMode::kPerCommit:
      return "kPerCommit";
    case tendax::CommitFlushMode::kLeader:
      return "kLeader";
    case tendax::CommitFlushMode::kFlusherThread:
      return "kFlusherThread";
  }
  return "?";
}

/// Opens an in-memory server with default options over decorated backends.
Status OpenEnv(Env* env) {
  env->log = std::make_shared<BenchLogStorage>(
      std::make_shared<tendax::InMemoryLogStorage>());
  env->disk = std::make_shared<BenchDiskManager>(
      std::make_shared<tendax::InMemoryDiskManager>());
  env->options.db.log_storage = env->log;
  env->options.db.disk = env->disk;
  auto server = TendaxServer::Open(env->options);
  if (!server.ok()) return server.status();
  env->server = std::move(*server);
  AddChainListener(env->server.get());
  return Status::OK();
}

Result<std::unique_ptr<Editor>> Attach(TendaxServer* server,
                                       const std::string& name) {
  auto user = server->accounts()->CreateUser(name);
  if (!user.ok()) return user.status();
  return server->AttachEditor(*user, name);
}

bool IsEdit(Op op) {
  return op == Op::kKeystroke || op == Op::kPaste || op == Op::kUndo;
}

// ---------------------------------------------------------------------------
// Clients

/// A typist as the workload drives it: in-process or remote.
class Typist {
 public:
  virtual ~Typist() = default;
  virtual Status Type(DocumentId doc, size_t pos, const std::string& text) = 0;
  virtual Status Erase(DocumentId doc, size_t pos, size_t len) = 0;
  virtual Status CopyPaste(DocumentId doc, size_t from, size_t len,
                           size_t to) = 0;
  virtual Status Undo(DocumentId doc) = 0;
  virtual Status Open(DocumentId doc) = 0;
  /// Counts the change events delivered since the last poll and sets
  /// `*resync` when the stream was trimmed.
  virtual Status Poll(uint64_t* events, bool* resync) = 0;
  virtual UserId user() const = 0;
};

/// A remote editor: RetryingClient -> BenchTransport ->
/// RemoteEditorEndpoint -> Editor, every gesture a sealed wire frame.
class RemoteClient final : public Typist {
 public:
  RemoteClient(TendaxServer* server, std::unique_ptr<Editor> editor,
               uint64_t seed)
      : editor_(std::move(editor)),
        sequence_(server, editor_->user(), editor_->session()),
        endpoint_(editor_.get()),
        transport_(&endpoint_, &sequence_),
        client_(&transport_, Options(server, seed)) {}

  Status Type(DocumentId doc, size_t pos, const std::string& text) override {
    return client_.Type(doc, pos, text);
  }
  Status Erase(DocumentId doc, size_t pos, size_t len) override {
    return client_.Erase(doc, pos, len);
  }
  Status CopyPaste(DocumentId doc, size_t from, size_t len,
                   size_t to) override {
    auto handle = Call(CommandKind::kCopy, doc, from, len, "");
    if (!handle.ok()) return handle.status();
    return Call(CommandKind::kPaste, doc, to, 0, *handle).status();
  }
  Status Undo(DocumentId doc) override {
    return Call(CommandKind::kUndo, doc, 0, 0, "").status();
  }
  Status Open(DocumentId doc) override { return client_.Open(doc); }
  Status Poll(uint64_t* events, bool* resync) override {
    ScopedSpan span(SpanName::kSessionPoll);
    auto changes = client_.PollChanges();
    if (!changes.ok()) return changes.status();
    *resync = *resync || changes->resync_required;
    *events += changes->events.size();
    return Status::OK();
  }
  UserId user() const override { return editor_->user(); }

  Status Close(DocumentId doc) { return client_.Close(doc); }
  Result<std::string> TextAt(DocumentId doc, Version version) {
    return client_.GetTextAt(doc, version);
  }

 private:
  static tendax::RetryOptions Options(TendaxServer* server, uint64_t seed) {
    tendax::RetryOptions options;
    options.seed = seed;
    options.metrics = server->metrics();
    return options;
  }

  /// One command; the response payload, or its status when not OK.
  Result<std::string> Call(CommandKind kind, DocumentId doc, uint64_t pos,
                           uint64_t len, std::string text) {
    tendax::EditCommand command;
    command.kind = kind;
    command.doc = doc;
    command.pos = pos;
    command.len = len;
    command.text = std::move(text);
    auto r = client_.Call(std::move(command));
    if (!r.ok()) return r.status();
    if (r->code != tendax::StatusCode::kOk) {
      return Status::FromCode(r->code, r->message);
    }
    return std::move(r->payload);
  }

  std::unique_ptr<Editor> editor_;
  EditorSequence sequence_;
  tendax::RemoteEditorEndpoint endpoint_;
  BenchTransport transport_;
  tendax::RetryingClient client_;
};

/// An in-process editor. Traced gestures issue Editor's call sequence
/// through EditorSequence so every layer call is its own span.
class LocalClient final : public Typist {
 public:
  LocalClient(TendaxServer* server, std::unique_ptr<Editor> editor)
      : editor_(std::move(editor)),
        sequence_(server, editor_->user(), editor_->session()) {}

  Status Type(DocumentId doc, size_t pos, const std::string& text) override {
    return Tracer::Active() ? sequence_.Type(doc, pos, text)
                            : editor_->Type(doc, pos, text);
  }
  Status Erase(DocumentId doc, size_t pos, size_t len) override {
    return Tracer::Active() ? sequence_.Erase(doc, pos, len)
                            : editor_->Erase(doc, pos, len);
  }
  Status CopyPaste(DocumentId doc, size_t from, size_t len,
                   size_t to) override {
    const bool traced = Tracer::Active();
    auto clip = traced ? sequence_.Copy(doc, from, len)
                       : editor_->CopyRange(doc, from, len);
    if (!clip.ok()) return clip.status();
    return traced ? sequence_.Paste(doc, to, *clip)
                  : editor_->PasteAt(doc, to, *clip);
  }
  Status Undo(DocumentId doc) override {
    return Tracer::Active() ? sequence_.Undo(doc) : editor_->Undo(doc);
  }
  Status Open(DocumentId doc) override { return editor_->Open(doc); }
  Status Poll(uint64_t* events, bool* resync) override {
    ScopedSpan span(SpanName::kSessionPoll);
    auto polled = editor_->PollEvents();
    if (!polled.ok()) return polled.status();
    for (const ChangeEvent& ev : *polled) {
      if (ev.kind == ChangeKind::kResync) {
        *resync = true;
      } else {
        ++*events;
      }
    }
    return Status::OK();
  }
  UserId user() const override { return editor_->user(); }

 private:
  std::unique_ptr<Editor> editor_;
  EditorSequence sequence_;
};

// ---------------------------------------------------------------------------
// Gesture timing

/// Runs and books one gesture: latency from `from_ns` (given by an
/// open-loop client's `OpenLoop`; the start otherwise) to completion.
template <typename Body>
bool Gesture(const Phase& phase, WorkerLog& log, Op op, SpanName root,
             Body&& body, int64_t from_ns = 0) {
  const int slice = phase.slice();
  ++log.attempted;
  const int64_t start = NowNs();
  Status st;
  {
    RootSpan span(root, phase.Traced(slice));
    st = body();
  }
  const int64_t end = NowNs();
  if (!st.ok()) {
    log.Fail(std::string(SpanNameString(root)) + ": " + st.ToString());
    return false;
  }
  if (IsEdit(op)) ++log.edits;
  log.Record(slice, op, end - (from_ns != 0 ? from_ns : start));
  return true;
}

/// The schedule of an open-loop client: one request every `period_ns` on
/// average, whether or not the previous one has finished. Each gap is drawn
/// uniformly from half to one and a half periods, so clients with equal
/// periods do not lock into a fixed phase against each other (two of them
/// that did made undo_p50_us read 0.37 ms in one run and 3.3 ms in the
/// next, depending on whether undos met searches). A request's latency runs
/// from its due time when the client's previous request was still running
/// then, so the wait a slow request imposes on later ones counts. Otherwise
/// it runs from the request's start: a late start while the system was
/// idle is the generator's own lag (a descheduled or waking client thread),
/// booked as `Op::kLag`, not latency of the system.
class OpenLoop {
 public:
  OpenLoop(const Phase* phase, int64_t period_ns, uint64_t seed)
      : phase_(phase), period_(period_ns), rng_(seed), due_(NowNs()) {}

  /// Waits for the next request's due time; false once the timed window
  /// has ended. Call right after the previous request completes.
  bool Next(WorkerLog& log) {
    const int64_t previous_end = NowNs();
    due_ += period_ / 2 + static_cast<int64_t>(rng_.Uniform(period_));
    for (;;) {
      if (!phase_->running()) return false;
      const int64_t left = due_ - NowNs();
      if (left <= 0) break;
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(std::min<int64_t>(left, 50'000'000)));
    }
    const int64_t start = NowNs();
    log.Record(phase_->slice(), Op::kLag, start - due_);
    from_ = previous_end > due_ ? due_ : start;
    return true;
  }
  /// Where the latency of the request now due starts.
  int64_t from() const { return from_; }

 private:
  const Phase* const phase_;
  const int64_t period_;
  Rng rng_;
  int64_t due_;
  int64_t from_ = 0;
};

/// Applies one client-side edit to a shadow text and remembers how to
/// revert it, so local undo can be mirrored exactly (a single writer's
/// undo always reverts its newest not-yet-undone gesture).
template <typename Text>
struct ShadowEdits {
  struct Edit {
    size_t pos;
    std::string text;
    bool inserted;
  };
  std::vector<Edit> undo;

  void Insert(Text& t, size_t pos, const std::string& s) {
    t.insert(pos, s);
    undo.push_back(Edit{pos, s, true});
  }
  void Erase(Text& t, size_t pos, size_t n) {
    undo.push_back(Edit{pos, t.substr(pos, n), false});
    t.erase(pos, n);
  }
  /// Mirrors a successful Undo; returns the cursor after it.
  size_t Undo(Text& t) {
    Edit e = std::move(undo.back());
    undo.pop_back();
    if (e.inserted) {
      t.erase(e.pos, e.text.size());
      return e.pos;
    }
    t.insert(e.pos, e.text);
    return e.pos + e.text.size();
  }
};

/// A long text as 1k-4k character chunks, so shadowing edits of a 1M-char
/// document costs the benchmark microseconds rather than a memmove each.
class ChunkedText {
 public:
  explicit ChunkedText(const std::string& s) {
    for (size_t i = 0; i < s.size(); i += 2048) {
      chunks_.push_back(s.substr(i, 2048));
    }
    if (chunks_.empty()) chunks_.emplace_back();
    size_ = s.size();
  }
  size_t size() const { return size_; }

  void insert(size_t pos, const std::string& s) {
    auto [i, off] = Locate(pos);
    chunks_[i].insert(off, s);
    size_ += s.size();
    if (chunks_[i].size() > 4096) {
      std::string tail = chunks_[i].substr(2048);
      chunks_[i].resize(2048);
      chunks_.insert(chunks_.begin() + i + 1, std::move(tail));
    }
  }
  void erase(size_t pos, size_t n) {
    size_ -= n;
    while (n > 0) {
      auto [i, off] = Locate(pos);
      const size_t take = std::min(n, chunks_[i].size() - off);
      chunks_[i].erase(off, take);
      n -= take;
      if (chunks_[i].empty() && chunks_.size() > 1) {
        chunks_.erase(chunks_.begin() + i);
      }
    }
  }
  std::string substr(size_t pos, size_t n) const {
    std::string out;
    while (n > 0) {
      auto [i, off] = Locate(pos);
      const size_t take = std::min(n, chunks_[i].size() - off);
      out.append(chunks_[i], off, take);
      pos += take;
      n -= take;
    }
    return out;
  }
  std::string str() const {
    std::string out;
    out.reserve(size_);
    for (const auto& c : chunks_) out += c;
    return out;
  }

 private:
  /// Chunk and offset of `pos`; the end of a chunk maps to the start of
  /// the next one, the end of the text to the end of the last chunk.
  std::pair<size_t, size_t> Locate(size_t pos) const {
    size_t i = 0;
    while (i + 1 < chunks_.size() && pos >= chunks_[i].size()) {
      pos -= chunks_[i].size();
      ++i;
    }
    return {i, pos};
  }

  std::vector<std::string> chunks_;
  size_t size_ = 0;
};

// ---------------------------------------------------------------------------
// The workload

/// One closed-loop typist on a 1M-char document, plus side traffic: in
/// process on large_doc, a remote editor on remote_doc.
class Workload {
 public:
  static constexpr size_t kLoadChunk = 16'384;
  static constexpr size_t kViewport = 2'000;

  static constexpr size_t kDocChars = 1'000'000;

  Workload(uint64_t seed, bool remote_typist)
      : seed_(seed), vocab_(seed, 3000), remote_typist_(remote_typist) {
    Rng rng(seed);
    initial_ = vocab_.Text(rng, kDocChars);
  }

  TendaxServer* server() { return env_.server.get(); }
  Env& env() { return env_; }

  /// Builds the database state from the generated inputs (timed).
  Status Setup() {
    TENDAX_RETURN_IF_ERROR(OpenEnv(&env_));
    auto host = Attach(server(), "host");
    if (!host.ok()) return host.status();
    auto doc = (*host)->CreateDocument("document.txt");
    if (!doc.ok()) return doc.status();
    doc_ = *doc;
    for (size_t at = 0; at < initial_.size(); at += kLoadChunk) {
      TENDAX_RETURN_IF_ERROR(
          (*host)->Type(doc_, at, initial_.substr(at, kLoadChunk)));
    }
    TENDAX_RETURN_IF_ERROR((*host)->Close(doc_));
    auto version = server()->text()->CurrentVersion(doc_);
    if (!version.ok()) return version.status();
    version_ = *version;
    auto typist = Attach(server(), "typist");
    if (!typist.ok()) return typist.status();
    if (remote_typist_) {
      typist_ = std::make_unique<RemoteClient>(server(), std::move(*typist),
                                               seed_ + 2);
    } else {
      typist_ = std::make_unique<LocalClient>(server(), std::move(*typist));
    }
    TENDAX_RETURN_IF_ERROR(typist_->Open(doc_));
    auto browser = Attach(server(), "browser");
    if (!browser.ok()) return browser.status();
    browser_ = std::make_unique<RemoteClient>(server(), std::move(*browser),
                                              seed_ + 1);
    TENDAX_RETURN_IF_ERROR(CreateFolders(browser_->user(), typist_->user()));
    return WarmSearch();
  }

  /// One body per client thread; each runs until the window ends.
  std::vector<std::function<void(WorkerLog&)>> Workers(const Phase* phase) {
    return {[this, phase](WorkerLog& log) { Type(phase, log); },
            [this, phase](WorkerLog& log) { Searcher(phase, log); },
            [this, phase](WorkerLog& log) { Browse(phase, log); }};
  }

  /// Output checks once every client has stopped.
  void Check(RunResult* result) {
    ++result->checks;
    auto text = server()->text()->Text(doc_);
    if (!text.ok()) {
      result->check_failures.push_back("final Text: " +
                                       text.status().ToString());
    } else if (shadow_ == nullptr || *text != shadow_->str()) {
      result->check_failures.push_back("text differs from the shadow copy");
    }
  }

 private:
  /// One 2-term search with the n-th ranking.
  /// "Most cited" is left out: it rebuilds the lineage graph over every
  /// character of the corpus per query (seconds at 1M chars), which would
  /// leave the other reads of a run unmeasured.
  void Search(const Phase* phase, WorkerLog& log, Rng& rng, uint64_t n,
              int64_t from) {
    static const Ranking kRankings[] = {Ranking::kRelevance, Ranking::kNewest,
                                        Ranking::kMostRead};
    const std::string query = vocab_.Word(rng) + " " + vocab_.Word(rng);
    log.dirty_docs += server()->search()->DirtyDocuments();
    ++log.searches;
    Gesture(*phase, log, Op::kSearch, SpanName::kSearch, [&] {
      ScopedSpan span(SpanName::kSearchQuery);
      return server()->search()->Search(query, kRankings[n % 3]).status();
    }, from);
  }

  void ListFolder(const Phase* phase, WorkerLog& log, uint64_t n,
                  int64_t from) {
    Gesture(*phase, log, Op::kFolders, SpanName::kFolders, [&] {
      ScopedSpan span(SpanName::kFoldersContents);
      return server()->folders()->DynamicContents(folders_[n % 2]).status();
    }, from);
  }

  /// The two dynamic folders the browser lists: documents `reader` read
  /// and documents `writer` edited within the last hour.
  Status CreateFolders(UserId reader, UserId writer) {
    auto read = server()->folders()->CreateDynamicFolder(
        "read-by-reader", FolderQuery::ReadBy(reader, kHourMicros));
    if (!read.ok()) return read.status();
    auto edited = server()->folders()->CreateDynamicFolder(
        "edited-by-writer", FolderQuery::EditedBy(writer, kHourMicros));
    if (!edited.ok()) return edited.status();
    folders_ = {*read, *edited};
    return Status::OK();
  }

  /// Builds the search index over the set-up corpus, as a server would
  /// before taking queries.
  Status WarmSearch() {
    return server()->search()->Search(vocab_.WordAt(0)).status();
  }

  /// Side traffic from two open-loop users, so that a long search never
  /// delays another kind's request: a searcher and a browser cycling open,
  /// time travel and folder listing, each kind every kSidePeriodNs.
  /// Each search reindexes the edited document, about 80 ms at 1M chars on
  /// a 4-vCPU Xeon VM, so more searches would not fit in one CPU.
  void Searcher(const Phase* phase, WorkerLog& log) {
    Rng rng(seed_ ^ 0x5EA4C4ULL);
    OpenLoop loop(phase, kSidePeriodNs, seed_ ^ 0x5EA4ULL);
    for (uint64_t n = 0; loop.Next(log); ++n) {
      Search(phase, log, rng, n, loop.from());
    }
  }

  void Browse(const Phase* phase, WorkerLog& log) {
    OpenLoop loop(phase, kSidePeriodNs / 3, seed_ ^ 0xB40ULL);
    for (uint64_t n = 0; loop.Next(log); ++n) {
      switch (n % 3) {
        case 0:
          Gesture(*phase, log, Op::kOpen, SpanName::kOpen, [&] {
            TENDAX_RETURN_IF_ERROR(browser_->Open(doc_));
            return browser_->Close(doc_);
          }, loop.from());
          break;
        case 1:
          Gesture(*phase, log, Op::kTimeTravel, SpanName::kTimeTravel, [&] {
            auto t = browser_->TextAt(doc_, version_);
            if (!t.ok()) return t.status();
            if (*t != initial_) {
              return Status::Corruption("time travel text differs");
            }
            return Status::OK();
          }, loop.from());
          break;
        default:
          ListFolder(phase, log, n / 3, loop.from());
      }
    }
  }

  /// One gesture per step: a change-stream poll every 16th, a viewport
  /// read every 8th, else an edit.
  void Type(const Phase* phase, WorkerLog& log) {
    shadow_ = std::make_unique<ChunkedText>(initial_);
    ChunkedText& shadow = *shadow_;
    ShadowEdits<ChunkedText> edits;
    Rng rng(seed_ * 0x51ED + 7);
    tendax::TextStore* text = server()->text();
    size_t cursor = 0;
    std::string word;
    size_t word_at = 0;
    int64_t paste_due = NowNs() + kSidePeriodNs;
    bool pasted = false;
    for (uint64_t g = 0; phase->running(); ++g) {
      if (g % 64 == 0) cursor = rng.Uniform(shadow.size() + 1);
      if (g % 16 == 3) {
        uint64_t events = 0;
        bool resync = false;
        if (Gesture(*phase, log, Op::kPoll, SpanName::kPoll,
                    [&] { return typist_->Poll(&events, &resync); }) &&
            phase->slice() >= 0) {
          log.events += events;
        }
      } else if (g % 8 == 7) {
        const size_t pos = cursor > kViewport / 2 ? cursor - kViewport / 2 : 0;
        const size_t n = std::min(kViewport, shadow.size() - pos);
        std::string got;
        if (Gesture(*phase, log, Op::kView, SpanName::kView, [&] {
              auto t = Tracer::Active() ? TracedTextRange(text, doc_, pos, n)
                                        : text->TextRange(doc_, pos, n);
              if (!t.ok()) return t.status();
              got = std::move(*t);
              return Status::OK();
            }) &&
            got != shadow.substr(pos, n)) {
          log.Fail("viewport differs from the shadow copy");
        }
      // Side traffic: every kSidePeriodNs the typist pastes 40 chars an
      // eighth of the way into the document and takes the paste back. Copy
      // and undo cost grows with the position, so a fixed position keeps it
      // the same in every run. These are the workloads' only undos: undoing
      // a backspace reloads the whole document's order cache (about a
      // second at 1M chars on a 4-vCPU Xeon VM), which would make the run
      // measure that alone.
      } else if (!pasted && NowNs() >= paste_due) {
        // Jittered like OpenLoop's gaps, for the same reason.
        paste_due += kSidePeriodNs / 2 +
                     static_cast<int64_t>(rng.Uniform(kSidePeriodNs));
        cursor = shadow.size() / 8;
        const std::string clip = shadow.substr(cursor - 40, 40);
        if (Gesture(*phase, log, Op::kPaste, SpanName::kPaste, [&] {
              return typist_->CopyPaste(doc_, cursor - 40, 40, cursor);
            })) {
          edits.Insert(shadow, cursor, clip);
          cursor += 40;
          pasted = true;
        }
      } else if (pasted) {
        pasted = false;
        if (Gesture(*phase, log, Op::kUndo, SpanName::kUndo,
                    [&] { return typist_->Undo(doc_); })) {
          cursor = edits.Undo(shadow);
        }
      } else if (rng.Chance(0.10) && cursor > 0) {
        if (Gesture(*phase, log, Op::kKeystroke, SpanName::kKeystroke,
                    [&] { return typist_->Erase(doc_, cursor - 1, 1); })) {
          edits.Erase(shadow, --cursor, 1);
        }
      } else {
        if (word_at >= word.size()) {
          word = vocab_.Word(rng) + " ";
          word_at = 0;
        }
        const std::string ch(1, word[word_at]);
        if (Gesture(*phase, log, Op::kKeystroke, SpanName::kKeystroke,
                    [&] { return typist_->Type(doc_, cursor, ch); })) {
          edits.Insert(shadow, cursor++, ch);
          ++word_at;
        }
      }
    }
  }

  const uint64_t seed_;
  Vocabulary vocab_;
  const bool remote_typist_;
  Env env_;
  std::vector<FolderId> folders_;
  std::string initial_;
  DocumentId doc_;
  Version version_ = 0;
  std::unique_ptr<Typist> typist_;
  std::unique_ptr<RemoteClient> browser_;
  std::unique_ptr<ChunkedText> shadow_;
};

// ---------------------------------------------------------------------------
// Runner

std::unique_ptr<Workload> Make(const std::string& name, uint64_t seed) {
  if (name == "large_doc") return std::make_unique<Workload>(seed, false);
  if (name == "remote_doc") return std::make_unique<Workload>(seed, true);
  return nullptr;
}

uint64_t EditAuditRows(TendaxServer* server) {
  uint64_t rows = 0;
  (void)server->meta()->VisitAudit([&rows](const tendax::AuditEntry& e) {
    if (e.kind == tendax::AuditKind::kEdit) ++rows;
    return true;
  });
  return rows;
}

void TakeCounters(Env& env, WindowCounters* w, bool after) {
  auto take = [](uint64_t now, uint64_t* field, bool delta) {
    *field = delta ? now - *field : now;
  };
  take(env.log->bytes.load(), &w->log_bytes, after);
  take(env.log->syncs.load(), &w->log_syncs, after);
  take(env.disk->reads.load(), &w->page_reads, after);
  take(env.disk->writes.load(), &w->page_writes, after);
  (after ? w->registry_after : w->registry_before) =
      env.server->metrics()->Snapshot();
}

}  // namespace

bool RunWorkload(const RunConfig& config, RunResult* result,
                 std::string* error) {
  if (Make(config.workload, config.seed) == nullptr) {
    *error = "unknown workload '" + config.workload + "'";
    return false;
  }
  std::unique_ptr<Workload> w;
  for (int s = 0; s < config.setups; ++s) {
    w.reset();
    w = Make(config.workload, config.seed);  // input generation: untimed
    const int64_t start = NowNs();
    Status st = w->Setup();
    result->setup_s.push_back((NowNs() - start) / 1e9);
    if (!st.ok()) {
      *error = "setup failed: " + st.ToString();
      return false;
    }
  }
  result->setup_rss_mib = PeakRssMiB();

  const TendaxOptions& o = w->env().options;
  result->options = {
      {"backing", "memory"},
      {"commit_flush", CommitFlushName(o.db.group_commit.mode)},
      {"buffer_pool_pages", std::to_string(o.db.buffer_pool_pages)},
      {"sync_commit", o.db.sync_commit ? "true" : "false"},
      {"mvcc_snapshots", o.mvcc_snapshots ? "true" : "false"},
      {"metrics_enabled", o.metrics_enabled ? "true" : "false"},
  };

  const auto slice = std::chrono::duration<double>(
      static_cast<double>(config.seconds) / config.slices);
  Phase phase;
  phase.Configure(config.slices, config.trace);
  phase.Set(-1);
  const uint64_t audit_before = EditAuditRows(w->server());
  auto bodies = w->Workers(&phase);
  result->logs.resize(bodies.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < bodies.size(); ++i) {
    threads.emplace_back(bodies[i], std::ref(result->logs[i]));
  }
  const auto t0 = std::chrono::steady_clock::now() +
                  std::chrono::duration<double>(config.warmup_s);
  std::this_thread::sleep_until(t0);
  TakeCounters(w->env(), &result->window, false);
  const int64_t window_start = NowNs();
  for (int s = 0; s < config.slices; ++s) {
    phase.Set(s);
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 slice * (s + 1)));
  }
  phase.Set(config.slices);
  TakeCounters(w->env(), &result->window, true);
  result->slice_seconds = (NowNs() - window_start) / 1e9 / config.slices;
  for (auto& t : threads) t.join();

  w->Check(result);
  for (const WorkerLog& log : result->logs) result->edits_total += log.edits;
  result->audit_edit_rows = EditAuditRows(w->server()) - audit_before;
  ++result->checks;
  if (result->audit_edit_rows != result->edits_total) {
    result->check_failures.push_back(
        "edit audit rows " + std::to_string(result->audit_edit_rows) +
        " != committed edit gestures " + std::to_string(result->edits_total));
  }
  ++result->checks;
  Status integrity = w->server()->CheckIntegrity();
  if (!integrity.ok()) {
    result->check_failures.push_back("CheckIntegrity: " +
                                     integrity.ToString());
  }
  return true;
}

}  // namespace keybench
