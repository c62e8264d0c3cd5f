#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>

#include "bench.h"

namespace keybench {
namespace {

struct ThreadTrace {
  std::vector<SpanRecord> spans;
  int32_t open = -1;  // innermost open span
  bool active = false;
  uint64_t request = 0;
  // Per-gesture commit-chain state (see Tracer::NoteSync).
  int syncs = 0;
  int64_t first_sync_return_ns = 0;
  bool chain_recorded = false;
};

// Owns every thread's buffer so spans outlive the worker threads.
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadTrace>> g_threads;
std::atomic<uint64_t> g_next_request{1};

ThreadTrace* Local() {
  thread_local ThreadTrace* local = [] {
    std::lock_guard<std::mutex> lock(g_mu);
    g_threads.push_back(std::make_unique<ThreadTrace>());
    return g_threads.back().get();
  }();
  return local;
}

int32_t Open(ThreadTrace* t, SpanName name) {
  SpanRecord rec;
  rec.start_ns = NowNs();
  rec.request = t->request;
  rec.parent = t->open;
  rec.name = name;
  t->spans.push_back(rec);
  t->open = static_cast<int32_t>(t->spans.size() - 1);
  return t->open;
}

void Close(ThreadTrace* t, int32_t index) {
  SpanRecord& rec = t->spans[index];
  rec.end_ns = NowNs();
  t->open = rec.parent;
}

}  // namespace

const char* SpanNameString(SpanName name) {
  static const char* const kNames[] = {
      "keystroke",        "paste",          "undo",
      "view",             "poll",           "search",
      "open",             "time_travel",    "folders",
      "collab.wire",      "collab.session.poll", "collab.session.open",
      "security.require", "text.edit",      "text.read",
      "text.copy",        "text.paste",     "text.snapshot_acquire",
      "collab.undo.record", "collab.undo.apply", "txn.listener_chain",
      "storage.log.append", "storage.log.sync", "storage.page.read",
      "storage.page.write", "search.query", "folders.contents"};
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                static_cast<size_t>(SpanName::kCount));
  return kNames[static_cast<size_t>(name)];
}

bool Tracer::Active() { return Local()->active; }

void Tracer::Record(SpanName name, int64_t start_ns, int64_t end_ns) {
  ThreadTrace* t = Local();
  if (!t->active) return;
  SpanRecord rec;
  rec.start_ns = start_ns;
  rec.end_ns = end_ns;
  rec.request = t->request;
  rec.parent = t->open;
  rec.name = name;
  t->spans.push_back(rec);
}

void Tracer::NoteSync(int64_t return_ns) {
  ThreadTrace* t = Local();
  if (!t->active) return;
  if (t->syncs++ == 0) t->first_sync_return_ns = return_ns;
}

void Tracer::NoteEditCommitted(int64_t now_ns) {
  ThreadTrace* t = Local();
  if (!t->active || t->chain_recorded || t->syncs < 2) return;
  t->chain_recorded = true;
  Record(SpanName::kListenerChain, t->first_sync_return_ns, now_ns);
}

ScopedSpan::ScopedSpan(SpanName name) {
  ThreadTrace* t = Local();
  if (t->active) index_ = Open(t, name);
}

ScopedSpan::~ScopedSpan() {
  if (index_ >= 0) Close(Local(), index_);
}

RootSpan::RootSpan(SpanName name, bool traced) {
  if (!traced) return;
  ThreadTrace* t = Local();
  t->active = true;
  t->request = g_next_request.fetch_add(1, std::memory_order_relaxed);
  t->syncs = 0;
  t->chain_recorded = false;
  index_ = Open(t, name);
}

RootSpan::~RootSpan() {
  if (index_ < 0) return;
  ThreadTrace* t = Local();
  Close(t, index_);
  t->active = false;
}

Tracer::Summary Tracer::Analyze() {
  Summary out;
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& thread : g_threads) {
    const std::vector<SpanRecord>& spans = thread->spans;
    std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
    for (const SpanRecord& s : spans) {
      if (s.parent >= 0) kids[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      // Union of the children's intervals, clipped to the parent. Children
      // may overlap: the listener chain spans the audit row's log sync.
      auto& iv = kids[i];
      std::sort(iv.begin(), iv.end());
      int64_t covered = 0, cur_start = 0, cur_end = INT64_MIN;
      for (auto [b, e] : iv) {
        b = std::max(b, s.start_ns);
        e = std::min(e, s.end_ns);
        if (e <= b) continue;
        if (b > cur_end) {
          if (cur_end > cur_start) covered += cur_end - cur_start;
          cur_start = b;
          cur_end = e;
        } else {
          cur_end = std::max(cur_end, e);
        }
      }
      if (cur_end > cur_start) covered += cur_end - cur_start;
      const int64_t dur = s.end_ns - s.start_ns;
      out.self_ns[s.name].push_back(static_cast<double>(dur - covered));
      if (s.name == SpanName::kKeystroke && dur > 0) {
        out.keystroke_coverage_pct.push_back(100.0 * covered / dur);
      }
    }
  }
  return out;
}

bool Tracer::Write(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread\tindex\tparent\trequest\tname\tstart_ns\tend_ns\n");
  std::lock_guard<std::mutex> lock(g_mu);
  for (size_t t = 0; t < g_threads.size(); ++t) {
    const auto& spans = g_threads[t]->spans;
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      std::fprintf(f, "%zu\t%zu\t%d\t%llu\t%s\t%lld\t%lld\n", t, i, s.parent,
                   static_cast<unsigned long long>(s.request),
                   SpanNameString(s.name), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace keybench
