#include "search/search_engine.h"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "util/deadline.h"

namespace tendax {

const char* RankingName(Ranking ranking) {
  switch (ranking) {
    case Ranking::kRelevance:
      return "relevance";
    case Ranking::kNewest:
      return "newest";
    case Ranking::kMostCited:
      return "most-cited";
    case Ranking::kMostRead:
      return "most-read";
  }
  return "?";
}

namespace {

/// Calls fn(token) for every maximal run of ASCII letters and digits in
/// `text`, lowercased: the C locale's isalnum/tolower, without a library
/// call per byte (indexing a long document tokenizes every byte).
template <typename Fn>
void ForEachToken(const std::string& text, const Fn& fn) {
  std::string current;
  for (unsigned char c : text) {
    if (c >= 'A' && c <= 'Z') c |= 0x20;
    if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) {
      current.push_back(static_cast<char>(c));
    } else if (!current.empty()) {
      fn(current);
      current.clear();
    }
  }
  if (!current.empty()) fn(current);
}

}  // namespace

std::vector<std::string> Tokenize(const std::string& text) {
  std::vector<std::string> out;
  ForEachToken(text, [&](const std::string& token) { out.push_back(token); });
  return out;
}

SearchEngine::SearchEngine(Database* db, TextStore* text, MetaStore* meta,
                           DocumentModel* docs, LineageAnalyzer* lineage)
    : db_(db), text_(text), meta_(meta), docs_(docs), lineage_(lineage) {}

Status SearchEngine::Init() {
  for (DocumentId doc : text_->ListDocuments()) {
    TENDAX_RETURN_IF_ERROR(IndexDocument(doc));
  }
  db_->txns()->AddCommitListener(
      [this](TxnId, UserId, const ChangeBatch& batch) {
        for (const ChangeEvent& ev : batch) {
          if (!ev.doc.valid()) continue;
          switch (ev.kind) {
            case ChangeKind::kTextInserted:
            case ChangeKind::kTextDeleted:
            case ChangeKind::kDocumentCreated:
            case ChangeKind::kDocumentRenamed:
            case ChangeKind::kUndoApplied:
            case ChangeKind::kRedoApplied:
              if (eager_.load(std::memory_order_relaxed)) {
                // A failed eager reindex leaves the previous postings; the
                // commit listener cannot fail the already-committed txn.
                (void)IndexDocument(ev.doc);
              } else {
                MutexLock lock(mu_);
                dirty_docs_.insert(ev.doc.value);
              }
              break;
            default:
              break;
          }
        }
      });
  return Status::OK();
}

Status SearchEngine::IndexDocument(DocumentId doc) {
  // One MVCC snapshot gives version, text and name from the same committed
  // state — the three reads can never straddle a concurrent edit (the
  // legacy path below performed them independently and could index text of
  // version N+1 under version N).
  Version version;
  std::string content;
  std::string name;
  if (text_->snapshots_enabled()) {
    auto snap = text_->AcquireSnapshot(doc);
    if (!snap.ok()) return snap.status();
    version = (*snap)->version();
    content = (*snap)->Text();
    name = (*snap)->info().name;
  } else {
    auto v = text_->CurrentVersion(doc);
    if (!v.ok()) return v.status();
    version = *v;
    auto c = text_->Text(doc);
    if (!c.ok()) return c.status();
    content = std::move(*c);
    auto info = text_->GetDocumentInfo(doc);
    name = info.ok() ? info->name : "";
  }
  {
    MutexLock lock(mu_);
    auto it = indexed_version_.find(doc.value);
    if (it != indexed_version_.end() && it->second >= version) {
      dirty_docs_.erase(doc.value);
      return Status::OK();  // already fresh (events may arrive out of order)
    }
  }

  // Postings are built outside the lock; the shared index then changes
  // only where a term appeared in or vanished from the document, so a
  // reindex costs one map lookup per token plus one update per changed
  // term, not one per token.
  DocPostings postings;
  auto add = [&postings](const std::string& token) {
    auto at = postings.positions.find(token);
    if (at == postings.positions.end()) {
      at = postings.positions.emplace(token, std::vector<size_t>()).first;
    }
    at->second.push_back(postings.term_count++);
  };
  ForEachToken(content, add);
  ForEachToken(name, add);

  MutexLock lock(mu_);
  auto it = indexed_version_.find(doc.value);
  if (it != indexed_version_.end() && it->second >= version) {
    dirty_docs_.erase(doc.value);
    return Status::OK();  // a concurrent reindex installed a newer version
  }
  DocPostings& old = doc_postings_[doc.value];
  for (const auto& [term, positions] : old.positions) {
    if (postings.positions.count(term) != 0) continue;
    auto td = term_docs_.find(term);
    if (td != term_docs_.end()) {
      td->second.erase(doc.value);
      if (td->second.empty()) term_docs_.erase(td);
    }
  }
  for (const auto& [term, positions] : postings.positions) {
    if (old.positions.count(term) == 0) term_docs_[term].insert(doc.value);
  }
  std::swap(old, postings);  // the old postings are freed after unlocking
  indexed_version_[doc.value] = version;
  dirty_docs_.erase(doc.value);
  return Status::OK();
}

Status SearchEngine::FlushDirty() {
  std::vector<uint64_t> dirty;
  {
    MutexLock lock(mu_);
    dirty.assign(dirty_docs_.begin(), dirty_docs_.end());
  }
  for (uint64_t doc : dirty) {
    TENDAX_RETURN_IF_ERROR(IndexDocument(DocumentId(doc)));
  }
  return Status::OK();
}

double SearchEngine::TfIdf(const std::vector<std::string>& terms,
                           uint64_t doc) const {
  auto dp = doc_postings_.find(doc);
  if (dp == doc_postings_.end() || dp->second.term_count == 0) return 0;
  double n_docs = static_cast<double>(doc_postings_.size());
  double score = 0;
  for (const std::string& term : terms) {
    auto pos = dp->second.positions.find(term);
    if (pos == dp->second.positions.end()) continue;
    double tf = static_cast<double>(pos->second.size()) /
                static_cast<double>(dp->second.term_count);
    auto td = term_docs_.find(term);
    double df = td == term_docs_.end()
                    ? 1
                    : static_cast<double>(td->second.size());
    score += tf * std::log(1.0 + n_docs / df);
  }
  return score;
}

Result<double> SearchEngine::RankScore(DocumentId doc, Ranking ranking,
                                       const std::vector<std::string>& terms) {
  switch (ranking) {
    case Ranking::kRelevance: {
      MutexLock lock(mu_);
      return TfIdf(terms, doc.value);
    }
    case Ranking::kNewest: {
      auto meta = meta_->Meta(doc);
      return static_cast<double>(meta.last_edit_at);
    }
    case Ranking::kMostCited: {
      auto cites = lineage_->CitationCount(doc);
      if (!cites.ok()) return cites.status();
      return static_cast<double>(*cites);
    }
    case Ranking::kMostRead: {
      auto meta = meta_->Meta(doc);
      return static_cast<double>(meta.total_reads);
    }
  }
  return Status::InvalidArgument("unknown ranking");
}

Status SearchEngine::ApplyFilter(const SearchFilter& filter,
                                 const std::vector<std::string>& terms,
                                 std::set<uint64_t>* candidates) {
  if (filter.author.has_value() || filter.edited_since != 0) {
    for (auto it = candidates->begin(); it != candidates->end();) {
      auto meta = meta_->Meta(DocumentId(*it));
      bool keep = true;
      if (filter.author.has_value() &&
          !meta.authors.count(*filter.author)) {
        keep = false;
      }
      if (filter.edited_since != 0 &&
          meta.last_edit_at < filter.edited_since) {
        keep = false;
      }
      it = keep ? std::next(it) : candidates->erase(it);
    }
  }
  if (filter.state.has_value()) {
    for (auto it = candidates->begin(); it != candidates->end();) {
      auto info = text_->GetDocumentInfo(DocumentId(*it));
      bool keep = info.ok() && info->state == *filter.state;
      it = keep ? std::next(it) : candidates->erase(it);
    }
  }
  if (filter.element_type.has_value()) {
    // Structure search: at least one query term must occur inside an
    // element of the requested type.
    for (auto it = candidates->begin(); it != candidates->end();) {
      DocumentId doc(*it);
      bool keep = false;
      auto tree = docs_->ElementTree(doc);
      if (tree.ok()) {
        for (const ElementInfo& e : *tree) {
          if (e.type != *filter.element_type) continue;
          if (!e.start_pos || !e.end_pos) continue;
          auto piece =
              text_->TextRange(doc, *e.start_pos,
                               *e.end_pos - *e.start_pos + 1);
          if (!piece.ok()) continue;
          std::vector<std::string> inside = Tokenize(*piece);
          for (const std::string& term : terms) {
            if (std::find(inside.begin(), inside.end(), term) !=
                inside.end()) {
              keep = true;
              break;
            }
          }
          if (keep) break;
        }
      }
      it = keep ? std::next(it) : candidates->erase(it);
    }
  }
  return Status::OK();
}

std::string SearchEngine::Snippet(DocumentId doc, const std::string& term) {
  auto content = text_->Text(doc);
  if (!content.ok()) return "";
  // `term` is a lowercase token: compare against the text lowercased on
  // the fly, so the scan stops at the first hit and copies nothing.
  auto hit = std::search(content->begin(), content->end(), term.begin(),
                         term.end(), [](unsigned char c, char t) {
                           return std::tolower(c) == t;
                         });
  if (hit == content->end()) return content->substr(0, 40);
  size_t at = static_cast<size_t>(hit - content->begin());
  size_t start = at > 20 ? at - 20 : 0;
  std::string snip = content->substr(start, 60);
  for (char& c : snip) {
    if (c == '\n') c = ' ';
  }
  return (start > 0 ? "..." : "") + snip +
         (start + 60 < content->size() ? "..." : "");
}

Result<std::vector<SearchResult>> SearchEngine::Search(
    const std::string& query, Ranking ranking, const SearchFilter& filter,
    size_t limit) {
  std::vector<std::string> terms = Tokenize(query);
  if (terms.empty()) return Status::InvalidArgument("empty query");
  TENDAX_RETURN_IF_ERROR(FlushDirty());

  std::set<uint64_t> candidates;
  {
    MutexLock lock(mu_);
    bool first = true;
    for (const std::string& term : terms) {
      auto it = term_docs_.find(term);
      std::set<uint64_t> docs =
          it == term_docs_.end() ? std::set<uint64_t>() : it->second;
      if (first) {
        candidates = std::move(docs);
        first = false;
      } else {
        std::set<uint64_t> kept;
        std::set_intersection(candidates.begin(), candidates.end(),
                              docs.begin(), docs.end(),
                              std::inserter(kept, kept.begin()));
        candidates = std::move(kept);
      }
      if (candidates.empty()) break;
    }
  }
  TENDAX_RETURN_IF_ERROR(ApplyFilter(filter, terms, &candidates));

  // "Most cited" needs the provenance graph: build it once per query, not
  // once per candidate.
  std::unordered_map<uint64_t, uint64_t> citations;
  if (ranking == Ranking::kMostCited) {
    auto graph = lineage_->BuildGraph();
    if (!graph.ok()) return graph.status();
    std::unordered_map<uint64_t, std::set<uint64_t>> citing;
    for (const auto& [edge, count] : graph->internal_edges) {
      citing[edge.first].insert(edge.second);
    }
    for (const auto& [doc, dsts] : citing) {
      citations[doc] = dsts.size();
    }
  }

  std::vector<SearchResult> results;
  for (uint64_t doc : candidates) {
    // The per-candidate scoring loop is the unbounded part of a query (a
    // broad term can match every document), so it honors the caller's
    // request deadline: better a typed refusal than a result nobody is
    // still waiting for.
    if (RequestDeadline::Expired()) {
      return Status::DeadlineExceeded("request deadline expired mid-scan");
    }
    SearchResult r;
    r.doc = DocumentId(doc);
    if (ranking == Ranking::kMostCited) {
      auto it = citations.find(doc);
      r.score = it == citations.end() ? 0 : static_cast<double>(it->second);
    } else {
      auto score = RankScore(r.doc, ranking, terms);
      if (!score.ok()) return score.status();
      r.score = *score;
    }
    results.push_back(std::move(r));
  }
  std::sort(results.begin(), results.end(),
            [](const SearchResult& a, const SearchResult& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.doc < b.doc;
            });
  if (results.size() > limit) results.resize(limit);
  // Names and snippets are presentation data: only fetch them for the
  // results actually returned.
  for (SearchResult& r : results) {
    auto info = text_->GetDocumentInfo(r.doc);
    if (info.ok()) r.name = info->name;
    r.snippet = Snippet(r.doc, terms.front());
  }
  return results;
}

Result<std::vector<SearchResult>> SearchEngine::SearchPhrase(
    const std::string& phrase, Ranking ranking, size_t limit) {
  auto results = Search(phrase, ranking, {}, SIZE_MAX);
  if (!results.ok()) return results;
  std::string needle = phrase;
  std::transform(needle.begin(), needle.end(), needle.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  std::vector<SearchResult> verified;
  for (SearchResult& r : *results) {
    auto content = text_->Text(r.doc);
    if (!content.ok()) continue;
    std::string lowered = *content;
    std::transform(lowered.begin(), lowered.end(), lowered.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (lowered.find(needle) != std::string::npos) {
      verified.push_back(std::move(r));
    }
  }
  if (verified.size() > limit) verified.resize(limit);
  return verified;
}

size_t SearchEngine::IndexedTerms() const {
  MutexLock lock(mu_);
  return term_docs_.size();
}

size_t SearchEngine::IndexedDocuments() const {
  MutexLock lock(mu_);
  return doc_postings_.size();
}

size_t SearchEngine::DirtyDocuments() const {
  MutexLock lock(mu_);
  return dirty_docs_.size();
}

}  // namespace tendax
