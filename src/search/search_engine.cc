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

/// The token alphabet: the lowercased ASCII letter or digit `c` is, or 0
/// for a separator (so is every non-ASCII char, and every byte of one).
inline char WordChar(uint32_t c) {
  if (c >= 'A' && c <= 'Z') c |= 0x20;
  return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')
             ? static_cast<char>(c)
             : 0;
}

/// Calls fn(token) for every maximal run of word chars in `text`,
/// lowercased.
template <typename Fn>
void ForEachToken(const std::string& text, const Fn& fn) {
  std::string current;
  for (unsigned char c : text) {
    if (char w = WordChar(c)) {
      current.push_back(w);
    } else if (!current.empty()) {
      fn(current);
      current.clear();
    }
  }
  if (!current.empty()) fn(current);
}

/// Scans the live chars of one leaf: fills *head and *tail with the word
/// fragments at its two ends and calls fn(token, offset) for every token
/// between them, the offset counted in live chars. Returns false if the
/// leaf holds no separator; *head is then all of it.
template <typename Fn>
bool ScanLeaf(const ChainNode& leaf, std::string* head, std::string* tail,
              const Fn& fn) {
  std::string word;
  size_t at = 0;
  size_t start = 0;
  bool separated = false;
  for (const SnapChar& c : leaf.chars) {
    if (c.deleted != 0) continue;
    if (char w = WordChar(c.cp)) {
      if (word.empty()) start = at;
      word.push_back(w);
    } else {
      if (!separated) {
        *head = word;
      } else if (!word.empty()) {
        fn(word, start);
      }
      word.clear();
      separated = true;
    }
    ++at;
  }
  *(separated ? tail : head) = std::move(word);
  return separated;
}

}  // namespace

std::vector<std::string> Tokenize(const std::string& text) {
  std::vector<std::string> out;
  ForEachToken(text, [&](const std::string& token) { out.push_back(token); });
  return out;
}

SearchEngine::SearchEngine(Database* db, TextStore* text, MetaStore* meta,
                           DocumentModel* docs, LineageAnalyzer* lineage)
    : db_(db),
      text_(text),
      meta_(meta),
      docs_(docs),
      lineage_(lineage),
      m_leaves_tokenized_(
          db->metrics() == nullptr
              ? nullptr
              : db->metrics()->counter("search.leaves_tokenized")) {}

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
            case ChangeKind::kRedoApplied: {
              MutexLock lock(mu_);
              dirty_docs_.insert(ev.doc.value);
              break;
            }
            default:
              break;
          }
        }
      });
  return Status::OK();
}

uint32_t SearchEngine::Intern(const std::string& term) {
  auto [it, added] = term_ids_.try_emplace(term, 0);
  if (!added) return it->second;
  if (free_ids_.empty()) {
    it->second = static_cast<uint32_t>(term_names_.size());
    term_names_.push_back(term);
  } else {
    it->second = free_ids_.back();
    free_ids_.pop_back();
    term_names_[it->second] = term;
  }
  return it->second;
}

SearchEngine::LeafSummary SearchEngine::Summarize(const ChainNode& leaf) {
  LeafSummary s;
  s.leaf = &leaf;
  std::vector<std::string> tokens;
  s.all_word = !ScanLeaf(leaf, &s.head, &s.tail,
                         [&](const std::string& token, size_t) {
                           tokens.push_back(token);
                         });
  std::vector<uint32_t> ids;
  ids.reserve(tokens.size());
  for (const std::string& token : tokens) ids.push_back(Intern(token));
  std::sort(ids.begin(), ids.end());
  for (uint32_t id : ids) {
    if (!s.interior.empty() && s.interior.back().first == id) {
      ++s.interior.back().second;
    } else {
      s.interior.emplace_back(id, 1);
    }
  }
  return s;
}

Status SearchEngine::IndexDocument(DocumentId doc) {
  MutexLock reindex(reindex_mu_);
  return Reindex(doc);
}

Status SearchEngine::Reindex(DocumentId doc) {
  // Tree, version and name come from one committed state.
  auto frozen = text_->FreezeChain(doc);
  if (!frozen.ok()) return frozen.status();
  auto [slot, first] = indexed_.try_emplace(doc.value);
  DocIndex& ix = slot->second;
  if (!first && (frozen->info.version < ix.version ||
                 (frozen->info.version == ix.version &&
                  frozen->tree.root().node == ix.tree.root().node))) {
    return Status::OK();  // an earlier reindex got as far or further
  }

  // Shared leaves keep their order, so one walk of the new tree's leaves
  // against the old summaries, in chain order, finds the new leaves and
  // the gone ones, and stitches the words across leaf boundaries. The old
  // tree stays held until then, so a new leaf cannot reuse the address of
  // one whose summary is still keyed by it.
  std::unordered_map<uint32_t, int64_t> delta;
  std::vector<LeafSummary> next;
  next.reserve(ix.leaves.size() + 16);
  std::vector<const LeafSummary*> gone;
  auto old = ix.leaves.begin();
  uint64_t tokenized = 0;
  std::string pending;
  for (const ChainRef* ref : frozen->tree.Leaves()) {
    const ChainNode* leaf = ref->node.get();
    if (old != ix.leaves.end() && old->leaf != leaf &&
        ix.known.count(leaf) != 0) {
      while (old != ix.leaves.end() && old->leaf != leaf) {
        gone.push_back(&*old++);
      }
    }
    if (old != ix.leaves.end() && old->leaf == leaf) {
      next.push_back(std::move(*old++));
    } else {
      next.push_back(Summarize(*leaf));
      ++tokenized;
      ix.known.insert(leaf);
      for (auto [id, n] : next.back().interior) delta[id] += n;
    }
    LeafSummary& s = next.back();
    s.live = ref->live;
    pending += s.head;
    if (s.all_word) continue;
    if (pending != s.joined) {
      if (!s.joined.empty()) --delta[term_ids_.at(s.joined)];
      if (!pending.empty()) ++delta[Intern(pending)];
      s.joined = pending;
    }
    pending = s.tail;
  }
  for (; old != ix.leaves.end(); ++old) gone.push_back(&*old);
  for (const LeafSummary* g : gone) {
    for (auto [id, n] : g->interior) delta[id] -= n;
    if (!g->joined.empty()) --delta[term_ids_.at(g->joined)];
    ix.known.erase(g->leaf);
  }
  std::vector<uint32_t> rest;
  if (!pending.empty()) rest.push_back(Intern(pending));
  for (const std::string& token : Tokenize(frozen->info.name)) {
    rest.push_back(Intern(token));
  }
  for (uint32_t id : ix.rest) --delta[id];
  for (uint32_t id : rest) ++delta[id];
  MetricAdd(m_leaves_tokenized_, tokenized);
  ix.leaves = std::move(next);
  ix.rest = std::move(rest);
  ix.tree = std::move(frozen->tree);
  ix.version = frozen->info.version;
  ix.name = std::move(frozen->info.name);

  MutexLock lock(mu_);
  uint64_t& count = term_count_[doc.value];
  for (auto [id, d] : delta) {
    if (d == 0) continue;
    count += static_cast<uint64_t>(d);
    std::string& term = term_names_[id];
    auto postings = term_docs_.find(term);
    if (postings == term_docs_.end()) {
      postings = term_docs_.try_emplace(term).first;
    }
    uint32_t& tf = postings->second[doc.value];
    tf = static_cast<uint32_t>(tf + d);
    if (tf != 0) continue;
    postings->second.erase(doc.value);
    if (!postings->second.empty()) continue;
    term_docs_.erase(postings);
    term_ids_.erase(term);
    term.clear();
    free_ids_.push_back(id);
  }
  return Status::OK();
}

Status SearchEngine::FlushDirty() {
  // A query that finds nothing dirty still waits here for a reindex in
  // flight. The set is taken before the trees are read, so an edit that
  // commits meanwhile marks its document dirty again.
  MutexLock reindex(reindex_mu_);
  std::set<uint64_t> dirty;
  {
    MutexLock lock(mu_);
    dirty.swap(dirty_docs_);
  }
  for (auto it = dirty.begin(); it != dirty.end(); ++it) {
    Status st = Reindex(DocumentId(*it));
    if (!st.ok()) {
      MutexLock lock(mu_);
      dirty_docs_.insert(it, dirty.end());
      return st;
    }
  }
  return Status::OK();
}

Status SearchEngine::CheckIntegrity() {
  using Totals = std::map<std::string, uint64_t>;
  MutexLock reindex(reindex_mu_);
  std::map<uint64_t, Totals> expected;
  for (const auto& [doc, ix] : indexed_) {
    Totals& totals = expected[doc];
    auto add = [&totals](const std::string& token) { ++totals[token]; };
    ForEachToken(ix.tree.Text(), add);
    ForEachToken(ix.name, add);
  }
  MutexLock lock(mu_);
  std::map<uint64_t, Totals> indexed;
  for (const auto& [term, postings] : term_docs_) {
    for (const auto& [doc, tf] : postings) indexed[doc][term] = tf;
  }
  for (const auto& [doc, totals] : expected) {
    auto breach = [doc = doc](const std::string& what) {
      return Status::Corruption("search index of document " +
                                std::to_string(doc) + ": " + what);
    };
    const Totals& got = indexed[doc];
    auto [a, b] = std::mismatch(totals.begin(), totals.end(), got.begin(),
                                got.end());
    if (a != totals.end() || b != got.end()) {
      const std::string& term =
          b == got.end() || (a != totals.end() && a->first < b->first)
              ? a->first
              : b->first;
      auto in = [&term](const Totals& t) {
        auto it = t.find(term);
        return std::to_string(it == t.end() ? 0 : it->second);
      };
      return breach("'" + term + "' occurs " + in(totals) +
                    " times, indexed " + in(got));
    }
    uint64_t count = 0;
    for (const auto& [term, n] : totals) count += n;
    auto c = term_count_.find(doc);
    if (c == term_count_.end() || c->second != count) {
      return breach("token count differs");
    }
  }
  if (indexed.size() != expected.size() ||
      term_count_.size() != expected.size()) {
    return Status::Corruption("search index: postings of unindexed documents");
  }
  return Status::OK();
}

double SearchEngine::TfIdf(const std::vector<std::string>& terms,
                           uint64_t doc) const {
  auto count = term_count_.find(doc);
  if (count == term_count_.end() || count->second == 0) return 0;
  double n_docs = static_cast<double>(term_count_.size());
  double score = 0;
  for (const std::string& term : terms) {
    auto td = term_docs_.find(term);
    if (td == term_docs_.end()) continue;
    auto tf = td->second.find(doc);
    if (tf == td->second.end()) continue;
    score += static_cast<double>(tf->second) /
             static_cast<double>(count->second) *
             std::log(1.0 + n_docs / static_cast<double>(td->second.size()));
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
  // The first occurrence of `term` is found through the leaf summaries:
  // only a leaf whose interior holds it is read.
  CharTree tree;
  size_t hit = SIZE_MAX;
  {
    MutexLock reindex(reindex_mu_);
    auto ix = indexed_.find(doc.value);
    if (ix == indexed_.end()) return "";
    tree = ix->second.tree;
    auto id = term_ids_.find(term);
    std::string pending;
    size_t start = 0;  // where `pending` began
    size_t pos = 0;
    for (const LeafSummary& s : ix->second.leaves) {
      if (id == term_ids_.end()) break;
      pending += s.head;
      if (!s.all_word) {
        if (pending == term) break;
        auto in = std::lower_bound(s.interior.begin(), s.interior.end(),
                                   std::make_pair(id->second, uint32_t{0}));
        if (in != s.interior.end() && in->first == id->second) {
          std::string head, tail;
          ScanLeaf(*s.leaf, &head, &tail,
                   [&](const std::string& token, size_t at) {
                     if (token == term && hit == SIZE_MAX) hit = pos + at;
                   });
          break;
        }
        pending = s.tail;
        start = pos + s.live - s.tail.size();
      }
      pos += s.live;
    }
    if (hit == SIZE_MAX && pending == term) hit = start;
  }
  const size_t size = tree.live_size();
  const size_t start = hit == SIZE_MAX ? 0 : hit > 20 ? hit - 20 : 0;
  const size_t len = std::min<size_t>(hit == SIZE_MAX ? 40 : 60, size - start);
  std::string snip = tree.TextRange(start, len);
  std::replace(snip.begin(), snip.end(), '\n', ' ');
  if (hit == SIZE_MAX) return snip;
  return (start > 0 ? "..." : "") + snip + (start + len < size ? "..." : "");
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
      std::set<uint64_t> docs;
      if (it != term_docs_.end()) {
        for (const auto& [doc, tf] : it->second) docs.insert(docs.end(), doc);
      }
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
  return term_count_.size();
}

size_t SearchEngine::DirtyDocuments() const {
  MutexLock lock(mu_);
  return dirty_docs_.size();
}

}  // namespace tendax
