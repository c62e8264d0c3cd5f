#ifndef TENDAX_SEARCH_SEARCH_ENGINE_H_
#define TENDAX_SEARCH_SEARCH_ENGINE_H_

#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "document/document_model.h"
#include "lineage/lineage.h"
#include "meta/meta_store.h"
#include "text/text_store.h"
#include "util/ids.h"
#include "util/mutex.h"
#include "util/result.h"

namespace tendax {

/// How result lists are ordered — the paper's ranking options
/// ("most cited", "newest", …).
enum class Ranking : uint8_t {
  kRelevance = 1,  // tf-idf
  kNewest = 2,     // last edit time
  kMostCited = 3,  // lineage in-degree
  kMostRead = 4,   // audit read count
};

const char* RankingName(Ranking ranking);

struct SearchResult {
  DocumentId doc;
  double score = 0;
  std::string name;
  std::string snippet;
};

/// Optional metadata filters applied before ranking.
struct SearchFilter {
  std::optional<UserId> author;       // must be among the doc's authors
  std::optional<std::string> state;   // document lifecycle state
  Timestamp edited_since = 0;         // last edit >= this
  std::optional<std::string> element_type;  // term must fall inside such an
                                            // element (structure search)
};

/// Lowercases and splits on non-alphanumerics.
std::vector<std::string> Tokenize(const std::string& text);

/// Content / structure / metadata search with pluggable ranking over an
/// in-memory inverted index (derived data, rebuilt at startup). Committed
/// edits only mark their document dirty; a query first reindexes the dirty
/// documents, at a cost that follows the edits since the last reindex, not
/// the document's length: each leaf of a document's chain tree is
/// tokenized once, when it first appears. A reindex walks the new tree's
/// leaf pointers against the summaries of the last one, in chain order,
/// summarizes the leaves it has not seen, drops the summaries of the
/// leaves that are gone, and stitches the words that cross leaf boundaries
/// from the summaries' cached end fragments.
class SearchEngine {
 public:
  SearchEngine(Database* db, TextStore* text, MetaStore* meta,
               DocumentModel* docs, LineageAnalyzer* lineage);

  /// Builds the index over existing documents and subscribes to commits.
  Status Init();

  /// Multi-term AND query (terms are tokenized from `query`).
  Result<std::vector<SearchResult>> Search(
      const std::string& query, Ranking ranking = Ranking::kRelevance,
      const SearchFilter& filter = {}, size_t limit = 10);

  /// Exact phrase query (verified against document text).
  Result<std::vector<SearchResult>> SearchPhrase(
      const std::string& phrase, Ranking ranking = Ranking::kRelevance,
      size_t limit = 10);

  /// Brings one document's index up to its latest committed version now.
  Status IndexDocument(DocumentId doc) TENDAX_EXCLUDES(reindex_mu_);

  /// Checks every indexed document: its per-term totals and token count
  /// against a tokenization of the indexed tree's full text plus the name,
  /// and that the term -> documents map holds exactly those totals.
  /// kCorruption names the document and the first breach.
  Status CheckIntegrity() TENDAX_EXCLUDES(reindex_mu_, mu_);

  size_t IndexedTerms() const;
  size_t IndexedDocuments() const;
  size_t DirtyDocuments() const;

 private:
  /// One leaf's live chars, summarized once: the complete tokens inside it
  /// and the word fragments at its two ends, which join its neighbours'.
  struct LeafSummary {
    const ChainNode* leaf = nullptr;
    size_t live = 0;
    std::vector<std::pair<uint32_t, uint32_t>> interior;  // term id, count
    std::string head;  // word chars before the first separator
    std::string tail;  // word chars after the last separator
    bool all_word = true;  // no separator: `head` is the whole leaf
    // The word that ends in `head`, stitched from the leaves before (empty
    // for none). It is counted with this leaf.
    std::string joined;
  };
  /// One document as of its last reindex.
  struct DocIndex {
    Version version = 0;
    std::string name;
    // Keeps every summarized leaf alive, so no leaf address is reused
    // while it keys a summary.
    CharTree tree;
    std::vector<LeafSummary> leaves;             // in chain order
    std::unordered_set<const ChainNode*> known;  // their `leaf`s
    // Ids of the word that ends the text and of the name's words.
    std::vector<uint32_t> rest;
  };

  /// Re-indexes every document marked dirty since the last query.
  Status FlushDirty() TENDAX_EXCLUDES(reindex_mu_);
  Status Reindex(DocumentId doc) TENDAX_REQUIRES(reindex_mu_);

  uint32_t Intern(const std::string& term) TENDAX_REQUIRES(reindex_mu_);
  LeafSummary Summarize(const ChainNode& leaf) TENDAX_REQUIRES(reindex_mu_);

  Result<double> RankScore(DocumentId doc, Ranking ranking,
                           const std::vector<std::string>& terms);
  Status ApplyFilter(const SearchFilter& filter,
                     const std::vector<std::string>& terms,
                     std::set<uint64_t>* candidates);
  std::string Snippet(DocumentId doc, const std::string& term)
      TENDAX_EXCLUDES(reindex_mu_);
  double TfIdf(const std::vector<std::string>& terms, uint64_t doc) const
      TENDAX_REQUIRES(mu_);

  Database* const db_;
  TextStore* const text_;
  MetaStore* const meta_;
  DocumentModel* const docs_;
  LineageAnalyzer* const lineage_;
  Counter* const m_leaves_tokenized_;

  // Serializes reindexing and guards its private state; held while leaves
  // are tokenized and around the tree read, and taken before `mu_`, which
  // a query holds only to read the index.
  mutable Mutex reindex_mu_{"search.reindex", lockorder::kRankDocument};
  std::unordered_map<uint64_t, DocIndex> indexed_
      TENDAX_GUARDED_BY(reindex_mu_);
  // Term dictionary of the leaf summaries; an id is freed with its term's
  // last posting.
  std::unordered_map<std::string, uint32_t> term_ids_
      TENDAX_GUARDED_BY(reindex_mu_);
  std::vector<std::string> term_names_ TENDAX_GUARDED_BY(reindex_mu_);
  std::vector<uint32_t> free_ids_ TENDAX_GUARDED_BY(reindex_mu_);

  // Guards what a query reads. term -> doc -> occurrences (the per-term
  // totals); doc -> total tokens.
  mutable Mutex mu_{"search.mu", lockorder::kRankDocument};
  std::unordered_map<std::string, std::map<uint64_t, uint32_t>> term_docs_
      TENDAX_GUARDED_BY(mu_);
  std::unordered_map<uint64_t, uint64_t> term_count_ TENDAX_GUARDED_BY(mu_);
  std::set<uint64_t> dirty_docs_ TENDAX_GUARDED_BY(mu_);
};

}  // namespace tendax

#endif  // TENDAX_SEARCH_SEARCH_ENGINE_H_
