#include "lineage/lineage.h"

#include "text/utf8.h"

namespace tendax {

const char* SourceKindName(SourceKind kind) {
  switch (kind) {
    case SourceKind::kTyped:
      return "typed";
    case SourceKind::kInternal:
      return "internal";
    case SourceKind::kExternal:
      return "external";
  }
  return "?";
}

LineageAnalyzer::LineageAnalyzer(TextStore* text) : text_(text) {}

namespace {

SourceKind KindOf(const CharInfo& info) {
  if (info.src_doc.valid()) return SourceKind::kInternal;
  if (!info.src_external.empty()) return SourceKind::kExternal;
  return SourceKind::kTyped;
}

bool SameProvenance(const CharInfo& a, const CharInfo& b) {
  return KindOf(a) == KindOf(b) && a.src_doc == b.src_doc &&
         a.src_external == b.src_external && a.author == b.author;
}

/// Groups consecutive chars of the same provenance and author; `infos`
/// are the live chars from position `pos` on.
std::vector<LineageSegment> Segments(size_t pos,
                                     const std::vector<CharInfo>& infos) {
  std::vector<LineageSegment> segments;
  for (size_t i = 0; i < infos.size(); ++i) {
    const CharInfo& info = infos[i];
    if (!segments.empty() && SameProvenance(infos[i - 1], info)) {
      LineageSegment& seg = segments.back();
      seg.len += 1;
      AppendUtf8(&seg.text, info.cp);
      continue;
    }
    LineageSegment seg;
    seg.pos = pos + i;
    seg.len = 1;
    seg.kind = KindOf(info);
    seg.src_doc = info.src_doc;
    seg.src_external = info.src_external;
    seg.author = info.author;
    AppendUtf8(&seg.text, info.cp);
    segments.push_back(std::move(seg));
  }
  return segments;
}

}  // namespace

Result<std::vector<LineageSegment>> LineageAnalyzer::ForRange(DocumentId doc,
                                                              size_t pos,
                                                              size_t len) {
  auto infos = text_->RangeInfo(doc, pos, len);
  if (!infos.ok()) return infos.status();
  return Segments(pos, *infos);
}

Result<std::vector<LineageSegment>> LineageAnalyzer::ForDocument(
    DocumentId doc) {
  // One read: a separate Length() could be outrun by a concurrent delete.
  auto infos = text_->LiveInfo(doc);
  if (!infos.ok()) return infos.status();
  return Segments(0, *infos);
}

Result<LineageGraph> LineageAnalyzer::BuildGraph() {
  LineageGraph graph;
  for (DocumentId doc : text_->ListDocuments()) {
    graph.docs.insert(doc.value);
    auto segments = ForDocument(doc);
    if (!segments.ok()) return segments.status();
    for (const LineageSegment& seg : *segments) {
      switch (seg.kind) {
        case SourceKind::kInternal:
          if (seg.src_doc != doc) {
            graph.internal_edges[{seg.src_doc.value, doc.value}] += seg.len;
          }
          break;
        case SourceKind::kExternal:
          graph.external_edges[{seg.src_external, doc.value}] += seg.len;
          break;
        case SourceKind::kTyped:
          break;
      }
    }
  }
  return graph;
}

Result<uint64_t> LineageAnalyzer::CitationCount(DocumentId doc) {
  auto graph = BuildGraph();
  if (!graph.ok()) return graph.status();
  std::set<uint64_t> citing;
  for (const auto& [edge, count] : graph->internal_edges) {
    if (edge.first == doc.value) citing.insert(edge.second);
  }
  return static_cast<uint64_t>(citing.size());
}

std::string LineageAnalyzer::RenderDot(const LineageGraph& graph) {
  std::string out = "digraph lineage {\n  rankdir=LR;\n";
  for (uint64_t doc : graph.docs) {
    auto info = text_->GetDocumentInfo(DocumentId(doc));
    std::string label = info.ok() ? info->name : ("doc" + std::to_string(doc));
    out += "  d" + std::to_string(doc) + " [label=\"" + label +
           "\", shape=box];\n";
  }
  std::set<std::string> externals;
  for (const auto& [edge, count] : graph.external_edges) {
    externals.insert(edge.first);
  }
  size_t ext_idx = 0;
  std::map<std::string, std::string> ext_nodes;
  for (const std::string& ext : externals) {
    std::string node = "x" + std::to_string(ext_idx++);
    ext_nodes[ext] = node;
    out += "  " + node + " [label=\"" + ext +
           "\", shape=ellipse, style=dashed];\n";
  }
  for (const auto& [edge, count] : graph.internal_edges) {
    out += "  d" + std::to_string(edge.first) + " -> d" +
           std::to_string(edge.second) + " [label=\"" +
           std::to_string(count) + " chars\"];\n";
  }
  for (const auto& [edge, count] : graph.external_edges) {
    out += "  " + ext_nodes[edge.first] + " -> d" +
           std::to_string(edge.second) + " [label=\"" +
           std::to_string(count) + " chars\"];\n";
  }
  out += "}\n";
  return out;
}

std::string LineageAnalyzer::RenderAscii(const LineageGraph& graph) {
  std::string out;
  auto doc_name = [&](uint64_t id) {
    auto info = text_->GetDocumentInfo(DocumentId(id));
    return info.ok() ? info->name : ("doc" + std::to_string(id));
  };
  for (const auto& [edge, count] : graph.internal_edges) {
    out += doc_name(edge.first) + " --[" + std::to_string(count) +
           " chars]--> " + doc_name(edge.second) + "\n";
  }
  for (const auto& [edge, count] : graph.external_edges) {
    out += "<" + edge.first + "> --[" + std::to_string(count) +
           " chars]--> " + doc_name(edge.second) + "\n";
  }
  if (out.empty()) out = "(no copy-paste provenance recorded)\n";
  return out;
}

Result<std::string> LineageAnalyzer::RenderDocumentLineage(DocumentId doc) {
  auto segments = ForDocument(doc);
  if (!segments.ok()) return segments.status();
  auto info = text_->GetDocumentInfo(doc);
  if (!info.ok()) return info.status();
  std::string out = "lineage of '" + info->name + "':\n";
  for (const LineageSegment& seg : *segments) {
    std::string preview = seg.text.substr(0, 24);
    for (char& c : preview) {
      if (c == '\n') c = ' ';
    }
    out += "  [" + std::to_string(seg.pos) + "," +
           std::to_string(seg.pos + seg.len) + ") ";
    switch (seg.kind) {
      case SourceKind::kTyped:
        out += "typed by user " + std::to_string(seg.author.value);
        break;
      case SourceKind::kInternal: {
        auto src = text_->GetDocumentInfo(seg.src_doc);
        out += "copied from '" +
               (src.ok() ? src->name : seg.src_doc.ToString()) + "'";
        break;
      }
      case SourceKind::kExternal:
        out += "imported from <" + seg.src_external + ">";
        break;
    }
    out += "  \"" + preview + (seg.text.size() > 24 ? "..." : "") + "\"\n";
  }
  return out;
}

}  // namespace tendax
