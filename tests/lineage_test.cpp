// Tests for data lineage: provenance segments, the copy graph, citation
// counts, and the Fig. 1 renderings.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "server_fixture.h"

namespace tendax {
namespace {

class LineageTest : public ServerTest {};

TEST_F(LineageTest, TypedTextIsOneSegment) {
  DocumentId doc = MakeDoc(alice_, "typed", "all my own words");
  auto segments = server_->lineage()->ForDocument(doc);
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments->size(), 1u);
  EXPECT_EQ((*segments)[0].kind, SourceKind::kTyped);
  EXPECT_EQ((*segments)[0].author, alice_);
  EXPECT_EQ((*segments)[0].len, 16u);
}

TEST_F(LineageTest, PasteCreatesInternalSegment) {
  DocumentId src = MakeDoc(alice_, "origin", "reusable paragraph");
  DocumentId dst = MakeDoc(bob_, "report", "intro ");
  auto clip = server_->text()->Copy(bob_, src, 0, 8);
  ASSERT_TRUE(clip.ok());
  ASSERT_TRUE(server_->text()->Paste(bob_, dst, 6, *clip).ok());
  ASSERT_TRUE(server_->text()->InsertText(bob_, dst, 14, " outro").ok());

  auto segments = server_->lineage()->ForDocument(dst);
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments->size(), 3u);
  EXPECT_EQ((*segments)[0].kind, SourceKind::kTyped);
  EXPECT_EQ((*segments)[1].kind, SourceKind::kInternal);
  EXPECT_EQ((*segments)[1].src_doc, src);
  EXPECT_EQ((*segments)[1].text, "reusable");
  EXPECT_EQ((*segments)[2].kind, SourceKind::kTyped);
}

TEST_F(LineageTest, ExternalImportTracked) {
  DocumentId doc = MakeDoc(alice_, "imported", "");
  ASSERT_TRUE(server_->text()
                  ->InsertText(alice_, doc, 0, "quoted text",
                               "https://example.org/spec")
                  .ok());
  auto segments = server_->lineage()->ForDocument(doc);
  ASSERT_EQ(segments->size(), 1u);
  EXPECT_EQ((*segments)[0].kind, SourceKind::kExternal);
  EXPECT_EQ((*segments)[0].src_external, "https://example.org/spec");
}

TEST_F(LineageTest, GraphAggregatesEdges) {
  DocumentId a = MakeDoc(alice_, "a", "source material one");
  DocumentId b = MakeDoc(alice_, "b", "second source");
  DocumentId c = MakeDoc(bob_, "c", "");
  auto clip_a = server_->text()->Copy(bob_, a, 0, 6);
  auto clip_b = server_->text()->Copy(bob_, b, 0, 6);
  ASSERT_TRUE(server_->text()->Paste(bob_, c, 0, *clip_a).ok());
  ASSERT_TRUE(server_->text()->Paste(bob_, c, 6, *clip_b).ok());

  auto graph = server_->lineage()->BuildGraph();
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->internal_edges.at({a.value, c.value}), 6u);
  EXPECT_EQ(graph->internal_edges.at({b.value, c.value}), 6u);
  EXPECT_EQ(graph->EdgeCount(), 2u);
}

TEST_F(LineageTest, TransitiveCopiesCreditTheOrigin) {
  DocumentId origin = MakeDoc(alice_, "origin", "canonical text");
  DocumentId mid = MakeDoc(bob_, "middle", "");
  DocumentId leaf = MakeDoc(bob_, "leaf", "");
  auto c1 = server_->text()->Copy(bob_, origin, 0, 9);
  ASSERT_TRUE(server_->text()->Paste(bob_, mid, 0, *c1).ok());
  auto c2 = server_->text()->Copy(bob_, mid, 0, 9);
  ASSERT_TRUE(server_->text()->Paste(bob_, leaf, 0, *c2).ok());

  auto graph = server_->lineage()->BuildGraph();
  ASSERT_TRUE(graph.ok());
  // Both mid and leaf cite origin; leaf does NOT cite mid.
  EXPECT_TRUE(graph->internal_edges.count({origin.value, mid.value}));
  EXPECT_TRUE(graph->internal_edges.count({origin.value, leaf.value}));
  EXPECT_FALSE(graph->internal_edges.count({mid.value, leaf.value}));
  EXPECT_EQ(*server_->lineage()->CitationCount(origin), 2u);
  EXPECT_EQ(*server_->lineage()->CitationCount(mid), 0u);
}

TEST_F(LineageTest, SelfPasteIsNotAnEdge) {
  DocumentId doc = MakeDoc(alice_, "self", "repeat ");
  auto clip = server_->text()->Copy(alice_, doc, 0, 6);
  ASSERT_TRUE(server_->text()->Paste(alice_, doc, 7, *clip).ok());
  auto graph = server_->lineage()->BuildGraph();
  EXPECT_FALSE(graph->internal_edges.count({doc.value, doc.value}));
}

TEST_F(LineageTest, DeletedSourceCharsStillProvideLineage) {
  DocumentId src = MakeDoc(alice_, "vanishing", "ephemeral words");
  DocumentId dst = MakeDoc(bob_, "keeper", "");
  auto clip = server_->text()->Copy(bob_, src, 0, 9);
  ASSERT_TRUE(server_->text()->Paste(bob_, dst, 0, *clip).ok());
  // Source text gets deleted afterwards; provenance must survive (the
  // tombstoned characters still exist in the database).
  ASSERT_TRUE(server_->text()->DeleteRange(alice_, src, 0, 15).ok());
  auto segments = server_->lineage()->ForDocument(dst);
  ASSERT_EQ(segments->size(), 1u);
  EXPECT_EQ((*segments)[0].kind, SourceKind::kInternal);
  EXPECT_EQ((*segments)[0].src_doc, src);
}

TEST_F(LineageTest, ForDocumentWhileCharsAreErased) {
  // The length and the records are one read: a delete committing between
  // them used to fail the whole-document range with OutOfRange.
  DocumentId doc = MakeDoc(alice_, "shrinking", std::string(3000, 'x'));
  std::atomic<bool> done{false};
  std::thread eraser([&] {
    for (int i = 0; i < 2900; ++i) {
      Status st = server_->text()->DeleteRange(bob_, doc, 0, 1).status();
      if (!st.ok()) {
        ADD_FAILURE() << st.ToString();
        break;
      }
    }
    done = true;
  });
  size_t reads = 0;
  size_t failed = 0;
  while (!done || reads == 0) {
    auto segments = server_->lineage()->ForDocument(doc);
    if (!segments.ok()) ++failed;
    ++reads;
  }
  eraser.join();
  EXPECT_EQ(failed, 0u) << "of " << reads << " reads";
  auto segments = server_->lineage()->ForDocument(doc);
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments->size(), 1u);
  EXPECT_EQ((*segments)[0].len, 100u);
}

TEST_F(LineageTest, DotAndAsciiRenderings) {
  DocumentId src = MakeDoc(alice_, "source.txt", "copy me");
  DocumentId dst = MakeDoc(bob_, "dest.txt", "");
  auto clip = server_->text()->Copy(bob_, src, 0, 7);
  ASSERT_TRUE(server_->text()->Paste(bob_, dst, 0, *clip).ok());
  ASSERT_TRUE(server_->text()
                  ->InsertText(bob_, dst, 7, " quoted", "file://notes.doc")
                  .ok());

  auto graph = server_->lineage()->BuildGraph();
  std::string dot = server_->lineage()->RenderDot(*graph);
  EXPECT_NE(dot.find("digraph lineage"), std::string::npos);
  EXPECT_NE(dot.find("source.txt"), std::string::npos);
  EXPECT_NE(dot.find("file://notes.doc"), std::string::npos);
  EXPECT_NE(dot.find("7 chars"), std::string::npos);

  std::string ascii = server_->lineage()->RenderAscii(*graph);
  EXPECT_NE(ascii.find("source.txt --[7 chars]--> dest.txt"),
            std::string::npos);

  auto detail = server_->lineage()->RenderDocumentLineage(dst);
  ASSERT_TRUE(detail.ok());
  EXPECT_NE(detail->find("copied from 'source.txt'"), std::string::npos);
  EXPECT_NE(detail->find("imported from <file://notes.doc>"),
            std::string::npos);
}

}  // namespace
}  // namespace tendax
