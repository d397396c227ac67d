// DIMACS-like text I/O: exact round-trip and malformed-input handling.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>

#include "graph/generators.hpp"
#include "graph/io.hpp"

namespace {

using namespace smp::graph;

TEST(GraphIO, RoundTripPreservesEverything) {
  const EdgeList g = random_graph(200, 700, 3);
  std::stringstream ss;
  write_dimacs(ss, g);
  const EdgeList h = read_dimacs(ss);
  EXPECT_EQ(h.num_vertices, g.num_vertices);
  ASSERT_EQ(h.num_edges(), g.num_edges());
  for (std::size_t i = 0; i < g.edges.size(); ++i) {
    EXPECT_EQ(h.edges[i].u, g.edges[i].u);
    EXPECT_EQ(h.edges[i].v, g.edges[i].v);
    EXPECT_EQ(h.edges[i].w, g.edges[i].w) << "weights must round-trip exactly";
  }
}

TEST(GraphIO, EmptyAndEdgelessGraphs) {
  std::stringstream ss;
  write_dimacs(ss, EdgeList(5));
  const EdgeList h = read_dimacs(ss);
  EXPECT_EQ(h.num_vertices, 5u);
  EXPECT_EQ(h.num_edges(), 0u);
}

TEST(GraphIO, CommentsAreSkipped) {
  std::istringstream is("c hello\np edge 3 1\nc mid comment\ne 1 3 2.5\n");
  const EdgeList g = read_dimacs(is);
  EXPECT_EQ(g.num_vertices, 3u);
  ASSERT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.edges[0].u, 0u);
  EXPECT_EQ(g.edges[0].v, 2u);
  EXPECT_DOUBLE_EQ(g.edges[0].w, 2.5);
}

TEST(GraphIO, MalformedInputsThrow) {
  {
    std::istringstream is("e 1 2 3.0\n");  // edge before header
    EXPECT_THROW(read_dimacs(is), std::runtime_error);
  }
  {
    std::istringstream is("p edge 3 2\ne 1 2 1.0\n");  // count mismatch
    EXPECT_THROW(read_dimacs(is), std::runtime_error);
  }
  {
    std::istringstream is("p edge 3 1\ne 0 2 1.0\n");  // 0 is invalid (1-based)
    EXPECT_THROW(read_dimacs(is), std::runtime_error);
  }
  {
    std::istringstream is("p edge 3 1\ne 1 4 1.0\n");  // out of range
    EXPECT_THROW(read_dimacs(is), std::runtime_error);
  }
  {
    std::istringstream is("q edge 3 1\n");  // unknown tag
    EXPECT_THROW(read_dimacs(is), std::runtime_error);
  }
  {
    std::istringstream is("");  // missing header
    EXPECT_THROW(read_dimacs(is), std::runtime_error);
  }
}

TEST(GraphIO, ReaderCanonicalizesParallelEdges) {
  // Duplicate {u,v} pairs collapse to the <weight, edge-id>-minimal edge at
  // load time: lightest weight wins, earliest line wins a weight tie.
  std::istringstream is(
      "p edge 4 5\n"
      "e 1 2 3.0\n"
      "e 2 1 1.0\n"   // same pair, lighter: replaces line 1
      "e 1 2 1.0\n"   // weight tie: earlier edge (line 2) is kept
      "e 3 4 2.0\n"
      "e 3 4 2.0\n"   // exact duplicate: first occurrence kept
      );
  const EdgeList g = read_dimacs(is);
  ASSERT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.edges[0].u, 1u);  // stored 0-based, canonical u < v not forced
  EXPECT_EQ(g.edges[0].v, 0u);
  EXPECT_DOUBLE_EQ(g.edges[0].w, 1.0);
  EXPECT_EQ(g.edges[1].u, 2u);
  EXPECT_EQ(g.edges[1].v, 3u);
  EXPECT_DOUBLE_EQ(g.edges[1].w, 2.0);
}

TEST(GraphIO, KeepAllPolicyPreservesParallelEdges) {
  std::istringstream is("p edge 3 3\ne 1 2 3.0\ne 2 1 1.0\ne 1 2 3.0\n");
  const EdgeList g = read_dimacs(is, ParallelEdgePolicy::kKeepAll);
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(GraphIO, BinaryReaderCanonicalizesToo) {
  EdgeList g(3);
  g.add_edge(0, 1, 5.0);
  g.add_edge(1, 0, 2.0);
  g.add_edge(1, 2, 1.0);
  const std::string path = ::testing::TempDir() + "/smpmsf_io_canon.smpg";
  write_binary_file(path, g);
  const EdgeList h = read_binary_file(path);
  ASSERT_EQ(h.num_edges(), 2u);
  EXPECT_DOUBLE_EQ(h.edges[0].w, 2.0);
  EXPECT_DOUBLE_EQ(h.edges[1].w, 1.0);
  const EdgeList all = read_binary_file(path, ParallelEdgePolicy::kKeepAll);
  EXPECT_EQ(all.num_edges(), 3u);
}

TEST(GraphIO, FileRoundTrip) {
  const EdgeList g = mesh2d(8, 8, 4);
  const std::string path = ::testing::TempDir() + "/smpmsf_io_test.gr";
  write_dimacs_file(path, g);
  const EdgeList h = read_dimacs_file(path);
  EXPECT_EQ(h.num_vertices, g.num_vertices);
  EXPECT_EQ(h.num_edges(), g.num_edges());
  EXPECT_THROW(read_dimacs_file(path + ".does-not-exist"), std::runtime_error);
}

// --- DIMACS reader: chunked parse ------------------------------------------

/// "e u v w\n" lines cycling over the edges of a 3-vertex triangle, enough
/// of them that the text runs past the first read chunk.
std::string chunk_filler(std::size_t lines) {
  std::string text;
  for (std::size_t i = 0; i < lines; ++i) {
    text += "e " + std::to_string(1 + i % 3) + " " +
            std::to_string(1 + (i + 1) % 3) + " 0.25\n";
  }
  return text;
}

/// Throws from read_dimacs and returns the message.
std::string dimacs_error(const std::string& text) {
  std::istringstream is(text);
  try {
    (void)read_dimacs(is, ParallelEdgePolicy::kKeepAll);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "no error";
}

TEST(DimacsReader, LineSplitAcrossChunkBoundary) {
  // The edge line "e 2 3 0.123456789012345" starts 7 bytes before the end
  // of the first chunk, so both the vertex ids and the weight straddle it.
  const std::string header = "p edge 3 3\n";
  const std::string split = "e 2 3 0.123456789012345\n";
  const std::size_t pad = kDimacsChunkBytes - 7 - header.size() - 3;
  const std::string text = header + "c " + std::string(pad, 'x') + "\n" +
                           split + "e 1 2 5\ne 3 1 -0.5";
  ASSERT_EQ(text.find(split), kDimacsChunkBytes - 7);
  std::istringstream is(text);
  const EdgeList g = read_dimacs(is, ParallelEdgePolicy::kKeepAll);
  ASSERT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.edges[0].u, 1u);
  EXPECT_EQ(g.edges[0].v, 2u);
  EXPECT_EQ(g.edges[0].w, 0.123456789012345);
  EXPECT_EQ(g.edges[1].w, 5.0);
  EXPECT_EQ(g.edges[2].w, -0.5);  // last line has no newline
}

TEST(DimacsReader, LineLongerThanAChunk) {
  const std::string text = "c " + std::string(kDimacsChunkBytes + 100, 'y') +
                           "\np edge 2 1\ne 1 2 " +
                           std::string(kDimacsChunkBytes, ' ') + "7.5\n";
  std::istringstream is(text);
  const EdgeList g = read_dimacs(is);
  ASSERT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.edges[0].w, 7.5);
}

TEST(DimacsReader, ManyChunksMatchTheEdgeList) {
  const EdgeList g = random_graph(3000, 120000, 8);  // about 3.5 MB of text
  std::stringstream ss;
  write_dimacs(ss, g);
  ASSERT_GT(ss.str().size(), 3 * kDimacsChunkBytes);
  const EdgeList h = read_dimacs(ss, ParallelEdgePolicy::kKeepAll);
  ASSERT_EQ(h.num_edges(), g.num_edges());
  for (std::size_t i = 0; i < g.edges.size(); ++i) {
    ASSERT_EQ(h.edges[i].u, g.edges[i].u) << i;
    ASSERT_EQ(h.edges[i].v, g.edges[i].v) << i;
    ASSERT_EQ(h.edges[i].w, g.edges[i].w) << i;
  }
}

TEST(DimacsReader, ErrorsInTheSecondChunkNameTheirLine) {
  // 120 000 lines of 11 bytes: line 100 002 lies past the first chunk.
  const std::size_t lines = 120000;
  const std::string head = "p edge 3 " + std::to_string(lines) + "\n";
  const std::string body = chunk_filler(lines);
  const std::size_t bad_line = 100002;  // header is line 1
  ASSERT_GT(head.size() + 11 * (bad_line - 2), kDimacsChunkBytes);
  const auto with_line = [&](const std::string& line) {
    std::string text = head + body;
    const std::size_t at = head.size() + 11 * (bad_line - 2);
    text.replace(at, 11, line);
    return text;
  };
  const std::string at = " at line " + std::to_string(bad_line);
  EXPECT_EQ(dimacs_error(with_line("q 1 2 0.25\n")),
            "read_dimacs: unknown line tag" + at);
  EXPECT_EQ(dimacs_error(with_line("e 1 9 0.25\n")),
            "read_dimacs: bad edge" + at);
  EXPECT_EQ(dimacs_error(with_line("e 1 2 x.25\n")),
            "read_dimacs: bad edge" + at);
  EXPECT_EQ(dimacs_error(with_line("e 1 2 nan \n")),
            "read_dimacs: non-finite weight" + at);
  EXPECT_EQ(dimacs_error(with_line("p edge 3 x\n")),
            "read_dimacs: bad problem line" + at);
  // One line short of the declared count, the file ending mid-chunk.
  EXPECT_EQ(dimacs_error(with_line("c  comment\n")),
            "read_dimacs: edge count mismatch");
  EXPECT_EQ(dimacs_error(with_line("e 1 2 0.25\n")), "no error");
}

// --- .smpg reader: chunked bulk read ----------------------------------------

constexpr std::size_t kHeaderBytes = 20;
constexpr std::size_t kRecordBytes = 16;
constexpr std::size_t kChunkEdges = std::size_t{1} << 20;  // the reader's chunk

std::string smpg_bytes(const EdgeList& g) {
  std::ostringstream os(std::ios::binary);
  write_binary(os, g);
  return os.str();
}

EdgeList read_smpg(const std::string& bytes, ParallelEdgePolicy policy) {
  std::istringstream is(bytes, std::ios::binary);
  return read_binary(is, policy);
}

std::string read_error(const std::string& bytes) {
  try {
    read_smpg(bytes, ParallelEdgePolicy::kKeepAll);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "no error";
}

// Two chunks' worth of records: the second chunk holds the last 5.
EdgeList two_chunk_graph() {
  EdgeList g(1000);
  g.edges.reserve(kChunkEdges + 5);
  for (std::size_t i = 0; i < kChunkEdges + 5; ++i) {
    g.edges.push_back(WEdge{static_cast<VertexId>(i % 1000),
                            static_cast<VertexId>((i * 7 + 1) % 1000),
                            static_cast<Weight>(i % 977) - 300.5});
  }
  return g;
}

TEST(BinaryReader, HugeDeclaredCountOverShortBodyIsARuntimeError) {
  EdgeList g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(2, 3, 3.0);
  std::string bytes = smpg_bytes(g);
  const std::uint64_t declared = std::uint64_t{1} << 40;
  std::memcpy(bytes.data() + 12, &declared, sizeof declared);
  EXPECT_THROW(read_smpg(bytes, ParallelEdgePolicy::kCanonicalize),
               std::runtime_error);
  EXPECT_NE(read_error(bytes).find("truncated"), std::string::npos);
}

TEST(BinaryReader, RecordsCrossTheChunkBoundaryIntact) {
  const EdgeList g = two_chunk_graph();
  const EdgeList h = read_smpg(smpg_bytes(g), ParallelEdgePolicy::kKeepAll);
  EXPECT_EQ(h.num_vertices, g.num_vertices);
  EXPECT_EQ(h.edges, g.edges);
}

TEST(BinaryReader, OutOfRangeEndpointInSecondChunkThrows) {
  std::string bytes = smpg_bytes(two_chunk_graph());
  const VertexId bad = 1000;  // == num_vertices
  std::memcpy(bytes.data() + kHeaderBytes + (kChunkEdges + 2) * kRecordBytes + 4,
              &bad, sizeof bad);
  EXPECT_NE(read_error(bytes).find("endpoint out of range"), std::string::npos);
}

TEST(BinaryReader, TruncationMidRecordInSecondChunkThrows) {
  std::string bytes = smpg_bytes(two_chunk_graph());
  bytes.resize(kHeaderBytes + (kChunkEdges + 2) * kRecordBytes + 7);
  EXPECT_NE(read_error(bytes).find("truncated"), std::string::npos);
}

}  // namespace
