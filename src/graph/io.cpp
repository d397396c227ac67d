#include "graph/io.hpp"

#include "graph/validate.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string_view>
#include <type_traits>

namespace smp::graph {

namespace {

/// Reserve space for a declared edge count without trusting it: a corrupt
/// header must never force a huge up-front allocation (or an overflowing
/// count*sizeof multiply) before any edge record is parsed and rejected.
/// Shared by both readers; the cap only bounds the *reservation* — files
/// with more edges than the cap still load, growing geometrically.
void reserve_declared_edges(std::vector<WEdge>& edges, std::uint64_t declared) {
  constexpr std::uint64_t kMaxUpfrontReserve = std::uint64_t{1} << 20;
  edges.reserve(static_cast<std::size_t>(std::min(declared, kMaxUpfrontReserve)));
}

/// Shared tail of both readers: apply the caller's duplicate policy after the
/// file has fully parsed and validated.
EdgeList finish_load(EdgeList g, ParallelEdgePolicy policy) {
  if (policy == ParallelEdgePolicy::kKeepAll) return g;
  return canonicalize_parallel_edges(std::move(g));
}

}  // namespace

void write_dimacs(std::ostream& os, const EdgeList& g) {
  os << "c smpmsf graph\n";
  os << "p edge " << g.num_vertices << ' ' << g.num_edges() << '\n';
  os << std::setprecision(std::numeric_limits<Weight>::max_digits10);
  for (const auto& e : g.edges) {
    os << "e " << (e.u + 1) << ' ' << (e.v + 1) << ' ' << e.w << '\n';
  }
}

void write_dimacs_file(const std::string& path, const EdgeList& g) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("write_dimacs_file: cannot open " + path);
  write_dimacs(os, g);
}

namespace {

bool is_space(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Fields of one DIMACS line, read the way istream extraction reads them:
/// leading whitespace is skipped and a number ends at the first character
/// that cannot continue it (what follows the last field is ignored).
struct LineFields {
  const char* p;
  const char* end;

  void skip_space() {
    while (p < end && is_space(*p)) ++p;
  }
  std::string_view word() {
    skip_space();
    const char* b = p;
    while (p < end && !is_space(*p)) ++p;
    return {b, static_cast<std::size_t>(p - b)};
  }
  template <typename T>
  bool number(T& out) {
    skip_space();
    if (end - p > 1 && *p == '+' && p[1] != '-') ++p;
    const auto [q, ec] = std::from_chars(p, end, out);
    p = q;
    return ec == std::errc();
  }
};

}  // namespace

EdgeList read_dimacs(std::istream& is, ParallelEdgePolicy policy) {
  EdgeList g;
  bool have_header = false;
  EdgeId declared_edges = 0;
  std::size_t lineno = 0;
  const auto parse_line = [&](const char* begin, const char* end) {
    ++lineno;
    if (begin == end || *begin == 'c') return;
    LineFields f{begin, end};
    f.skip_space();
    const char tag = f.p < end ? *f.p++ : '\0';
    if (tag == 'p') {
      VertexId n = 0;
      if (f.word() != "edge" || !f.number(n) || !f.number(declared_edges)) {
        throw std::runtime_error("read_dimacs: bad problem line at line " +
                                 std::to_string(lineno));
      }
      g.num_vertices = n;
      reserve_declared_edges(g.edges, declared_edges);
      have_header = true;
    } else if (tag == 'e') {
      if (!have_header) throw std::runtime_error("read_dimacs: edge before problem line");
      VertexId u = 0, v = 0;
      Weight w = 0;
      if (!f.number(u) || !f.number(v) || !f.number(w) || u == 0 || v == 0 ||
          u > g.num_vertices || v > g.num_vertices) {
        throw std::runtime_error("read_dimacs: bad edge at line " + std::to_string(lineno));
      }
      // A nan weight poisons every comparison (and the tie-breaking
      // uniqueness argument all algorithms rely on); inf breaks weight sums.
      if (!std::isfinite(w)) {
        throw std::runtime_error("read_dimacs: non-finite weight at line " +
                                 std::to_string(lineno));
      }
      g.add_edge(u - 1, v - 1, w);
    } else {
      throw std::runtime_error("read_dimacs: unknown line tag at line " +
                               std::to_string(lineno));
    }
  };

  // Chunked read: parse every complete line in the buffer, carry the
  // partial last line to the front, refill behind it.  A buffer holding no
  // complete line doubles.
  std::vector<char> buf(kDimacsChunkBytes);
  std::size_t have = 0;
  for (;;) {
    is.read(buf.data() + have, static_cast<std::streamsize>(buf.size() - have));
    have += static_cast<std::size_t>(is.gcount());
    const bool at_end = !is;
    const char* line = buf.data();
    const char* const filled = buf.data() + have;
    while (const void* nl = std::memchr(
               line, '\n', static_cast<std::size_t>(filled - line))) {
      const char* eol = static_cast<const char*>(nl);
      parse_line(line, eol);
      line = eol + 1;
    }
    if (at_end) {
      if (line != filled) parse_line(line, filled);
      break;
    }
    have = static_cast<std::size_t>(filled - line);
    std::memmove(buf.data(), line, have);
    if (have == buf.size()) buf.resize(2 * buf.size());
  }
  if (!have_header) throw std::runtime_error("read_dimacs: missing problem line");
  if (g.num_edges() != declared_edges) {
    throw std::runtime_error("read_dimacs: edge count mismatch");
  }
  return finish_load(std::move(g), policy);
}

EdgeList read_dimacs_file(const std::string& path, ParallelEdgePolicy policy) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("read_dimacs_file: cannot open " + path);
  return read_dimacs(is, policy);
}

namespace {

constexpr char kMagic[4] = {'S', 'M', 'P', 'G'};
constexpr std::uint32_t kBinaryVersion = 1;
constexpr std::size_t kHeaderBytes = 20;  // magic, version, n, m

// Edge records move between disk and g.edges as raw bytes, so the in-memory
// WEdge must be the on-disk record.
static_assert(std::endian::native == std::endian::little,
              "the .smpg format is little-endian");
static_assert(std::is_trivially_copyable_v<WEdge> && sizeof(WEdge) == 16 &&
                  offsetof(WEdge, u) == 0 && offsetof(WEdge, v) == 4 &&
                  offsetof(WEdge, w) == 8,
              "WEdge must match the 16-byte .smpg edge record");

/// Records per read or write call (16 MiB): a corrupt declared count makes
/// the reader allocate at most one chunk beyond the records present.
constexpr std::size_t kChunkEdges = std::size_t{1} << 20;

}  // namespace

void write_binary(std::ostream& os, const EdgeList& g) {
  char header[kHeaderBytes];
  const std::uint64_t m = g.num_edges();
  std::memcpy(header, kMagic, 4);
  std::memcpy(header + 4, &kBinaryVersion, 4);
  std::memcpy(header + 8, &g.num_vertices, 4);
  std::memcpy(header + 12, &m, 8);
  os.write(header, kHeaderBytes);
  for (std::size_t i = 0; i < g.edges.size() && os; i += kChunkEdges) {
    const std::size_t count = std::min(kChunkEdges, g.edges.size() - i);
    os.write(reinterpret_cast<const char*>(g.edges.data() + i),
             static_cast<std::streamsize>(count * sizeof(WEdge)));
  }
  if (!os) throw std::runtime_error("write_binary: stream failure");
}

void write_binary_file(const std::string& path, const EdgeList& g) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("write_binary_file: cannot open " + path);
  write_binary(os, g);
}

EdgeList read_binary(std::istream& is, ParallelEdgePolicy policy) {
  char header[kHeaderBytes] = {};
  is.read(header, kHeaderBytes);
  if (is.gcount() < 4 || std::memcmp(header, kMagic, 4) != 0) {
    throw std::runtime_error("read_binary: bad magic (not an SMPG file)");
  }
  if (!is) throw std::runtime_error("read_binary: truncated input");
  std::uint32_t version = 0;
  std::memcpy(&version, header + 4, 4);
  if (version != kBinaryVersion) {
    throw std::runtime_error("read_binary: unsupported version " +
                             std::to_string(version));
  }
  EdgeList g;
  std::uint64_t m = 0;
  std::memcpy(&g.num_vertices, header + 8, 4);
  std::memcpy(&m, header + 12, 8);
  reserve_declared_edges(g.edges, m);
  // Read a chunk straight into g.edges, then validate the records it got
  // before reading on; a short read fails only after its whole records
  // passed, so errors surface in file order.
  while (g.edges.size() < m) {
    const std::size_t begin = g.edges.size();
    const auto want =
        static_cast<std::size_t>(std::min<std::uint64_t>(kChunkEdges, m - begin));
    g.edges.resize(begin + want);
    is.read(reinterpret_cast<char*>(g.edges.data() + begin),
            static_cast<std::streamsize>(want * sizeof(WEdge)));
    const auto got = static_cast<std::size_t>(is.gcount()) / sizeof(WEdge);
    for (std::size_t i = begin; i < begin + got; ++i) {
      const WEdge& e = g.edges[i];
      if (e.u >= g.num_vertices || e.v >= g.num_vertices) {
        throw std::runtime_error("read_binary: endpoint out of range");
      }
      if (!std::isfinite(e.w)) {
        throw std::runtime_error("read_binary: non-finite weight");
      }
    }
    if (got != want) throw std::runtime_error("read_binary: truncated input");
  }
  return finish_load(std::move(g), policy);
}

EdgeList read_binary_file(const std::string& path, ParallelEdgePolicy policy) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("read_binary_file: cannot open " + path);
  return read_binary(is, policy);
}

}  // namespace smp::graph
