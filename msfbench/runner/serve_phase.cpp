#include "serve_phase.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <unordered_set>

#include "core/msf.hpp"
#include "dynamic/dynamic_msf.hpp"
#include "net/frame.hpp"
#include "persist/session_log.hpp"
#include "pprim/thread_team.hpp"
#include "query/forest_index.hpp"
#include "serve/request.hpp"

extern char** environ;

namespace msfbench {

using smp::graph::EdgeId;
using smp::graph::EdgeList;
using smp::graph::VertexId;
using smp::graph::WEdge;
using smp::serve::Op;
using smp::serve::Request;
using smp::serve::Response;

volatile sig_atomic_t g_server_pid = 0;

namespace {

const char* const kSession = "g";

// ---------------------------------------------------------------------------
// The server as a child process.

class ServerProcess {
 public:
  ServerProcess(const std::vector<std::string>& args, const std::string& log)
      : log_(log) {
    std::vector<char*> argv;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    const int rc = posix_spawn(&pid_, argv[0], &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot start " + args[0] + ": " + std::strerror(rc));
    }
    g_server_pid = pid_;
  }
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }

  /// Waits for the "listening on ... tcp:PORT" line and returns PORT.
  std::uint16_t wait_listening(double timeout_s) {
    const auto t0 = Clock::now();
    while (seconds_since(t0) < timeout_s) {
      std::ifstream in(log_);
      const std::string text((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
      const auto at = text.find("listening on ");
      if (at != std::string::npos) {
        const auto tcp = text.find("tcp:", at);
        if (tcp != std::string::npos) {
          return static_cast<std::uint16_t>(std::atoi(text.c_str() + tcp + 4));
        }
      }
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        g_server_pid = 0;
        throw std::runtime_error("server exited during start-up:\n" + text);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    throw std::runtime_error("server did not start listening within the timeout");
  }

  /// SIGTERM (the server drains and exits 0), SIGKILL after 60 s.  Returns
  /// the exit status, -1 when killed or already gone.
  int stop() {
    if (pid_ < 0) return -1;
    kill(pid_, SIGTERM);
    int status = 0;
    const auto t0 = Clock::now();
    bool killed = false;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (!killed && seconds_since(t0) > 60) {
        kill(pid_, SIGKILL);
        killed = true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    g_server_pid = 0;
    return !killed && WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  pid_t pid_ = -1;
  std::string log_;
};

// ---------------------------------------------------------------------------
// One client connection speaking the binary protocol through the net
// layer's public frame codec, non-blocking so one thread can drive several.

class Conn {
 public:
  explicit Conn(std::uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      close(fd_);
      throw std::runtime_error("cannot connect to the server");
    }
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    fcntl(fd_, F_SETFL, fcntl(fd_, F_GETFL) | O_NONBLOCK);
  }
  ~Conn() { close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] bool wants_write() const { return out_off_ < out_.size(); }

  void queue(std::uint64_t id, const Request& req) {
    smp::net::BinRequest br;
    br.id = id;
    br.req = req;
    std::string msg;
    smp::net::encode_request(msg, br);
    smp::net::frame_message(out_, msg);
  }

  /// Writes what the socket takes without blocking.
  void flush() {
    while (out_off_ < out_.size()) {
      const ssize_t k = ::send(fd_, out_.data() + out_off_, out_.size() - out_off_,
                               MSG_NOSIGNAL);
      if (k < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        throw std::runtime_error("send failed");
      }
      out_off_ += static_cast<std::size_t>(k);
    }
    if (out_off_ == out_.size()) {
      out_.clear();
      out_off_ = 0;
    }
  }

  /// Reads what is available and appends every complete response to `out`.
  void drain(std::vector<smp::net::BinResponse>& out) {
    char buf[1 << 16];
    for (;;) {
      const ssize_t k = ::recv(fd_, buf, sizeof buf, 0);
      if (k == 0) throw std::runtime_error("server closed the connection");
      if (k < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        throw std::runtime_error("recv failed");
      }
      in_.append(buf, static_cast<std::size_t>(k));
    }
    for (;;) {
      std::string_view payload;
      std::string err;
      const auto st = smp::net::try_read_frame(in_, in_off_, payload, err);
      if (st == smp::net::DecodeStatus::kNeedMore) break;
      if (st != smp::net::DecodeStatus::kOk ||
          !smp::net::decode_response_payload(payload, out, err)) {
        throw std::runtime_error("bad response frame: " + err);
      }
    }
    if (in_off_ > 0 && in_off_ * 2 >= in_.size()) {
      in_.erase(0, in_off_);
      in_off_ = 0;
    }
  }

  /// Blocking round trip for set-up and verification (nothing else in
  /// flight on this connection).
  Response call(const Request& req, double timeout_s = 60) {
    const std::uint64_t id = next_call_id_++;
    queue(id, req);
    std::vector<smp::net::BinResponse> got;
    const auto t0 = Clock::now();
    for (;;) {
      flush();
      for (auto& r : got) {
        if (r.id == id) return std::move(r.resp);
      }
      got.clear();
      if (seconds_since(t0) > timeout_s) throw std::runtime_error("request timed out");
      pollfd p{fd_, static_cast<short>(POLLIN | (wants_write() ? POLLOUT : 0)), 0};
      poll(&p, 1, 50);
      drain(got);
    }
  }

 private:
  int fd_ = -1;
  std::string out_;
  std::size_t out_off_ = 0;
  std::string in_;
  std::size_t in_off_ = 0;
  std::uint64_t next_call_id_ = std::uint64_t{1} << 62;  // apart from load ids
};

Request make_request(Op op) {
  Request r;
  r.op = op;
  r.session = kSession;
  return r;
}

Request stats_request() {
  Request r;
  r.op = Op::kStats;
  return r;
}

/// Two distinct vertices: the server rejects pathmax/conn/connected on u == v.
std::pair<VertexId, VertexId> distinct_pair(std::mt19937_64& rng, VertexId n) {
  std::uniform_int_distribution<VertexId> vd(0, n - 1);
  for (;;) {
    const VertexId u = vd(rng), v = vd(rng);
    if (u != v) return {u, v};
  }
}

// ---------------------------------------------------------------------------
// The generator's mirror of the live edge set, and the write targets.
//
// Writes are built so that they commute: a delete names a base edge (the
// generators never emit parallel edges, so its endpoints name exactly that
// edge) never deleted before, and an insert joins a pair absent from the
// base graph and never inserted before.  The final live set is therefore
// the same whatever order the server applied the writes in, and the mirror
// needs no reply payload to follow it.

class Mirror {
 public:
  Mirror(const EdgeList& g, const Reference& ref, std::uint64_t seed)
      : g_(g), deleted_(g.num_edges(), 0), in_forest_(g.num_edges(), 0),
        rng_(seed) {
    base_pairs_.reserve(g.num_edges());
    for (const WEdge& e : g.edges) base_pairs_.push_back(pair_key(e.u, e.v));
    std::sort(base_pairs_.begin(), base_pairs_.end());
    forest_targets_ = ref.ids;
    for (const EdgeId id : ref.ids) in_forest_[id] = 1;
    std::shuffle(forest_targets_.begin(), forest_targets_.end(), rng_);
  }

  WEdge next_insert() {
    std::uniform_int_distribution<VertexId> vd(0, g_.num_vertices - 1);
    std::uniform_real_distribution<double> wd(0.0, 1.0);
    for (;;) {
      const VertexId u = vd(rng_), v = vd(rng_);
      if (u == v) continue;
      const std::uint64_t key = pair_key(u, v);
      if (std::binary_search(base_pairs_.begin(), base_pairs_.end(), key) ||
          !inserted_pairs_.insert(key).second) {
        continue;
      }
      const WEdge e{u, v, wd(rng_)};
      inserted_.push_back(e);
      return e;
    }
  }

  /// A base edge to delete: 30% from the initial forest (the server must
  /// search for a replacement), the rest from the non-forest edges.
  WEdge next_delete() {
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    if (coin(rng_) < 0.3 && forest_next_ < forest_targets_.size()) {
      return take(forest_targets_[forest_next_++]);
    }
    std::uniform_int_distribution<EdgeId> ed(0, g_.num_edges() - 1);
    for (;;) {
      const EdgeId id = ed(rng_);
      if (!deleted_[id] && !in_forest_[id]) return take(id);
    }
  }

  /// The live graph: surviving base edges, then the inserted ones.
  [[nodiscard]] EdgeList live() const {
    EdgeList out(g_.num_vertices);
    out.edges.reserve(g_.num_edges() + inserted_.size());
    for (EdgeId id = 0; id < g_.num_edges(); ++id) {
      if (!deleted_[id]) out.edges.push_back(g_.edges[id]);
    }
    out.edges.insert(out.edges.end(), inserted_.begin(), inserted_.end());
    return out;
  }

  std::mt19937_64& rng() { return rng_; }

 private:
  static std::uint64_t pair_key(VertexId u, VertexId v) {
    if (u > v) std::swap(u, v);
    return (std::uint64_t{u} << 32) | v;
  }
  WEdge take(EdgeId id) {
    deleted_[id] = 1;
    return g_.edges[id];
  }

  const EdgeList& g_;
  std::vector<char> deleted_;
  std::vector<char> in_forest_;
  std::vector<std::uint64_t> base_pairs_;  // sorted
  std::unordered_set<std::uint64_t> inserted_pairs_;
  std::vector<WEdge> inserted_;
  std::vector<EdgeId> forest_targets_;
  std::size_t forest_next_ = 0;
  std::mt19937_64 rng_;
};

// ---------------------------------------------------------------------------
// The traffic mix, per 10000 requests: plain reads 48%, index queries 48%,
// writes 4% (half inserts, half deletes), all at fixed intervals.
//
// At 3000 requests/s that is 120 writes/s, more than the flusher applies
// one at a time (about 7 flushes/s on the served mesh, each paying an
// O(graph) apply and an index build whatever its batch size), so it runs
// back to back and writes coalesce about 16 to a batch: the write path is
// saturated and its latency is about two flush cycles.  The first query on
// each new snapshot builds its index on an I/O thread, and about 60% of
// reads and queries wait behind such a build.  That puts their p50 at the
// edge between the blocked and the free mode (6-17 ms from run to run); at
// 0.1% writes (3 flushes/s) a quarter to a third wait and the p50 lies in
// the free mode, where it moves by 40% with host load (0.12-0.23 ms).
// Every served latency moves two to three times as much as the host's
// steal, since the saturated server needs nearly all the vCPUs, so all
// of them are per-layer figures and goodput is the end-to-end one.

enum class Kind { kWeight, kConnected, kPathMax, kConn, kTopK, kInsert, kDelete };
enum Class { kRead = 0, kQuery = 1, kWrite = 2 };

struct MixRow {
  Kind kind;
  int per_10k;
  Class cls;
};
constexpr MixRow kMix[] = {
    {Kind::kWeight, 1600, kRead},   {Kind::kConnected, 3200, kRead},
    {Kind::kPathMax, 2800, kQuery}, {Kind::kConn, 1980, kQuery},
    {Kind::kTopK, 20, kQuery},      {Kind::kInsert, 200, kWrite},
    {Kind::kDelete, 200, kWrite},
};
constexpr double kLimitMs[] = {kReadLimitMs, kQueryLimitMs, kWriteLimitMs};
constexpr const char* kClassName[] = {"read", "query", "write"};

const MixRow& pick(std::mt19937_64& rng) {
  const int x = static_cast<int>(rng() % 10000);
  int acc = 0;
  for (const MixRow& row : kMix) {
    acc += row.per_10k;
    if (x < acc) return row;
  }
  return kMix[0];
}

Request build(Kind kind, Mirror& mirror, VertexId n) {
  auto& rng = mirror.rng();
  switch (kind) {
    case Kind::kWeight:
      return make_request(Op::kWeight);
    case Kind::kConnected:
    case Kind::kPathMax:
    case Kind::kConn: {
      Request r = make_request(kind == Kind::kConnected ? Op::kConnected
                               : kind == Kind::kPathMax ? Op::kPathMax
                                                        : Op::kConn);
      std::tie(r.u, r.v) = distinct_pair(rng, n);
      return r;
    }
    case Kind::kTopK: {
      Request r = make_request(Op::kTopK);
      r.limit = 10;
      return r;
    }
    case Kind::kInsert: {
      Request r = make_request(Op::kInsert);
      r.insertions.push_back(mirror.next_insert());
      return r;
    }
    case Kind::kDelete: {
      Request r = make_request(Op::kDelete);
      const WEdge e = mirror.next_delete();
      r.deletions.emplace_back(e.u, e.v);
      return r;
    }
  }
  return make_request(Op::kPing);
}

// ---------------------------------------------------------------------------
// Verification against the mirror.

std::vector<WEdge> canonical(std::vector<WEdge> edges) {
  for (WEdge& e : edges) {
    if (e.u > e.v) std::swap(e.u, e.v);
  }
  std::sort(edges.begin(), edges.end(), [](const WEdge& a, const WEdge& b) {
    if (a.u != b.u) return a.u < b.u;
    if (a.v != b.v) return a.v < b.v;
    return std::bit_cast<std::uint64_t>(a.w) < std::bit_cast<std::uint64_t>(b.w);
  });
  return edges;
}

bool same_edge(VertexId au, VertexId av, double aw, VertexId bu, VertexId bv,
               double bw) {
  return ((au == bu && av == bv) || (au == bv && av == bu)) &&
         std::bit_cast<std::uint64_t>(aw) == std::bit_cast<std::uint64_t>(bw);
}

/// Checks the served forest and a sample of query replies against a scratch
/// Kruskal solve of the mirror.  Runs with the load stopped.
void verify(Conn& c, const Mirror& mirror, const ServeOptions& opts,
            Tally& tally, JsonObject& detail) {
  const EdgeList live = mirror.live();
  smp::core::MsfOptions kopts;
  kopts.algorithm = smp::core::Algorithm::kSeqKruskal;
  const smp::graph::MsfResult want = smp::core::minimum_spanning_forest(live, kopts);

  ++tally.attempted;
  const Response w = c.call(make_request(Op::kWeight));
  if (!w.ok() || w.trees != want.num_trees || w.forest_edges != want.edges.size() ||
      w.live_edges != live.num_edges() ||
      std::abs(w.weight - want.total_weight) >
          1e-12 * std::max(1.0, std::abs(want.total_weight))) {
    tally.fail("served weight/trees differ from a scratch Kruskal of the mirror");
  }
  ++tally.attempted;
  const Response fe = c.call(make_request(Op::kForestEdges));
  if (!fe.ok() || canonical(fe.edges) != canonical(want.edges)) {
    tally.fail("served forest edges differ from a scratch Kruskal of the mirror");
  }

  smp::ThreadTeam team(1);
  const smp::query::ForestIndex index(team, live.num_vertices, want.edges,
                                      want.edge_ids, 1);
  std::mt19937_64 rng(opts.seed ^ 0x5eed);
  constexpr int kSamples = 200;
  for (int i = 0; i < kSamples; ++i) {
    Request pm = make_request(Op::kPathMax);
    std::tie(pm.u, pm.v) = distinct_pair(rng, live.num_vertices);
    Response got = c.call(pm);
    if (opts.corrupt_reply && i == 0) got.pathmax_w += 1.0;
    const auto exp = index.path_max(pm.u, pm.v);
    ++tally.attempted;
    if (!got.ok() || got.pathmax_found != exp.connected ||
        (exp.connected && !same_edge(got.pathmax_u, got.pathmax_v, got.pathmax_w,
                                     exp.u, exp.v, exp.weight))) {
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "pathmax(%u, %u) reply differs from the mirror's ForestIndex:"
                    " served %s found=%d (%u, %u, %.17g), expected found=%d"
                    " (%u, %u, %.17g)",
                    pm.u, pm.v, std::string(smp::serve::to_string(got.status)).c_str(),
                    got.pathmax_found, got.pathmax_u, got.pathmax_v, got.pathmax_w,
                    exp.connected, exp.u, exp.v, exp.weight);
      tally.fail(buf);
    }
    Request cn = make_request(Op::kConn);
    std::tie(cn.u, cn.v) = distinct_pair(rng, live.num_vertices);
    const Response cg = c.call(cn);
    ++tally.attempted;
    if (!cg.ok() || cg.connected != index.connected(cn.u, cn.v)) {
      tally.fail("conn reply differs from the mirror's ForestIndex");
    }
  }
  detail.add("verified_query_samples", 2 * kSamples)
      .add("final_live_edges", static_cast<std::uint64_t>(live.num_edges()))
      .add("final_trees", static_cast<std::uint64_t>(want.num_trees));
}

// ---------------------------------------------------------------------------
// In-process probes of the layers under the server (traced runs only), on
// the served graph and at the run's observed mean coalesced batch.

void layer_probes(const EdgeList& g, const Reference& ref,
                  const ServeOptions& opts, std::size_t batch, Tracer& tracer,
                  JsonObject& values) {
  smp::ThreadTeam team(opts.threads);
  smp::dynamic::DynamicMsfOptions dopts;
  dopts.msf.threads = opts.threads;
  dopts.team = &team;
  std::unique_ptr<smp::dynamic::DynamicMsf> dm;
  {
    Tracer::Scope span(tracer, "dynamic.DynamicMsf");
    dm = std::make_unique<smp::dynamic::DynamicMsf>(g, dopts);
  }
  Mirror targets(g, ref, opts.seed ^ 0xbadc0de);
  std::vector<double> apply_ms, candidates, live_ms, index_ms, append_us, wait_ms;
  for (int rep = 0; rep < 10; ++rep) {
    std::vector<WEdge> ins;
    std::vector<EdgeId> del;
    for (std::size_t i = 0; i < batch; ++i) {
      if (i % 2 == 0) {
        ins.push_back(targets.next_insert());
      } else {
        const WEdge e = targets.next_delete();
        del.push_back(*dm->store().find_live(e.u, e.v));
      }
    }
    const auto t0 = Clock::now();
    Tracer::Scope span(tracer, "dynamic.apply_batch");
    const smp::dynamic::MsfDelta d = dm->apply_batch(ins, del);
    apply_ms.push_back(1e3 * seconds_since(t0));
    candidates.push_back(static_cast<double>(d.candidate_edges));
  }
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    Tracer::Scope span(tracer, "dynamic.live_graph");
    std::vector<EdgeId> ids;
    const EdgeList live = dm->store().live_graph(&ids);
    live_ms.push_back(1e3 * seconds_since(t0));
  }
  std::unique_ptr<smp::query::ForestIndex> index;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    Tracer::Scope span(tracer, "query.ForestIndex");
    index = std::make_unique<smp::query::ForestIndex>(
        team, dm->store(), dm->forest_edge_ids(), rep + 1);
    index_ms.push_back(1e3 * seconds_since(t0));
  }
  constexpr int kPathQueries = 20000;
  std::mt19937_64 rng(opts.seed);
  std::vector<std::pair<VertexId, VertexId>> pairs(kPathQueries);
  for (auto& p : pairs) p = distinct_pair(rng, g.num_vertices);
  const auto q0 = Clock::now();
  {
    Tracer::Scope span(tracer, "query.path_max");
    for (const auto& [u, v] : pairs) (void)index->path_max(u, v);
  }
  const double path_us = 1e6 * seconds_since(q0) / kPathQueries;

  // WAL append + group-commit wait under fsync=interval, one record per
  // coalesced batch.
  const std::string wal_dir = opts.work_dir + "/probe-wal";
  std::filesystem::remove_all(wal_dir);
  {
    smp::persist::SessionLogOptions lopts;
    lopts.fsync = smp::persist::FsyncPolicy::kInterval;
    smp::persist::RecoveredState st;
    smp::persist::SessionLog log(wal_dir, lopts, &st);
    for (int rep = 0; rep < 40; ++rep) {
      smp::persist::WalRecord rec;
      for (std::size_t i = 0; i < batch; ++i) {
        if (i % 2 == 0) {
          rec.insertions.push_back(g.edges[(rep * batch + i) % g.num_edges()]);
        } else {
          rec.deletions.push_back((rep * batch + i) % g.num_edges());
        }
      }
      auto t0 = Clock::now();
      std::uint64_t lsn = 0;
      {
        Tracer::Scope span(tracer, "persist.append");
        lsn = log.append(std::move(rec));
      }
      append_us.push_back(1e6 * seconds_since(t0));
      t0 = Clock::now();
      {
        Tracer::Scope span(tracer, "persist.wait_durable");
        log.wait_durable(lsn);
      }
      wait_ms.push_back(1e3 * seconds_since(t0));
    }
  }
  std::filesystem::remove_all(wal_dir);
  values.add("dynamic.apply_batch_ms", median(apply_ms))
      .add("dynamic.candidate_edges", median(candidates))
      .add("dynamic.live_graph_ms", median(live_ms))
      .add("query.index_build_ms", median(index_ms))
      .add("query.path_max_us", path_us)
      .add("persist.append_us", median(append_us))
      .add("persist.durable_wait_ms", median(wait_ms));
}

}  // namespace

void run_serve(const EdgeList& g, const Reference& ref, const ServeOptions& opts,
               Tracer& tracer, JsonObject& values, JsonObject& detail,
               Tally& tally) {
  // --- set-up: start the server five times, keep the last one ----------
  std::vector<double> setup_s;
  std::unique_ptr<ServerProcess> server;
  std::unique_ptr<Conn> control;
  std::uint16_t port = 0;
  constexpr int kSetups = 5;
  for (int k = 0; k < kSetups; ++k) {
    if (server != nullptr) {
      control.reset();
      server->stop();
      server.reset();
    }
    const std::string data = opts.work_dir + "/data-" + std::to_string(k);
    std::filesystem::remove_all(data);
    Tracer::Scope span(tracer, "serve.setup");
    const auto t0 = Clock::now();
    server = std::make_unique<ServerProcess>(
        std::vector<std::string>{
            opts.server, "--listen", "tcp:0", "--threads",
            std::to_string(opts.threads), "--shards", "1", "--io-threads", "2",
            "--data-dir", data, "--fsync", "interval", "--preload",
            std::string(kSession) + "=" + opts.graph_path},
        opts.work_dir + "/server-" + std::to_string(k) + ".log");
    port = server->wait_listening(120);
    control = std::make_unique<Conn>(port);
    if (!control->call(make_request(Op::kHealth)).ok()) {
      throw std::runtime_error("server not healthy after start-up");
    }
    setup_s.push_back(seconds_since(t0));
  }
  values.add("serve.setup_s", median(setup_s));

  // --- warm-up: build the query index and the pair index, page in paths --
  Mirror mirror(g, ref, opts.seed);
  for (const Kind k : {Kind::kWeight, Kind::kConnected, Kind::kPathMax, Kind::kConn,
                       Kind::kTopK, Kind::kInsert, Kind::kDelete, Kind::kPathMax}) {
    ++tally.attempted;
    if (!control->call(build(k, mirror, g.num_vertices)).ok()) {
      tally.fail("warm-up request failed");
    }
  }
  if (opts.traced) {
    std::vector<double> ping_us;
    for (int i = 0; i < 200; ++i) {
      Tracer::Scope span(tracer, "net.ping");
      const auto t0 = Clock::now();
      control->call(Request());
      ping_us.push_back(1e6 * seconds_since(t0));
    }
    values.add("net.ping_p50_us", median(ping_us));
  }
  const std::string stats_before = control->call(stats_request()).stats_json;
  const bool rss_reset = reset_peak_rss(server->pid());

  // --- the open-loop window ----------------------------------------------
  std::vector<std::unique_ptr<Conn>> conns;
  for (int i = 0; i < opts.connections; ++i) conns.push_back(std::make_unique<Conn>(port));
  const auto total = static_cast<std::size_t>(opts.window_s * opts.rate_rps);
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / opts.rate_rps));
  struct Slot {
    Clock::time_point due;
    Class cls = kRead;
    Op op = Op::kPing;
    bool done = false;
  };
  std::vector<Slot> slots(total);
  // Per class: (scheduled offset in the window in s, latency in ms).
  std::vector<std::pair<double, double>> lat[3];
  std::vector<double> late_ms, traced_read_ms, plain_read_ms, client_connected_us;
  std::uint64_t good = 0;
  // Every member of a coalesced group is acked with the group's size, so
  // the acks of one apply_batch of k writes add up to k * (1/k) = 1.
  double write_batches = 0;
  std::size_t outstanding = 0, next = 0;
  const int window_span = tracer.begin("serve.window");
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto due = [&](std::size_t i) {
    return start + interval * static_cast<std::int64_t>(i);
  };
  auto last_reply = start;
  std::vector<smp::net::BinResponse> got;
  std::vector<pollfd> pfds(conns.size());
  Clock::time_point drain_deadline{};
  for (;;) {
    auto now = Clock::now();
    while (next < total && due(next) <= now) {
      Slot& s = slots[next];
      s.due = due(next);
      const MixRow& row = pick(mirror.rng());
      const Request req = build(row.kind, mirror, g.num_vertices);
      s.cls = row.cls;
      s.op = req.op;
      conns[next % conns.size()]->queue(next, req);
      late_ms.push_back(1e3 * std::chrono::duration<double>(now - s.due).count());
      ++next;
      ++outstanding;
    }
    for (auto& c : conns) c->flush();
    if (next == total && outstanding == 0) break;
    if (next == total && drain_deadline == Clock::time_point{}) {
      drain_deadline = now + std::chrono::seconds(15);
    }
    if (next == total && now > drain_deadline) break;
    const auto wake = next < total ? due(next) : drain_deadline;
    const auto wait = std::max<Clock::duration>(wake - now, Clock::duration::zero());
    const timespec ts{
        static_cast<time_t>(std::chrono::duration_cast<std::chrono::seconds>(wait).count()),
        static_cast<long>(std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count() %
                          1000000000)};
    for (std::size_t i = 0; i < conns.size(); ++i) {
      pfds[i] = pollfd{conns[i]->fd(),
                       static_cast<short>(POLLIN | (conns[i]->wants_write() ? POLLOUT : 0)), 0};
    }
    ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      got.clear();
      conns[i]->drain(got);
      now = Clock::now();
      for (const auto& r : got) {
        if (r.id >= total || slots[r.id].done) {
          ++tally.attempted;
          tally.fail("reply with an unknown id");
          continue;
        }
        Slot& s = slots[r.id];
        s.done = true;
        --outstanding;
        last_reply = now;
        const double ms = 1e3 * std::chrono::duration<double>(now - s.due).count();
        ++tally.attempted;
        if (!r.resp.ok()) {
          tally.fail(std::string(smp::serve::to_string(s.op)) + " failed: " +
                     std::string(smp::serve::to_string(r.resp.status)));
          continue;
        }
        const double offset_s = std::chrono::duration<double>(s.due - start).count();
        lat[s.cls].emplace_back(offset_s, ms);
        if (ms <= kLimitMs[s.cls]) ++good;
        if (s.op == Op::kConnected) client_connected_us.push_back(1e3 * ms);
        if (s.cls == kWrite && r.resp.coalesced > 0) {
          write_batches += 1.0 / static_cast<double>(r.resp.coalesced);
        }
        // Tracing overhead: spans are recorded only for requests due in
        // even seconds of the window, so reads of the odd seconds run as in
        // an untraced run.  Each second spans several flush cycles; the
        // means of the two sets compare (a median would flip with the
        // share of reads that waited on an index build).
        const bool span_period = static_cast<int>(offset_s) % 2 == 0;
        if (s.cls == kRead && opts.traced) {
          (span_period ? traced_read_ms : plain_read_ms).push_back(ms);
        }
        if (span_period) {
          tracer.record(std::string("serve.") + std::string(smp::serve::to_string(s.op)),
                        s.due, now, window_span,
                        2 + static_cast<int>(r.id % conns.size()));
        }
      }
    }
  }
  tracer.end(window_span);
  for (std::size_t i = 0; i < total; ++i) {
    if (!slots[i].done) {
      ++tally.attempted;
      tally.fail("no reply within 15 s of the window's end");
    }
  }
  const double elapsed = std::chrono::duration<double>(last_reply - start).count();
  conns.clear();

  // --- after the window: server counters, memory, correctness ------------
  const std::string stats_after = control->call(stats_request()).stats_json;
  values.add("serve.peak_rss_mb", peak_rss_mb(server->pid()));
  {
    Tracer::Scope span(tracer, "serve.verify");
    verify(*control, mirror, opts, tally, detail);
  }
  control.reset();
  const int exit_code = server->stop();
  if (exit_code != 0) tally.fail("server exit status " + std::to_string(exit_code));

  for (int cls = 0; cls < 3; ++cls) {
    const std::string name = kClassName[cls];
    std::vector<double> v;
    for (const auto& [offset, ms] : lat[cls]) v.push_back(ms);
    const std::size_t n = v.size();
    // Each percentile is taken per consecutive slice of the window (in
    // scheduled order) and reported as the lower quartile over the slices:
    // a stretch of the window in which another tenant holds the host's
    // CPUs raises the slices inside it, not the figure, unless it covers
    // three quarters of the window.  A p50 has up to eight slices of at
    // least 100 samples, a p99 up to eight of at least 1000 (ten or more
    // beyond their p99); a smaller class is one slice.
    std::sort(lat[cls].begin(), lat[cls].end());
    const auto sliced = [&](std::size_t min_slice, double q, std::size_t& slices) {
      slices = std::clamp<std::size_t>(n / min_slice, 1, 8);
      std::vector<double> per_slice;
      for (std::size_t k = 0; k < slices; ++k) {
        std::vector<double> part;
        for (std::size_t i = k * n / slices; i < (k + 1) * n / slices; ++i) {
          part.push_back(lat[cls][i].second);
        }
        per_slice.push_back(percentile(part, q));
      }
      return quantile(per_slice, 0.25);
    };
    std::size_t p50_slices = 1, slices = 1;
    values.add(name + "_p50_ms", sliced(100, 0.5, p50_slices));
    values.add(name + "_p99_ms", sliced(1000, 0.99, slices));
    // The contract prints every p99; one whose slices hold fewer than ten
    // samples past it is flagged instead of omitted.
    const std::size_t beyond = samples_beyond(n / slices, 0.99);
    detail.add(name + "_samples", static_cast<std::uint64_t>(n))
        .add(name + "_p50_slices", static_cast<std::uint64_t>(p50_slices))
        .add(name + "_p99_slices", static_cast<std::uint64_t>(slices))
        .add(name + "_p99_slice_samples_beyond", static_cast<std::uint64_t>(beyond))
        .add(name + "_p99_underpowered", beyond < 10)
        .add(name + "_p50_whole_window_ms", median(v))
        .add(name + "_p99_whole_window_ms", percentile(v, 0.99))
        .add(name + "_limit_ms", kLimitMs[cls]);
  }
  const double late_p99 = percentile(late_ms, 0.99);
  const double coalesce_mean =
      write_batches > 0 ? static_cast<double>(lat[kWrite].size()) / write_batches : 0;
  values.add("goodput_rps", static_cast<double>(good) / elapsed)
      .add("serve.coalesce_mean", coalesce_mean)
      .add("loadgen.late_p99_ms", late_p99)
      .add("client_connected_p50_us", median(client_connected_us));
  if (opts.traced) {
    values.add("trace.read_overhead_pct",
               100.0 * (mean(traced_read_ms) / mean(plain_read_ms) - 1.0));
  }
  detail.add("offered_rps", opts.rate_rps)
      .add("serve_window_s", opts.window_s)
      .add("serve_elapsed_s", elapsed)
      .add("requests_scheduled", static_cast<std::uint64_t>(total))
      .add("loadgen_late_p99_ms", late_p99)
      .add("late_samples", static_cast<std::uint64_t>(late_ms.size()))
      .add("server_threads", opts.threads)
      .add("fsync", "interval")
      .add("loop", "open, fixed-interval arrivals")
      .add("serve_setups", static_cast<std::uint64_t>(setup_s.size()))
      .add("serve_peak_rss_reset", rss_reset)
      .raw("stats_before", stats_before.empty() ? "null" : stats_before)
      .raw("stats_after", stats_after.empty() ? "null" : stats_after);

  if (opts.traced) {
    const auto batch = static_cast<std::size_t>(std::max(1.0, std::round(coalesce_mean)));
    detail.add("probe_batch", static_cast<std::uint64_t>(batch));
    layer_probes(g, ref, opts, batch, tracer, values);
  }
}

}  // namespace msfbench
