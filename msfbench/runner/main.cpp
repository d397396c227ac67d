// msfbench-runner — runs one benchmark workload against the smpmsf
// libraries and the shipped smpmsf-server, and prints one JSON line with
// the measured values, run details and the correctness tally.  msfbench/
// run.py builds it, picks the reported metrics and formats the result.
//
//   msfbench-runner --workload NAME --seed N --seconds S --trace 0|1
//                   --server PATH --work DIR [--scale F]
//                   [--corrupt forest|reply]
//
// Every workload runs the same two phases: the static phase (four solves
// of the workload's own graph, timed over a share of --seconds, half
// before and half after the serve phase) and the serve phase (server
// set-up, open-loop load on the one served graph for the rest of
// --seconds, verification).
// --scale shrinks the graph and the offered rate (smoke tests); --corrupt
// damages one checked result so tests can see the correctness gate trip.
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "pprim/machine.hpp"
#include "serve_phase.hpp"
#include "static_phase.hpp"
#include "trace.hpp"
#include "util.hpp"

namespace {

using namespace msfbench;
using smp::graph::EdgeList;

/// The workloads: a graph family and size for the static phase.  Sizes are
/// the largest whose runs stay well inside the per-run time budget on a
/// 4-core host with enough static reps and serve samples for steady
/// figures (see msfbench/README.md).
struct Workload {
  const char* name;
  bool mesh;                  // 2D60 mesh (side x side), else random_graph
  smp::graph::VertexId n;     // random: vertices; mesh: side length
  smp::graph::EdgeId m;       // random only
};

/// Share of --seconds for the static phase, split into a window before and
/// one after the serve phase, which gets the rest.
constexpr double kStaticShare = 0.6;

/// Every workload serves this graph at this offered rate, so the serve
/// metrics of both workloads measure one serving configuration.  It is the
/// 2D60 mesh static-mesh solves: over four seeds each, the read and query
/// p99s spread about 0.1 serving it and about 0.2 serving a random graph
/// with m = 4n.  At this rate the 18 s serve window of a 45 s run holds
/// over 25 000 reads and as many queries, eight p99 slices of more than
/// 1000 samples each (serve_phase.cpp).
constexpr Workload kServed = {"served", true, 500, 0};
constexpr double kServeRateRps = 3000;

constexpr Workload kWorkloads[] = {
    {"static-random", false, 100000, 1000000},
    {"static-mesh", true, 500, 0},
};

/// SIGTERM/SIGINT, or the parent's death (PR_SET_PDEATHSIG): take the
/// server down with the runner.
void on_terminate(int sig) {
  if (g_server_pid > 0) kill(g_server_pid, SIGKILL);
  _exit(128 + sig);
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: msfbench-runner --workload NAME --seed N "
               "--seconds S --trace 0|1 --server PATH --work DIR [--scale F] "
               "[--corrupt forest|reply]\n",
               msg);
  std::exit(2);
}

EdgeList generate(const Workload& w, double scale, std::uint64_t seed) {
  if (w.mesh) {
    const auto side = static_cast<smp::graph::VertexId>(
        std::max(8.0, w.n * std::sqrt(scale)));
    return smp::graph::mesh2d_p(side, side, 0.6, seed);
  }
  const auto n = static_cast<smp::graph::VertexId>(std::max(64.0, w.n * scale));
  const auto m = static_cast<smp::graph::EdgeId>(
      std::max(4.0 * n, static_cast<double>(w.m) * scale));
  return smp::graph::random_graph(n, m, seed);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, server, work, corrupt;
  std::uint64_t seed = 0;
  double seconds = 0, scale = 1;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") workload = v;
    else if (a == "--seed") seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (a == "--seconds") seconds = std::strtod(v.c_str(), nullptr);
    else if (a == "--trace") trace = std::atoi(v.c_str());
    else if (a == "--server") server = v;
    else if (a == "--work") work = v;
    else if (a == "--scale") scale = std::strtod(v.c_str(), nullptr);
    else if (a == "--corrupt") corrupt = v;
    else usage(("unknown flag " + a).c_str());
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (workload == cand.name) w = &cand;
  }
  if (w == nullptr) usage("unknown --workload");
  if (seconds <= 0 || (trace != 0 && trace != 1) || server.empty() || work.empty() ||
      scale <= 0 || scale > 1 || (!corrupt.empty() && corrupt != "forest" && corrupt != "reply")) {
    usage("bad or missing arguments");
  }

  std::signal(SIGTERM, on_terminate);
  std::signal(SIGINT, on_terminate);
  prctl(PR_SET_PDEATHSIG, SIGTERM);

  try {
    // Host guard: threads and connections never exceed the CPUs the
    // affinity mask grants, so no solve is oversubscribed; a host whose mask
    // grants fewer CPUs than the hardware has, or only one, is marked.
    // Parallel solves and the server's solver team use half of those CPUs:
    // on a shared host the hypervisor steals time from one vCPU at a time,
    // and a team on every vCPU waits for the stolen one at each barrier
    // (msfbench/README.md, Threads), while a smaller team runs on the
    // others.
    const smp::MachineProfile& mp = smp::machine_profile();
    const int cpus = std::max(1, static_cast<int>(mp.available_threads));
    const int threads = std::max(1, cpus / 2);
    const int connections = std::min(4, cpus);

    const auto run_start = Clock::now();
    const double steal_start = steal_ticks();
    Tracer tracer(trace == 1);
    JsonObject values, detail;
    Tally tally;
    detail.add("workload", w->name)
        .add("seed", seed)
        .add("seconds", seconds)
        .add("scale", scale)
        .raw("machine", smp::machine_profile_json())
        .add("cpus", cpus)
        .add("threads", threads)
        .add("connections", connections)
        .add("single_thread_host", cpus == 1)
        .add("capped_below_hardware_threads", mp.available_threads < mp.hardware_threads);

    std::filesystem::create_directories(work);
    const std::string graph_path = work + "/graph.smpg";
    {
      Tracer::Scope span(tracer, "graph.generate");
      smp::graph::write_binary_file(graph_path, generate(*w, scale, seed));
    }
    // Set-up, static side: load the graph from disk five times.
    EdgeList g;
    std::vector<double> load_s;
    for (int k = 0; k < 5; ++k) {
      Tracer::Scope span(tracer, "graph.read_binary_file");
      const auto t0 = Clock::now();
      g = smp::graph::read_binary_file(graph_path);
      load_s.push_back(seconds_since(t0));
    }
    values.add("graph.load_s", median(load_s));
    detail.add("vertices", static_cast<std::uint64_t>(g.num_vertices))
        .add("edges", static_cast<std::uint64_t>(g.num_edges()));

    Reference ref;
    {
      Tracer::Scope span(tracer, "seq.reference_kruskal");
      ref = reference_forest(g);
    }
    detail.add("trees", static_cast<std::uint64_t>(ref.trees));

    StaticOptions so;
    so.threads = threads;
    so.traced = trace == 1;
    so.corrupt_forest = corrupt == "forest";
    StaticPhase static_phase(g, ref, so, tracer, tally);
    static_phase.run_window(seconds * kStaticShare / 2);

    // Every workload serves kServed; static-mesh's graph already is it.
    const bool own = w->mesh != kServed.mesh || w->n != kServed.n || w->m != kServed.m;
    std::string served_path = graph_path;
    EdgeList own_graph;
    Reference own_ref;
    if (own) {
      served_path = work + "/served.smpg";
      Tracer::Scope span(tracer, "graph.generate");
      smp::graph::write_binary_file(served_path, generate(kServed, scale, seed));
      own_graph = smp::graph::read_binary_file(served_path);
      own_ref = reference_forest(own_graph);
    }
    const EdgeList& served = own ? own_graph : g;
    const Reference& served_ref = own ? own_ref : ref;
    detail.add("served_vertices", static_cast<std::uint64_t>(served.num_vertices))
        .add("served_edges", static_cast<std::uint64_t>(served.num_edges()));

    ServeOptions sv;
    sv.server = server;
    sv.graph_path = served_path;
    sv.work_dir = work;
    sv.threads = threads;
    sv.connections = connections;
    sv.window_s = seconds * (1 - kStaticShare);
    sv.rate_rps = std::max(50.0, kServeRateRps * std::min(1.0, scale * 10));
    sv.seed = seed;
    sv.traced = trace == 1;
    sv.corrupt_reply = corrupt == "reply";
    run_serve(served, served_ref, sv, tracer, values, detail, tally);
    static_phase.run_window(seconds * kStaticShare / 2);
    static_phase.finish(values, detail);

    // Share of the host's CPU time stolen by other guests over the run: the
    // figures of a run with a high share are slower for reasons outside
    // the program.
    const double run_s = seconds_since(run_start);
    detail.add("host_steal_pct", 100.0 * (steal_ticks() - steal_start) /
                                     static_cast<double>(sysconf(_SC_CLK_TCK)) /
                                     (run_s * std::max<long>(1, sysconf(_SC_NPROCESSORS_ONLN))));
    if (trace == 1) {
      const std::string path = work + "/trace.json";
      tracer.write_chrome(path);
      detail.add("trace_file", path).add("trace_spans", static_cast<std::uint64_t>(tracer.size()));
    }
    std::string errors = "[";
    for (std::size_t i = 0; i < tally.errors.size(); ++i) {
      errors += (i == 0 ? "" : ", ") + JsonObject::quote(tally.errors[i]);
    }
    errors += "]";
    std::printf("%s\n", JsonObject()
                            .raw("values", values.str())
                            .raw("detail", detail.str())
                            .add("attempted", tally.attempted)
                            .add("failed", tally.failed)
                            .raw("errors", errors)
                            .str()
                            .c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "msfbench-runner: %s\n", e.what());
    return 1;
  }
}
