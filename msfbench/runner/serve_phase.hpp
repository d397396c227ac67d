#pragma once
// Serve phase: the shipped smpmsf-server on loopback TCP (binary protocol),
// one session preloaded with the served graph, driven by a
// single-threaded open-loop load generator; afterwards the served forest
// and a sample of query replies are checked against the generator's own
// mirror of the live edge set.

#include <csignal>
#include <cstdint>
#include <string>

#include "graph/edge_list.hpp"
#include "static_phase.hpp"
#include "trace.hpp"
#include "util.hpp"

namespace msfbench {

struct ServeOptions {
  std::string server;      ///< path of the smpmsf-server binary
  std::string graph_path;  ///< the served graph as .smpg (preloaded)
  std::string work_dir;    ///< data dirs and logs go here
  int threads = 1;         ///< solver team size (--threads)
  int connections = 1;     ///< client connections (<= affinity CPUs)
  double window_s = 1;     ///< open-loop window
  double rate_rps = 100;   ///< offered rate over all connections
  std::uint64_t seed = 1;
  bool traced = false;
  bool corrupt_reply = false;  ///< test hook: the reply gate must trip
};

/// Latency limits per op class for goodput: an OK reply slower than its
/// class limit counts as a miss, like a failed one.
inline constexpr double kReadLimitMs = 500;
inline constexpr double kQueryLimitMs = 500;
inline constexpr double kWriteLimitMs = 2000;

/// Pid of the running server (0 when none), for the runner's termination
/// handler: a runner stopped by a signal kills the server before exiting.
extern volatile sig_atomic_t g_server_pid;

/// Runs the phase.  `values` receives the serve end-to-end metrics, the
/// server set-up median (`serve.setup_s`), the server peak RSS
/// (`serve.peak_rss_mb`) and, when traced, the in-process per-layer probes;
/// `detail` receives sample counts, the offered load and the raw `stats`
/// documents from before and after the window.
void run_serve(const smp::graph::EdgeList& g, const Reference& ref,
               const ServeOptions& opts, Tracer& tracer, JsonObject& values,
               JsonObject& detail, Tally& tally);

}  // namespace msfbench
