#pragma once
// Span recorder for the traced run.  Spans are recorded by the benchmark's
// own code around its calls into each smpmsf module (name, start, end,
// parent), kept in memory, and written once at the end as Chrome
// trace-event JSON (load it in chrome://tracing or Perfetto).  A disabled
// recorder costs one branch per span.  Single-threaded: only the runner's
// main thread records.

#include <string>
#include <vector>

#include "util.hpp"

namespace msfbench {

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span nested in the innermost open one; returns its id (-1
  /// when disabled).
  int begin(const std::string& name);
  /// Closes span `id`; the members of `args` (a JSON object, or empty) are
  /// attached to the trace event.
  void end(int id, const std::string& args = {});

  /// Records an already-finished span with an explicit parent and lane —
  /// used for requests that overlap on the wire.
  void record(const std::string& name, Clock::time_point start,
              Clock::time_point stop, int parent, int lane);

  /// Innermost open span (-1 when none).
  [[nodiscard]] int current() const {
    return open_.empty() ? -1 : open_.back();
  }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Writes every recorded span as {"traceEvents": [...]}.
  void write_chrome(const std::string& path) const;

  /// RAII span around one call.
  class Scope {
   public:
    Scope(Tracer& t, const std::string& name) : t_(t), id_(t.begin(name)) {}
    ~Scope() { t_.end(id_, args_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void set_args(std::string args) { args_ = std::move(args); }

   private:
    Tracer& t_;
    int id_;
    std::string args_;
  };

 private:
  struct Span {
    std::string name;
    double start_us = 0;
    double dur_us = -1;  // -1 while open
    int parent = -1;
    int lane = 0;
    std::string args;
  };
  [[nodiscard]] double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - t0_).count();
  }

  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace msfbench
