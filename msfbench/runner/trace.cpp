#include "trace.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace msfbench {

int Tracer::begin(const std::string& name) {
  if (!enabled_) return -1;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, us(Clock::now()), -1, current(), 0, {}});
  open_.push_back(id);
  return id;
}

void Tracer::end(int id, const std::string& args) {
  if (id < 0) return;
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.dur_us = us(Clock::now()) - s.start_us;
  s.args = args;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::record(const std::string& name, Clock::time_point start,
                    Clock::time_point stop, int parent, int lane) {
  if (!enabled_) return;
  spans_.push_back(Span{name, us(start), us(stop) - us(start), parent, lane, {}});
}

void Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, "
                  "\"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %d",
                  s.lane, s.start_us, s.dur_us < 0 ? 0.0 : s.dur_us, i,
                  s.parent);
    out << (i == 0 ? "\n" : ",\n") << "{\"name\": "
        << JsonObject::quote(s.name) << ", \"cat\": "
        << JsonObject::quote(s.name.substr(0, s.name.find('.'))) << ", "
        << buf;
    // args holds a JSON object; its members join the id/parent pair.
    if (s.args.size() > 2) out << ", " << s.args.substr(1, s.args.size() - 2);
    out << "}}";
  }
  out << "\n]}\n";
}

}  // namespace msfbench
