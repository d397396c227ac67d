#pragma once
// Small helpers shared by the benchmark runner: wall clock, order
// statistics, peak-RSS probes and a flat JSON object writer.

#include <sys/types.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace msfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

inline double mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

/// Nearest-rank percentile q in (0, 1] of `v` (sorted in place).
inline double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// Quantile q in [0, 1] of `v` with linear interpolation between the
/// closest ranks (numpy's default); 0 when empty.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Samples strictly beyond the nearest-rank percentile q: the percentile is
/// only reported when at least ten samples lie past it.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

/// Peak resident set (VmHWM) of `pid`, in MiB; 0 when unreadable.
inline double peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// Resets the peak-RSS high-water mark of `pid` to its current RSS, so a
/// later peak_rss_mb() covers only what happens after this call.  Returns
/// false where the kernel refuses (then the peak also covers set-up).
inline bool reset_peak_rss(pid_t pid) {
  std::ofstream out("/proc/" + std::to_string(pid) + "/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

/// CPU time the hypervisor gave to other guests (the `steal` column of
/// /proc/stat, summed over CPUs), in clock ticks; 0 when unreadable.
inline double steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {};
  in >> cpu;
  for (double& x : v) in >> x;
  return cpu == "cpu" && in ? v[7] : 0;
}

/// Flat JSON object writer: add() appends `"key": value` pairs in order.
class JsonObject {
 public:
  JsonObject& add(const std::string& key, double v) {
    char buf[64];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof buf, "%.9g", v);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    return raw(key, buf);
  }
  JsonObject& add(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& add(const std::string& key, int v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& add(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& add(const std::string& key, const std::string& v) {
    return raw(key, quote(v));
  }
  JsonObject& add(const std::string& key, const char* v) {
    return add(key, std::string(v));
  }
  /// `json` must already be a valid JSON value.
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += body_.empty() ? "" : ", ";
    body_ += quote(key) + ": " + json;
    return *this;
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

}  // namespace msfbench
