#include "common.hpp"

#include <fstream>
#include <sstream>

namespace perfbench {

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::uint64_t l2_bytes_per_core() {
  std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index2/size");
  std::string text;
  if (!(in >> text) || text.empty()) return 0;
  std::uint64_t value = std::strtoull(text.c_str(), nullptr, 10);
  switch (text.back()) {
    case 'K':
      value <<= 10;
      break;
    case 'M':
      value <<= 20;
      break;
    default:
      break;
  }
  return value;
}

namespace {

std::vector<double> column(const std::vector<RoundFigures>& rounds,
                           double RoundFigures::*field) {
  std::vector<double> out;
  out.reserve(rounds.size());
  for (const RoundFigures& r : rounds) out.push_back(r.*field);
  return out;
}

}  // namespace

void report_rounds(Result& result, const RoundLog& log, double setup_s) {
  const auto med = [](const std::vector<RoundFigures>& rounds,
                      double RoundFigures::*field) {
    return median(column(rounds, field));
  };
  const double thr = med(log.plain, &RoundFigures::throughput_per_s);
  const double p50 = med(log.plain, &RoundFigures::latency_ms_p50);
  const double tail = med(log.plain, &RoundFigures::latency_ms_tail);
  result.end_to_end = {
      {"setup_s", setup_s, "s"},
      {"throughput_per_s", thr, "1/s"},
      {"latency_ms_p50", p50, "ms"},
      {"latency_ms_tail", tail, "ms"},
      {"rss_peak_mb", peak_rss_mb(), "MiB"},
  };
  result.env_int("rounds_untraced", log.plain.size());
  result.env_int("rounds_traced", log.traced.size());
  if (!log.traced.empty()) {
    // Tracing overhead: traced rounds against the untraced rounds of the
    // same run (ratio 1 = free; throughput below 1 and latency above 1
    // are the cost of recording spans).
    const auto ratio = [](double traced, double plain) {
      return plain > 0.0 ? traced / plain : 0.0;
    };
    result.layer("trace.throughput_ratio",
                 ratio(med(log.traced, &RoundFigures::throughput_per_s), thr));
    result.layer("trace.latency_p50_ratio",
                 ratio(med(log.traced, &RoundFigures::latency_ms_p50), p50));
  }
}

}  // namespace perfbench
