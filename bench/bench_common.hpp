// Shared helpers for the table/figure reproduction binaries.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "separator/finders.hpp"
#include "util/env.hpp"
#include "util/random.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace sepsp::bench {

/// Scale factor for bench sizes: SEPSP_BENCH_SCALE=0 shrinks everything
/// (CI smoke), 1 is the default, 2 runs larger sweeps.
inline int scale() {
  return static_cast<int>(env_int("SEPSP_BENCH_SCALE", 1));
}

/// Point-in-time memory reading of this process, from
/// /proc/self/status: VmRSS (current resident set) and VmHWM (its
/// high-water mark), both in MiB. Zeroes on platforms without procfs —
/// callers treat 0 as "unavailable", never as "no memory".
struct MemorySample {
  double rss_mb = 0.0;
  double hwm_mb = 0.0;

  static MemorySample now() {
    MemorySample s;
#if defined(__linux__)
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
      // Lines look like "VmRSS:     123456 kB".
      const auto parse_kb = [&](const char* prefix) {
        const std::size_t len = std::string(prefix).size();
        if (line.rfind(prefix, 0) != 0) return -1.0;
        return std::strtod(line.c_str() + len, nullptr);
      };
      if (const double kb = parse_kb("VmRSS:"); kb >= 0) {
        s.rss_mb = kb / 1024.0;
      } else if (const double kb2 = parse_kb("VmHWM:"); kb2 >= 0) {
        s.hwm_mb = kb2 / 1024.0;
      }
    }
#endif
    return s;
  }
};

/// An engine's E+ in slot order as packed (tail, to, value) records:
/// the bytes the E+ digests hash and the per-thread-count E+ dumps hold.
inline std::string eplus_bytes(
    const SeparatorShortestPaths<TropicalD>& engine) {
  const EdgeBucket<TropicalD>& eplus = engine.shortcut_edges();
  std::string out;
  out.reserve(eplus.size() * (2 * sizeof(Vertex) + sizeof(double)));
  const auto put = [&out](const auto& x) {
    out.append(reinterpret_cast<const char*>(&x), sizeof x);
  };
  const std::uint32_t* start = eplus.start_data();
  for (std::size_t r = 0; r < eplus.num_runs(); ++r) {
    for (std::size_t s = start[r]; s < start[r + 1]; ++s) {
      put(eplus.tail_data()[r]);
      put(eplus.to_data()[s]);
      put(eplus.value(s));
    }
  }
  return out;
}

/// FNV-1a over `bytes`.
inline std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  return h;
}

/// Machine-readable bench output: a flat list of records written as a
/// JSON array, so a perf trajectory can be captured as BENCH_*.json and
/// diffed across commits. Disabled (all calls no-ops) unless the binary
/// was started with --json[=path]; the human-readable tables keep
/// printing either way.
///
///   json().row("per_source").field("family", f).field("n", n)
///         .field("sources_per_sec", rate);
///   ...
///   json().write();   // at the end of main()
class JsonReport {
 public:
  bool enabled() const { return enabled_; }
  void enable(std::string path) {
    enabled_ = true;
    path_ = std::move(path);
  }

  /// Starts a new record tagged with a `kind` discriminator; chain
  /// field() calls to fill it. Every record automatically carries
  /// rss_mb — the process RSS at row creation — so perf trajectories
  /// capture memory alongside latency.
  JsonReport& row(const std::string& kind) {
    if (!enabled_) return *this;
    rows_.emplace_back();
    return field("kind", kind).field("rss_mb", MemorySample::now().rss_mb);
  }
  JsonReport& field(const std::string& key, const std::string& v) {
    std::string quoted(1, '"');
    quoted += escaped(v);
    quoted += '"';
    return raw(key, std::move(quoted));
  }
  JsonReport& field(const std::string& key, const char* v) {
    return field(key, std::string(v));
  }
  JsonReport& field(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  JsonReport& field(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonReport& field(const std::string& key, std::int64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonReport& field(const std::string& key, int v) {
    return raw(key, std::to_string(v));
  }

  /// Writes the collected records to the --json path (or stdout when the
  /// path is "-"). No-op when --json was not given. The human-readable
  /// tables also go to stdout, so the "-" mode emits the whole array as
  /// one line — recover it with `... --json=- | tail -1`.
  void write() const {
    if (!enabled_) return;
    if (path_ == "-") {
      emit(std::cout, /*compact=*/true);
      return;
    }
    std::ofstream out(path_);
    if (!out) {
      std::cerr << "bench: cannot write " << path_ << "\n";
      return;
    }
    emit(out);
    std::cerr << "bench: wrote " << rows_.size() << " records to " << path_
              << "\n";
  }

 private:
  JsonReport& raw(const std::string& key, std::string value) {
    if (!enabled_ || rows_.empty()) return *this;
    rows_.back().emplace_back(key, std::move(value));
    return *this;
  }
  static std::string escaped(const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }
  void emit(std::ostream& os, bool compact = false) const {
    os << (compact ? "[" : "[\n");
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      os << (compact ? "{" : "  {");
      for (std::size_t k = 0; k < rows_[i].size(); ++k) {
        os << (k ? ", " : "") << "\"" << escaped(rows_[i][k].first)
           << "\": " << rows_[i][k].second;
      }
      os << "}" << (i + 1 < rows_.size() ? "," : "");
      if (!compact) os << "\n";
    }
    os << (compact ? "]\n" : "]\n");
  }

  bool enabled_ = false;
  std::string path_;
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

/// The process-wide report the bench binary fills in.
inline JsonReport& json() {
  static JsonReport report;
  return report;
}

/// Parses the common bench CLI: `--json` writes BENCH_<bench>.json next
/// to the working directory, `--json=path` picks the file (use "-" for
/// stdout). Unknown flags are ignored so binaries stay forgiving.
inline void parse_args(int argc, char** argv, const std::string& bench_name) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json().enable("BENCH_" + bench_name + ".json");
    } else if (arg.rfind("--json=", 0) == 0) {
      json().enable(arg.substr(7));
    }
  }
}

/// One decomposable workload instance.
struct Instance {
  std::string family;
  double mu = 0.5;  ///< the separator exponent of the family
  GeneratedGraph gg;
  SeparatorTree tree;

  std::size_t n() const { return gg.graph.num_vertices(); }
  std::size_t m() const { return gg.graph.num_edges(); }
};

inline Instance grid2d(std::size_t side, const WeightModel& wm, Rng& rng) {
  Instance inst{"grid2d", 0.5, make_grid({side, side}, wm, rng), {}};
  inst.tree = build_separator_tree(Skeleton(inst.gg.graph),
                                   make_grid_finder({side, side}));
  return inst;
}

inline Instance grid3d(std::size_t side, const WeightModel& wm, Rng& rng) {
  Instance inst{"grid3d", 2.0 / 3.0, make_grid({side, side, side}, wm, rng),
                {}};
  inst.tree = build_separator_tree(Skeleton(inst.gg.graph),
                                   make_grid_finder({side, side, side}));
  return inst;
}

inline Instance tree_family(std::size_t n, const WeightModel& wm, Rng& rng) {
  Instance inst{"tree", 0.0, make_random_tree(n, wm, rng), {}};
  inst.tree =
      build_separator_tree(Skeleton(inst.gg.graph), make_tree_finder());
  return inst;
}

inline Instance mesh_family(std::size_t side, const WeightModel& wm,
                            Rng& rng) {
  Instance inst{"planar-mesh", 0.5,
                make_triangulated_grid(side, side, wm, rng), {}};
  inst.tree = build_separator_tree(Skeleton(inst.gg.graph),
                                   make_geometric_finder(inst.gg.coords));
  return inst;
}

}  // namespace sepsp::bench
