// Structural and cumulative runtime statistics of one
// SeparatorShortestPaths engine — the payload of engine.stats().
//
// Structural fields (graph/E+/schedule shape, build metadata) and
// the engine's own dynamic fields (query counters, batch lane
// occupancy, per-level scans) are populated in every build mode; this
// ledger is their only record. Only the four process-wide reads
// (kernel tiles/cells, pool steals, SIMD cells) come from the obs
// registry and stay zero when the library is built with SEPSP_OBS=OFF.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "util/table.hpp"

namespace sepsp {

/// Bucket sizes and cumulative scans for one separator-tree level of
/// the leveled query schedule.
struct EngineLevelStats {
  std::uint32_t level = 0;
  std::size_t same_edges = 0;  ///< level-l same-level bucket size
  std::size_t down_edges = 0;  ///< level-l descending bucket size
  std::size_t up_edges = 0;    ///< level-l ascending bucket size
  std::uint64_t edges_scanned = 0;  ///< cumulative scans
};

struct EngineStats {
  // --- structural (always populated) ---------------------------------
  std::size_t num_vertices = 0;
  std::size_t num_edges = 0;
  std::size_t eplus_edges = 0;   ///< |E+|: every plan slot, in the engine
  std::size_t bucket_edges = 0;  ///< leveled-bucket entries: every E+ slot
                                 ///< (the buckets are ranges of E+)
  std::uint32_t height = 0;      ///< separator-tree height d_G
  std::size_t ell = 1;           ///< leaf min-weight-diameter bound
  std::size_t diameter_bound = 0;  ///< Theorem 3.1: 4 height + 2 ell + 1
  std::uint64_t build_work = 0;    ///< PRAM work charged building E+
  std::uint64_t build_depth = 0;   ///< summed kernel phases of the build
  std::uint64_t critical_depth = 0;  ///< critical-path depth of the build
  /// The build certified no negative cycle, so queries skip the
  /// verification pass (the engine's cycle_certified(): the build's
  /// certificate, or the image's flag; false for Algorithm 4.3 and
  /// Remark 4.4).
  bool cycle_certified = false;
  std::string simd_tier;  ///< active SIMD dispatch tier (scalar/sse/avx2/avx512)
  std::vector<EngineLevelStats> levels;

  // --- approximate mode (populated by ApproxEngine::stats(); all zero
  // --- on an exact engine) --------------------------------------------
  double approx_eps = 0.0;   ///< end-to-end relative-error budget
  double approx_unit = 0.0;  ///< rounding unit u the weights were scaled by
  /// Relative-error bound the build certifies (equal to approx_eps).
  double certified_error = 0.0;
  /// Largest relative error actually measured against an exact oracle
  /// and fed back via ApproxEngine::note_observed_error (0 until then).
  double max_observed_error = 0.0;

  // --- dynamic (per engine, every build mode) ------------------------
  std::uint64_t queries = 0;        ///< engine-initiated query runs
  std::uint64_t edges_scanned = 0;  ///< summed over those runs
  std::uint64_t phases = 0;         ///< summed over those runs
  /// Climb slots the walks skipped, once per walk (a batched walk skips
  /// a run only when its tail is unreached in every lane). Not
  /// subtracted from edges_scanned, which counts the schedule's buckets.
  std::uint64_t climb_slots_skipped = 0;
  std::uint64_t batch_blocks = 0;      ///< batched kernel blocks executed
  std::uint64_t batch_lanes_used = 0;  ///< seeded lanes over those blocks
  std::uint64_t batch_lane_capacity = 0;  ///< blocks * lane width
  // Unlike the query counters above, the four below are process-wide
  // (the dense kernels and the thread pool are shared by all engines)
  // and stay zero when SEPSP_OBS=OFF:
  std::uint64_t kernel_tiles = 0;  ///< blocked-kernel tile tasks executed
  std::uint64_t kernel_cells = 0;  ///< min-plus cell updates issued
  std::uint64_t pool_steals = 0;   ///< work-stealing pool steals
  std::uint64_t simd_cells = 0;    ///< cells routed through vector kernels

  /// Mean fraction of batched-kernel lanes that carried a source
  /// (1.0 = every block full; ragged last blocks lower it).
  double lane_occupancy() const {
    return batch_lane_capacity == 0
               ? 0.0
               : static_cast<double>(batch_lanes_used) /
                     static_cast<double>(batch_lane_capacity);
  }

  /// Human-readable rendering (summary table + per-level table).
  void print(std::ostream& os) const {
    Table summary("engine stats");
    summary.set_header({"stat", "value"});
    summary.add_row().cell("n").cell(with_commas(num_vertices));
    summary.add_row().cell("m").cell(with_commas(num_edges));
    summary.add_row().cell("|E+|").cell(with_commas(eplus_edges));
    summary.add_row().cell("bucket edges").cell(with_commas(bucket_edges));
    summary.add_row().cell("height").cell(std::uint64_t{height});
    summary.add_row().cell("ell").cell(static_cast<std::uint64_t>(ell));
    summary.add_row().cell("diameter bound").cell(
        static_cast<std::uint64_t>(diameter_bound));
    summary.add_row().cell("build work").cell(with_commas(build_work));
    summary.add_row().cell("build depth").cell(with_commas(build_depth));
    summary.add_row().cell("critical depth").cell(with_commas(critical_depth));
    summary.add_row().cell("cycle certified").cell(
        cycle_certified ? "yes" : "no");
    summary.add_row().cell("queries").cell(with_commas(queries));
    summary.add_row().cell("edges scanned").cell(with_commas(edges_scanned));
    summary.add_row().cell("phases").cell(with_commas(phases));
    summary.add_row().cell("climb slots skipped").cell(
        with_commas(climb_slots_skipped));
    summary.add_row().cell("lane occupancy").cell(lane_occupancy(), 3);
    summary.add_row().cell("kernel tiles").cell(with_commas(kernel_tiles));
    summary.add_row().cell("kernel cells").cell(with_commas(kernel_cells));
    summary.add_row().cell("pool steals").cell(with_commas(pool_steals));
    summary.add_row().cell("simd tier").cell(simd_tier);
    summary.add_row().cell("simd cells").cell(with_commas(simd_cells));
    if (approx_eps > 0.0) {
      summary.add_row().cell("approx eps").cell(approx_eps, 4);
      summary.add_row().cell("approx unit").cell(approx_unit, 6);
      summary.add_row().cell("certified error").cell(certified_error, 4);
      summary.add_row().cell("max observed error").cell(max_observed_error, 4);
    }
    summary.print(os);
    if (!levels.empty()) {
      Table per_level("engine stats — per bucket level");
      per_level.set_header({"level", "same", "down", "up", "edges scanned"});
      for (const EngineLevelStats& l : levels) {
        per_level.add_row()
            .cell(std::uint64_t{l.level})
            .cell(static_cast<std::uint64_t>(l.same_edges))
            .cell(static_cast<std::uint64_t>(l.down_edges))
            .cell(static_cast<std::uint64_t>(l.up_edges))
            .cell(with_commas(l.edges_scanned));
      }
      per_level.print(os);
    }
  }
};

}  // namespace sepsp
