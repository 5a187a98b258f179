#include "service/stats.hpp"

#include "util/table.hpp"

namespace sepsp::service {

void ServiceStats::print(std::ostream& os) const {
  Table t("service stats");
  t.set_header({"stat", "value"});
  t.add_row().cell("submitted").cell(with_commas(submitted));
  t.add_row().cell("completed").cell(with_commas(completed));
  t.add_row().cell("shed").cell(with_commas(shed));
  t.add_row().cell("stopped").cell(with_commas(stopped));
  t.add_row().cell("invalid").cell(with_commas(invalid));
  t.add_row().cell("failed").cell(with_commas(failed));
  t.add_row().cell("cache hits").cell(with_commas(cache_hits));
  t.add_row().cell("cache misses").cell(with_commas(cache_misses));
  t.add_row().cell("cache hit rate").cell(hit_rate(), 3);
  t.add_row().cell("cache entries").cell(
      with_commas(static_cast<std::uint64_t>(cache_entries)));
  t.add_row().cell("cache bytes").cell(
      with_commas(static_cast<std::uint64_t>(cache_bytes)));
  t.add_row().cell("cache capacity").cell(
      with_commas(static_cast<std::uint64_t>(cache_capacity_bytes)));
  t.add_row().cell("cache evictions").cell(with_commas(cache_evictions));
  t.add_row().cell("cache invalidations").cell(
      with_commas(cache_invalidations));
  t.add_row().cell("single-source requests").cell(with_commas(single_source));
  t.add_row().cell("st-distance requests").cell(with_commas(st_distance));
  t.add_row().cell("st-path requests").cell(with_commas(st_path));
  t.add_row().cell("st cache hits").cell(with_commas(st_cache_hits));
  t.add_row().cell("st cache misses").cell(with_commas(st_cache_misses));
  t.add_row().cell("st cache hit rate").cell(st_hit_rate(), 3);
  t.add_row().cell("st cache entries").cell(
      with_commas(static_cast<std::uint64_t>(st_cache_entries)));
  t.add_row().cell("st cache bytes").cell(
      with_commas(static_cast<std::uint64_t>(st_cache_bytes)));
  t.add_row().cell("mean st merge ns").cell(mean_st_merge_ns(), 1);
  t.add_row().cell("max st merge ns").cell(
      static_cast<double>(st_merge_ns_max), 1);
  t.add_row().cell("label builds").cell(with_commas(label_builds));
  t.add_row().cell("mean label build ms").cell(mean_label_build_ms(), 2);
  if (approx_requests > 0 || approx_builds > 0) {
    t.add_row().cell("approx requests").cell(with_commas(approx_requests));
    t.add_row().cell("approx cache hits").cell(with_commas(approx_cache_hits));
    t.add_row().cell("approx cache misses").cell(
        with_commas(approx_cache_misses));
    t.add_row().cell("approx st hits").cell(with_commas(approx_st_hits));
    t.add_row().cell("approx st misses").cell(with_commas(approx_st_misses));
    t.add_row().cell("approx hit rate").cell(approx_hit_rate(), 3);
    t.add_row().cell("approx cache entries").cell(
        with_commas(static_cast<std::uint64_t>(approx_cache_entries)));
    t.add_row().cell("approx cache bytes").cell(
        with_commas(static_cast<std::uint64_t>(approx_cache_bytes)));
    t.add_row().cell("approx builds").cell(with_commas(approx_builds));
    t.add_row().cell("mean approx build ms").cell(mean_approx_build_ms(), 2);
  }
  t.add_row().cell("dispatches").cell(with_commas(dispatches));
  t.add_row().cell("batches").cell(with_commas(batches));
  t.add_row().cell("batch occupancy").cell(batch_occupancy(), 3);
  t.add_row().cell("mean coalesce us").cell(mean_coalesce_us(), 1);
  t.add_row().cell("max coalesce us").cell(
      static_cast<double>(coalesce_ns_max) / 1e3, 1);
  t.add_row().cell("queue depth").cell(
      static_cast<std::uint64_t>(queue_depth));
  t.add_row().cell("queue peak").cell(static_cast<std::uint64_t>(queue_peak));
  t.add_row().cell("epoch").cell(epoch);
  t.add_row().cell("epoch swaps").cell(with_commas(epoch_swaps));
  t.add_row().cell("epoch lag").cell(epoch_lag);
  t.add_row().cell("mean swap us").cell(mean_swap_us(), 1);
  t.add_row().cell("max swap us").cell(static_cast<double>(swap_ns_max) / 1e3,
                                       1);
  t.print(os);
}

}  // namespace sepsp::service
