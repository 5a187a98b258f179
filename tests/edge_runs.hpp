// Per-slot tails of a run-form edge array (PairBlock, EdgeBucket), for
// the tests that check an array pair by pair: slot i's tail is its
// run's.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/query.hpp"
#include "separator/eplus_plan.hpp"

namespace sepsp {

inline std::vector<Vertex> slot_tails(const Vertex* tail,
                                      const std::uint32_t* start,
                                      std::size_t runs) {
  std::vector<Vertex> out;
  for (std::size_t r = 0; r < runs; ++r) {
    out.insert(out.end(), start[r + 1] - start[r], tail[r]);
  }
  return out;
}

inline std::vector<Vertex> slot_tails(const PairBlock& pairs) {
  return slot_tails(pairs.tail.data(), pairs.start.data(), pairs.num_runs());
}

template <Semiring S>
std::vector<Vertex> slot_tails(const EdgeBucket<S>& edges) {
  return slot_tails(edges.tail_data(), edges.start_data(), edges.num_runs());
}

}  // namespace sepsp
