#include "planar/hammock.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace sepsp {

std::vector<Vertex> HammockGraph::attachment_vertices() const {
  std::vector<Vertex> out;
  out.reserve(4 * hammocks.size());
  for (const Hammock& h : hammocks) {
    out.insert(out.end(), h.attachments.begin(), h.attachments.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

HammockGraph make_hammock_ring(std::size_t num_hammocks, std::size_t rungs,
                               const WeightModel& weights, Rng& rng) {
  SEPSP_CHECK(num_hammocks >= 3);
  SEPSP_CHECK(rungs >= 2);
  const std::size_t n = 2 * rungs * num_hammocks;

  HammockGraph out;
  out.hammock_of.assign(n, 0);
  out.coords.resize(n);
  const std::vector<double> pot = make_potentials(weights, n, rng);
  GraphBuilder builder(n);

  auto add_bi = [&](Vertex u, Vertex v) {
    builder.add_edge(u, v, shift_weight(draw_weight(weights, rng), pot, u, v));
    builder.add_edge(v, u, shift_weight(draw_weight(weights, rng), pot, v, u));
  };

  // Hammock h occupies ids [h * 2 * rungs, (h+1) * 2 * rungs): rung r has
  // a "north" vertex (2r) and a "south" vertex (2r + 1). The ladder is
  // outerplanar (all vertices on its outer face).
  out.hammocks.resize(num_hammocks);
  for (std::size_t h = 0; h < num_hammocks; ++h) {
    const auto base = static_cast<Vertex>(h * 2 * rungs);
    Hammock& ham = out.hammocks[h];
    ham.vertices.resize(2 * rungs);
    for (std::size_t i = 0; i < 2 * rungs; ++i) {
      const auto v = static_cast<Vertex>(base + i);
      ham.vertices[i] = v;
      out.hammock_of[v] = static_cast<std::uint32_t>(h);
      // Lay the ring on a circle; rungs fan outward.
      const double angle =
          2.0 * 3.14159265358979323846 *
          (static_cast<double>(h) +
           static_cast<double>(i / 2) / static_cast<double>(rungs)) /
          static_cast<double>(num_hammocks);
      const double radius = 100.0 + (i % 2 == 0 ? 0.0 : 10.0);
      out.coords[v] = {radius * std::cos(angle), radius * std::sin(angle),
                       0.0};
    }
    for (std::size_t r = 0; r < rungs; ++r) {
      const auto north = static_cast<Vertex>(base + 2 * r);
      const auto south = static_cast<Vertex>(base + 2 * r + 1);
      add_bi(north, south);  // the rung
      if (r + 1 < rungs) {
        add_bi(north, static_cast<Vertex>(base + 2 * (r + 1)));      // rail
        add_bi(south, static_cast<Vertex>(base + 2 * (r + 1) + 1));  // rail
      }
    }
    // Attachments: the four corners (west pair, east pair).
    ham.attachments = {static_cast<Vertex>(base),                      // NW
                       static_cast<Vertex>(base + 1),                  // SW
                       static_cast<Vertex>(base + 2 * (rungs - 1)),    // NE
                       static_cast<Vertex>(base + 2 * rungs - 1)};     // SE
  }
  // Join consecutive hammocks east-corners -> next west-corners.
  for (std::size_t h = 0; h < num_hammocks; ++h) {
    const Hammock& cur = out.hammocks[h];
    const Hammock& next = out.hammocks[(h + 1) % num_hammocks];
    add_bi(cur.attachments[2], next.attachments[0]);
    add_bi(cur.attachments[3], next.attachments[1]);
  }

  out.graph = std::move(builder).build();
  return out;
}

}  // namespace sepsp
