#include "pram/cost_model.hpp"

#include "util/table.hpp"

namespace sepsp::pram {

StripedCounter CostMeter::work_;
StripedCounter CostMeter::depth_;

std::string to_string(const Cost& c) {
  return "work=" + with_commas(c.work) + " depth=" + with_commas(c.depth);
}

}  // namespace sepsp::pram
