// The three workloads; each runs set-up, timed rounds and its oracle
// checks, and fills a Result (see README.md for what each measures).
#pragma once

#include "common.hpp"

namespace perfbench {

Result run_update_neg3d(const RunConfig& cfg);
Result run_serve_mixed(const RunConfig& cfg);
Result run_prep_mesh(const RunConfig& cfg);

}  // namespace perfbench
