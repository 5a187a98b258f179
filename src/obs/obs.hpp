// sepsp::obs — process-wide observability: named counters / gauges /
// histograms (stats.hpp), RAII timing spans assembling a nested trace
// tree (trace.hpp), and sinks rendering both as human tables or JSON
// (sink.hpp).
//
// Compile-time gating: the CMake option SEPSP_OBS (default ON) defines
// SEPSP_OBS_ENABLED for every target linking sepsp_obs. When OFF, every
// recording class in this subsystem collapses to an empty inline no-op —
// zero instructions, zero data — so hot relaxation loops stay exactly as
// they were. Instrumentation is only ever placed at phase granularity
// (never per edge), so the ON cost is one clock read + one mutex hop per
// phase.
//
// The registry holds only process-wide instruments (pool.*, kernel.*,
// simd.*): state shared by every engine. A metric of one instance (an
// engine, a service, a buffer pool, an incremental apply) lives in its
// owner's ledger — EngineStats, ServiceStats, BufferPool::Stats,
// IncrementalEngine::ApplyStats — and nowhere else.
//
// Usage:
//   obs::counter("kernel.cells").add(cells);
//   obs::gauge("pool.threads").set(n);
//   obs::histogram("pool.region_items").record(range);
//   { SEPSP_TRACE_SPAN("build.nodes"); ... }     // timed scope
//   obs::StatsRegistry::instance().snapshot();   // all counters
//   obs::trace_snapshot();                       // merged timing tree
#pragma once

// All in-tree targets receive SEPSP_OBS_ENABLED (0 or 1) from the
// sepsp_obs CMake target; standalone inclusion defaults to ON.
#ifndef SEPSP_OBS_ENABLED
#define SEPSP_OBS_ENABLED 1
#endif

#include "obs/stats.hpp"   // IWYU pragma: export
#include "obs/trace.hpp"   // IWYU pragma: export

// Splices statements in only when observability is compiled in. The
// variadic form tolerates commas in the argument.
#if SEPSP_OBS_ENABLED
#define SEPSP_OBS_ONLY(...) __VA_ARGS__
#else
#define SEPSP_OBS_ONLY(...)
#endif
