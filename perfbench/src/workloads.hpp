// The three workloads. Each pins every backend/thread/cache/queue setting
// itself (nothing resolves from FLOPSIM_* variables), prints them as
// settings, reports its end-to-end metrics (untraced run) or its layer
// metrics (traced run), and checks its outputs outside the timed region.
#pragma once

#include "bench.hpp"

namespace perfbench {

/// Seeded unit SEU campaigns (add/mul/div/sqrt/mac x binary32/64 at their
/// min/opt/max depths x five schemes) on the bitsliced backend; the traced
/// run adds one pass with checkpointing on.
void run_unit_sweep(const Options& opt, Report& r);

/// Seeded n=16 linear-array matmul SEU campaigns (binary32, 5 adder + 4
/// multiplier stages): scheme none, scheme ecc, and a configuration-upset
/// leg. The bitsliced request falls back to the interpreted kernel loop.
void run_matmul_campaign(const Options& opt, Report& r);

/// An in-process server on a Unix socket under a closed loop of two
/// clients sending a Zipf-skewed plan/campaign mix.
void run_serve_mix(const Options& opt, Report& r);

}  // namespace perfbench
