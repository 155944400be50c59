// flopbench — the flopsim benchmark program.
//
//   flopbench --workload unit_sweep|matmul_campaign|serve_mix --seed N
//             --seconds S --trace 0|1 --workdir DIR
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that reports the per-layer metrics and the
// tracing overhead. Both check the workload's outputs outside the timed
// region and exit 1 when a check fails. Scratch files (checkpoints, cache
// shards, the socket, the access log) live under DIR.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.hpp"

namespace {

/// Confine the process (and every thread it starts later) to the first
/// two CPUs it may use; returns them as "a,b", or "unpinned". Every
/// workload runs two worker threads. Left four CPUs on a shared VM, the
/// scheduler spreads client, reader and worker threads over them, and each
/// cross-thread hand-off becomes an inter-processor wake-up whose cost
/// shifts from run to run: the serve_mix median moved by a quarter
/// between identical runs unpinned, by 2% pinned.
std::string pin_two_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return "unpinned";
  cpu_set_t pin;
  CPU_ZERO(&pin);
  std::string list;
  int pinned = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && pinned < 2; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    CPU_SET(cpu, &pin);
    list += (pinned++ > 0 ? "," : "") + std::to_string(cpu);
  }
  if (sched_setaffinity(0, sizeof pin, &pin) != 0) return "unpinned";
  return list;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload unit_sweep|matmul_campaign|serve_mix "
               "--seed N --seconds S --trace 0|1 --workdir DIR\n",
               argv0);
  return 2;
}

bool parse_u64(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos ||
      s.size() > 19) {
    return false;
  }
  *out = std::stoull(s);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string workdir;
  std::string trace = "0";
  std::uint64_t seconds = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      if (!parse_u64(value, &opt.seed)) return usage(argv[0]);
    } else if (key == "--seconds") {
      if (!parse_u64(value, &seconds) || seconds < 1 || seconds > 60) {
        return usage(argv[0]);
      }
    } else if (key == "--trace") {
      trace = value;
    } else if (key == "--workdir") {
      workdir = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || seconds == 0 || workdir.empty() ||
      (trace != "0" && trace != "1")) {
    return usage(argv[0]);
  }
  opt.seconds = static_cast<double>(seconds);
  opt.trace = trace == "1";

  // Nothing about a workload may come from the environment.
  unsetenv("FLOPSIM_BACKEND");
  unsetenv("FLOPSIM_THREADS");
  setenv("FLOPSIM_PROGRESS", "0", 1);

  perfbench::Report report;
  report.setting("workload", opt.workload);
  report.setting("seed", std::to_string(opt.seed));
  report.setting("seconds", static_cast<long>(seconds));
  report.setting("trace", trace);
  report.setting("cpus", pin_two_cpus());
  try {
    std::filesystem::create_directories(workdir);
    std::filesystem::current_path(workdir);
    if (opt.workload == "unit_sweep") {
      perfbench::run_unit_sweep(opt, report);
    } else if (opt.workload == "matmul_campaign") {
      perfbench::run_matmul_campaign(opt, report);
    } else if (opt.workload == "serve_mix") {
      perfbench::run_serve_mix(opt, report);
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flopbench: %s\n", e.what());
    return 1;
  }
  const perfbench::FailTally& f = report.fails();
  report.metric("fail_frac", f.frac(), "ratio", f.attempted,
                "failed / attempted operations");
  report.metric("peak_rss_mb", perfbench::peak_rss_mb(), "MiB", 1,
                "peak resident set of this process");
  report.print(stdout);
  return report.correct() ? 0 : 1;
}
