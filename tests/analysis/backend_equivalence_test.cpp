// The backend contract end to end: every campaign tally is bit-identical
// across the interpreted / compiled / bitsliced evaluators at any thread
// count, the backend never enters the checkpoint spec hash (a run
// interrupted under one backend resumes under another), and kAuto
// resolves through FLOPSIM_BACKEND. For matmul campaigns the fast
// backends walk only the struck PE's accumulates an upset reaches, and
// every result field and sidecar byte must equal the interpreted
// reference, which steps the struck PE clock by clock.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/seu.hpp"
#include "fault/checkpoint.hpp"
#include "rtl/evaluator.hpp"

namespace flopsim::analysis {
namespace {

const rtl::EvalBackend kAllBackends[] = {rtl::EvalBackend::kInterpreted,
                                         rtl::EvalBackend::kCompiled,
                                         rtl::EvalBackend::kBitsliced};

std::string fresh_dir(const std::string& stem) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / stem).string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void expect_same_unit(const UnitSeuResult& a, const UnitSeuResult& b) {
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.masked, b.masked);
  EXPECT_EQ(a.detected, b.detected);
  EXPECT_EQ(a.corrected, b.corrected);
  EXPECT_EQ(a.silent, b.silent);
  EXPECT_EQ(a.corrupted, b.corrupted);
  EXPECT_EQ(a.occupied_bits, b.occupied_bits);
  EXPECT_EQ(a.pipeline_ffs, b.pipeline_ffs);
}

// Every hardening scheme classifies every fault identically on all three
// backends, and the fast paths keep the engine's thread-count invariance.
TEST(BackendEquivalence, UnitTalliesMatchAcrossBackendsAndThreads) {
  const struct {
    units::UnitKind kind;
    fp::FpFormat fmt;
    int stages;
  } units_under_test[] = {
      {units::UnitKind::kAdder, fp::FpFormat::binary32(), 5},
      {units::UnitKind::kMultiplier, fp::FpFormat::binary64(), 6},
  };
  const fault::Scheme schemes[] = {fault::Scheme::kNone, fault::Scheme::kParity,
                                   fault::Scheme::kResidue,
                                   fault::Scheme::kDuplicate,
                                   fault::Scheme::kTmr};

  for (const auto& uut : units_under_test) {
    units::UnitConfig cfg;
    cfg.stages = uut.stages;
    for (const fault::Scheme scheme : schemes) {
      SeuCampaignConfig camp;
      camp.faults = 40;
      camp.scheme = scheme;
      camp.threads = 1;
      camp.backend = rtl::EvalBackend::kInterpreted;
      const UnitSeuResult baseline =
          run_unit_campaign(uut.kind, uut.fmt, cfg, camp);
      EXPECT_EQ(baseline.injected, 40);

      for (const rtl::EvalBackend backend : kAllBackends) {
        for (const int threads : {1, 2, 8}) {
          SCOPED_TRACE(std::string(to_string(uut.kind)) + " scheme=" +
                       std::to_string(static_cast<int>(scheme)) +
                       " backend=" + rtl::to_string(backend) +
                       " threads=" + std::to_string(threads));
          SeuCampaignConfig run = camp;
          run.backend = backend;
          run.threads = threads;
          expect_same_unit(run_unit_campaign(uut.kind, uut.fmt, cfg, run),
                           baseline);
        }
      }
    }
  }
}

// kAuto resolves through FLOPSIM_BACKEND exactly like an explicit request.
TEST(BackendEquivalence, AutoResolvesThroughTheEnvironment) {
  ASSERT_EQ(::setenv("FLOPSIM_BACKEND", "bitsliced", /*overwrite=*/1), 0);
  EXPECT_EQ(rtl::resolve_backend(rtl::EvalBackend::kAuto),
            rtl::EvalBackend::kBitsliced);
  // Explicit requests ignore the environment.
  EXPECT_EQ(rtl::resolve_backend(rtl::EvalBackend::kCompiled),
            rtl::EvalBackend::kCompiled);

  units::UnitConfig cfg;
  cfg.stages = 5;
  SeuCampaignConfig camp;
  camp.faults = 24;
  camp.scheme = fault::Scheme::kResidue;
  camp.threads = 1;
  camp.backend = rtl::EvalBackend::kAuto;
  const UnitSeuResult via_env =
      run_unit_campaign(units::UnitKind::kAdder, fp::FpFormat::binary32(), cfg,
                        camp);
  ASSERT_EQ(::unsetenv("FLOPSIM_BACKEND"), 0);
  EXPECT_EQ(rtl::resolve_backend(rtl::EvalBackend::kAuto),
            rtl::EvalBackend::kInterpreted);

  camp.backend = rtl::EvalBackend::kInterpreted;
  const UnitSeuResult reference =
      run_unit_campaign(units::UnitKind::kAdder, fp::FpFormat::binary32(), cfg,
                        camp);
  expect_same_unit(via_env, reference);

  // A garbage value falls back to the interpreted default, not an error —
  // environment resolution mirrors FLOPSIM_THREADS's forgiving parse.
  ASSERT_EQ(::setenv("FLOPSIM_BACKEND", "warp-drive", 1), 0);
  EXPECT_EQ(rtl::resolve_backend(rtl::EvalBackend::kAuto),
            rtl::EvalBackend::kInterpreted);
  ASSERT_EQ(::unsetenv("FLOPSIM_BACKEND"), 0);
}

// The backend is an execution detail, not part of the campaign identity:
// a run interrupted under one backend must resume under another, land on
// the same sidecar, and finish bit-identical to an uninterrupted run.
TEST(BackendEquivalence, ResumeCrossesBackendsBitIdentically) {
  const auto kind = units::UnitKind::kMultiplier;
  const fp::FpFormat fmt = fp::FpFormat::binary64();
  units::UnitConfig cfg;
  cfg.stages = 6;
  SeuCampaignConfig camp;
  camp.faults = 40;
  camp.scheme = fault::Scheme::kResidue;
  camp.threads = 1;
  camp.backend = rtl::EvalBackend::kInterpreted;
  const UnitSeuResult baseline = run_unit_campaign(kind, fmt, cfg, camp);

  const rtl::EvalBackend pairs[][2] = {
      {rtl::EvalBackend::kCompiled, rtl::EvalBackend::kBitsliced},
      {rtl::EvalBackend::kBitsliced, rtl::EvalBackend::kInterpreted},
      {rtl::EvalBackend::kInterpreted, rtl::EvalBackend::kCompiled},
  };
  int variant = 0;
  for (const auto& pair : pairs) {
    SCOPED_TRACE(std::string("interrupt=") + rtl::to_string(pair[0]) +
                 " resume=" + rtl::to_string(pair[1]));
    const std::string dir =
        fresh_dir("backend_resume_" + std::to_string(variant++));
    CampaignRunControl interrupt;
    interrupt.checkpoint_dir = dir;
    interrupt.chunk_trials = 8;
    interrupt.trial_budget = 8;
    SeuCampaignConfig first = camp;
    first.backend = pair[0];
    first.threads = 2;
    const UnitSeuResult partial =
        run_unit_campaign(kind, fmt, cfg, first, interrupt);
    ASSERT_TRUE(partial.run.interrupted);

    CampaignRunControl resume;
    resume.checkpoint_dir = dir;
    resume.resume = true;
    resume.chunk_trials = 8;
    SeuCampaignConfig second = camp;
    second.backend = pair[1];
    second.threads = 8;
    const UnitSeuResult resumed =
        run_unit_campaign(kind, fmt, cfg, second, resume);
    EXPECT_FALSE(resumed.run.interrupted);
    EXPECT_GE(resumed.run.chunks_restored, 1)
        << "the other backend's sidecar was not found: the backend leaked "
           "into the spec hash";
    expect_same_unit(resumed, baseline);
  }
}

void expect_same_matmul(const MatmulSeuResult& a, const MatmulSeuResult& b) {
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.masked, b.masked);
  EXPECT_EQ(a.detected, b.detected);
  EXPECT_EQ(a.corrected, b.corrected);
  EXPECT_EQ(a.silent, b.silent);
  EXPECT_EQ(a.acc_injected, b.acc_injected);
  EXPECT_EQ(a.acc_silent, b.acc_silent);
  EXPECT_EQ(a.latch_injected, b.latch_injected);
  EXPECT_EQ(a.latch_silent, b.latch_silent);
  EXPECT_EQ(a.config_injected, b.config_injected);
  EXPECT_EQ(a.config_silent, b.config_silent);
  EXPECT_EQ(a.draws_exhausted, b.draws_exhausted);
  EXPECT_EQ(a.run.interrupted, b.run.interrupted);
  EXPECT_EQ(a.run.stop_reason, b.run.stop_reason);
  EXPECT_EQ(a.run.chunks_total, b.run.chunks_total);
  EXPECT_EQ(a.run.chunks_completed, b.run.chunks_completed);
  EXPECT_EQ(a.run.chunks_restored, b.run.chunks_restored);
  EXPECT_EQ(a.run.trials_executed, b.run.trials_executed);
}

/// The one sidecar a checkpointed campaign leaves in `dir`, parsed: lines
/// land in chunk-completion order, so the chunk map is the canonical form.
fault::CheckpointLoad only_sidecar(const std::string& dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    files.push_back(e.path());
  }
  EXPECT_EQ(files.size(), 1u);
  return files.empty() ? fault::CheckpointLoad{}
                       : fault::load_checkpoint(files.front().string());
}

// The kernel fast path — walk only the accumulates of the struck PE that
// an upset reaches, stepping no PE — against the interpreted reference,
// which steps the struck PE clock by clock through its whole schedule
// (itself pinned to full-array runs by matmul_replay_tests): every result
// field and every sidecar byte, at 1/2/8 threads. The cases span padded and unpadded sizes, both
// storage schemes, persistent and scrubbed config upsets, all-latch and
// all-accumulator draws, fused-MAC PEs and both formats.
TEST(BackendEquivalence, MatmulFastPathMatchesFullArrayReference) {
  const struct {
    int n;
    fp::FpFormat fmt;
    bool fused;
    fault::Scheme scheme;
    double accumulator_fraction;
    double config_fraction;
    long scrub;
  } cases[] = {
      {1, fp::FpFormat::binary32(), false, fault::Scheme::kNone, 0.5, 0.0, 0},
      {3, fp::FpFormat::binary64(), false, fault::Scheme::kEcc, 1.0, 0.5, 0},
      {8, fp::FpFormat::binary32(), true, fault::Scheme::kEcc, 0.5, 0.5, 16},
      {8, fp::FpFormat::binary64(), false, fault::Scheme::kNone, 0.0, 0.5, 20},
      {16, fp::FpFormat::binary32(), false, fault::Scheme::kEcc, 0.5, 0.25,
       32},
      {16, fp::FpFormat::binary64(), true, fault::Scheme::kNone, 1.0, 0.25,
       0},
  };
  int variant = 0;
  for (const auto& c : cases) {
    SCOPED_TRACE("n=" + std::to_string(c.n) + " " + c.fmt.name() +
                 (c.fused ? " fused" : "") +
                 " scheme=" + std::to_string(static_cast<int>(c.scheme)) +
                 " acc=" + std::to_string(c.accumulator_fraction) +
                 " config=" + std::to_string(c.config_fraction) +
                 " scrub=" + std::to_string(c.scrub));
    kernel::PeConfig cfg;
    cfg.fmt = c.fmt;
    cfg.adder_stages = 4;
    cfg.mult_stages = 3;
    cfg.use_fused_mac = c.fused;
    MatmulSeuConfig camp;
    camp.n = c.n;
    camp.faults = 24;
    camp.scheme = c.scheme;
    camp.accumulator_fraction = c.accumulator_fraction;
    camp.config_fraction = c.config_fraction;
    camp.scrub_period_cycles = c.scrub;
    camp.threads = 1;
    camp.backend = rtl::EvalBackend::kInterpreted;
    CampaignRunControl control;
    control.chunk_trials = 8;
    control.checkpoint_dir = fresh_dir("matmul_ref_" + std::to_string(variant));
    const MatmulSeuResult reference = run_matmul_campaign(cfg, camp, control);
    const fault::CheckpointLoad reference_sidecar =
        only_sidecar(control.checkpoint_dir);
    ASSERT_TRUE(reference_sidecar.found);
    EXPECT_GT(reference.injected, reference.masked)
        << "a case with nothing but masked trials proves little";

    for (const rtl::EvalBackend backend :
         {rtl::EvalBackend::kCompiled, rtl::EvalBackend::kBitsliced}) {
      for (const int threads : {1, 2, 8}) {
        SCOPED_TRACE(std::string(rtl::to_string(backend)) +
                     " threads=" + std::to_string(threads));
        MatmulSeuConfig run = camp;
        run.backend = backend;
        run.threads = threads;
        control.checkpoint_dir = fresh_dir(
            "matmul_fast_" + std::to_string(variant) + "_" +
            rtl::to_string(backend) + "_" + std::to_string(threads));
        expect_same_matmul(run_matmul_campaign(cfg, run, control), reference);
        const fault::CheckpointLoad sidecar =
            only_sidecar(control.checkpoint_dir);
        EXPECT_EQ(sidecar.spec_hash, reference_sidecar.spec_hash);
        EXPECT_EQ(sidecar.count, reference_sidecar.count);
        EXPECT_EQ(sidecar.chunk, reference_sidecar.chunk);
        EXPECT_EQ(sidecar.chunks, reference_sidecar.chunks);
      }
    }
    ++variant;
  }
}

// The depth sweep threads the backend through every inner campaign.
TEST(BackendEquivalence, DepthSweepMatchesAcrossBackends) {
  const std::vector<int> depths{1, 4, 9};
  SeuCampaignConfig camp;
  camp.faults = 16;
  camp.threads = 1;
  camp.backend = rtl::EvalBackend::kInterpreted;
  const std::vector<SeuDepthPoint> baseline = seu_depth_sweep(
      units::UnitKind::kAdder, fp::FpFormat::binary32(), depths, camp);

  for (const rtl::EvalBackend backend :
       {rtl::EvalBackend::kCompiled, rtl::EvalBackend::kBitsliced}) {
    SCOPED_TRACE(rtl::to_string(backend));
    SeuCampaignConfig run = camp;
    run.backend = backend;
    const std::vector<SeuDepthPoint> points = seu_depth_sweep(
        units::UnitKind::kAdder, fp::FpFormat::binary32(), depths, run);
    ASSERT_EQ(points.size(), baseline.size());
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      SCOPED_TRACE("depth index " + std::to_string(i));
      EXPECT_EQ(points[i].stages, baseline[i].stages);
      EXPECT_EQ(points[i].pipeline_ffs, baseline[i].pipeline_ffs);
      EXPECT_EQ(points[i].occupied_bits, baseline[i].occupied_bits);
      EXPECT_EQ(points[i].avf, baseline[i].avf);
      EXPECT_EQ(points[i].sdc_fraction, baseline[i].sdc_fraction);
      EXPECT_EQ(points[i].sdc_fit, baseline[i].sdc_fit);
    }
  }
}

}  // namespace
}  // namespace flopsim::analysis
