// The resilience contract end to end: a campaign interrupted by a budget
// or a signal, checkpointed, and resumed — possibly at a different thread
// count — produces tallies bit-identical to one uninterrupted run. Also
// locks the refusal path (a sidecar from a different campaign throws) and
// the convergence early stop.
#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/seu.hpp"
#include "exec/cancel.hpp"
#include "fault/checkpoint.hpp"
#include "rtl/evaluator.hpp"

namespace flopsim::analysis {
namespace {

std::string fresh_dir(const char* stem) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / stem).string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

units::UnitConfig unit_cfg() {
  units::UnitConfig cfg;
  cfg.stages = 5;
  return cfg;
}

SeuCampaignConfig unit_camp(int threads) {
  SeuCampaignConfig camp;
  camp.faults = 40;
  camp.threads = threads;
  return camp;
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
}

TEST(CampaignResume, BudgetInterruptThenResumeMatchesUninterrupted) {
  const auto kind = units::UnitKind::kAdder;
  const fp::FpFormat fmt = fp::FpFormat::binary32();
  const UnitSeuResult baseline =
      run_unit_campaign(kind, fmt, unit_cfg(), unit_camp(1));
  ASSERT_FALSE(baseline.run.interrupted);
  EXPECT_EQ(baseline.run.chunks_restored, 0);

  const std::string dir = fresh_dir("resume_unit");
  CampaignRunControl interrupt;
  interrupt.checkpoint_dir = dir;
  interrupt.chunk_trials = 8;
  interrupt.trial_budget = 8;
  const UnitSeuResult partial =
      run_unit_campaign(kind, fmt, unit_cfg(), unit_camp(2), interrupt);
  EXPECT_TRUE(partial.run.interrupted);
  EXPECT_EQ(partial.run.stop_reason, exec::CancelToken::Reason::kTrialBudget);
  EXPECT_GE(partial.run.trials_executed, 8);
  EXPECT_LT(partial.run.chunks_completed, partial.run.chunks_total);

  CampaignRunControl resume;
  resume.checkpoint_dir = dir;
  resume.resume = true;
  resume.chunk_trials = 8;
  const UnitSeuResult resumed =
      run_unit_campaign(kind, fmt, unit_cfg(), unit_camp(8), resume);
  EXPECT_FALSE(resumed.run.interrupted);
  EXPECT_GE(resumed.run.chunks_restored, 1);
  EXPECT_EQ(resumed.run.chunks_restored + resumed.run.chunks_completed,
            resumed.run.chunks_total);
  expect_same_unit(resumed, baseline);

  // Resuming a finished campaign restores everything and runs nothing.
  const UnitSeuResult replay =
      run_unit_campaign(kind, fmt, unit_cfg(), unit_camp(1), resume);
  EXPECT_EQ(replay.run.chunks_completed, 0);
  EXPECT_EQ(replay.run.chunks_restored, replay.run.chunks_total);
  EXPECT_EQ(replay.run.trials_executed, 0);
  expect_same_unit(replay, baseline);
}

TEST(CampaignResume, EveryResumeThreadCountIsBitIdentical) {
  const auto kind = units::UnitKind::kMultiplier;
  const fp::FpFormat fmt = fp::FpFormat::binary64();
  units::UnitConfig cfg;
  cfg.stages = 6;
  SeuCampaignConfig camp;
  camp.faults = 40;
  camp.scheme = fault::Scheme::kParity;
  camp.threads = 1;
  const UnitSeuResult baseline = run_unit_campaign(kind, fmt, cfg, camp);

  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE("resume threads=" + std::to_string(threads));
    const std::string dir = fresh_dir(
        ("resume_t" + std::to_string(threads)).c_str());
    CampaignRunControl interrupt;
    interrupt.checkpoint_dir = dir;
    interrupt.chunk_trials = 8;
    interrupt.trial_budget = 8;
    SeuCampaignConfig run2 = camp;
    run2.threads = 2;
    const UnitSeuResult partial =
        run_unit_campaign(kind, fmt, cfg, run2, interrupt);
    ASSERT_TRUE(partial.run.interrupted);

    CampaignRunControl resume;
    resume.checkpoint_dir = dir;
    resume.resume = true;
    resume.chunk_trials = 8;
    SeuCampaignConfig run3 = camp;
    run3.threads = threads;
    const UnitSeuResult resumed =
        run_unit_campaign(kind, fmt, cfg, run3, resume);
    ASSERT_FALSE(resumed.run.interrupted);
    EXPECT_GE(resumed.run.chunks_restored, 1);
    expect_same_unit(resumed, baseline);
  }
}

TEST(CampaignResume, SigtermFeedsTheTokenAndTheRunResumes) {
  const auto kind = units::UnitKind::kAdder;
  const fp::FpFormat fmt = fp::FpFormat::binary32();
  const UnitSeuResult baseline =
      run_unit_campaign(kind, fmt, unit_cfg(), unit_camp(1));

  const std::string dir = fresh_dir("resume_sigterm");
  exec::install_signal_handlers();
  exec::global_cancel_token().reset();
  ASSERT_EQ(std::raise(SIGTERM), 0);

  CampaignRunControl interrupt;
  interrupt.cancel = &exec::global_cancel_token();
  interrupt.checkpoint_dir = dir;
  interrupt.chunk_trials = 8;
  const UnitSeuResult stopped =
      run_unit_campaign(kind, fmt, unit_cfg(), unit_camp(2), interrupt);
  exec::global_cancel_token().reset();
  EXPECT_TRUE(stopped.run.interrupted);
  EXPECT_EQ(stopped.run.stop_reason, exec::CancelToken::Reason::kSignal);
  EXPECT_EQ(stopped.run.chunks_completed, 0)
      << "the signal arrived before any chunk started";

  CampaignRunControl resume;
  resume.checkpoint_dir = dir;
  resume.resume = true;
  resume.chunk_trials = 8;
  const UnitSeuResult resumed =
      run_unit_campaign(kind, fmt, unit_cfg(), unit_camp(8), resume);
  EXPECT_FALSE(resumed.run.interrupted);
  expect_same_unit(resumed, baseline);
}

TEST(CampaignResume, MatmulInterruptResumeMatchesUninterrupted) {
  kernel::PeConfig cfg;
  cfg.adder_stages = 8;
  cfg.mult_stages = 5;
  MatmulSeuConfig camp;
  camp.faults = 16;
  camp.config_fraction = 0.5;
  camp.threads = 1;
  const MatmulSeuResult baseline = run_matmul_campaign(cfg, camp);

  const std::string dir = fresh_dir("resume_matmul");
  CampaignRunControl interrupt;
  interrupt.checkpoint_dir = dir;
  interrupt.chunk_trials = 8;
  interrupt.trial_budget = 8;
  MatmulSeuConfig run2 = camp;
  run2.threads = 2;
  const MatmulSeuResult partial = run_matmul_campaign(cfg, run2, interrupt);
  ASSERT_TRUE(partial.run.interrupted);
  EXPECT_EQ(partial.run.stop_reason, exec::CancelToken::Reason::kTrialBudget);

  CampaignRunControl resume;
  resume.checkpoint_dir = dir;
  resume.resume = true;
  resume.chunk_trials = 8;
  MatmulSeuConfig run3 = camp;
  run3.threads = 8;
  const MatmulSeuResult resumed = run_matmul_campaign(cfg, run3, resume);
  EXPECT_FALSE(resumed.run.interrupted);
  EXPECT_GE(resumed.run.chunks_restored, 1);
  expect_same_matmul(resumed, baseline);

  // The sidecar is engine-neutral: a campaign interrupted under the
  // full-array reference resumes under the single-PE replay, and back.
  const rtl::EvalBackend engines[][2] = {
      {rtl::EvalBackend::kInterpreted, rtl::EvalBackend::kBitsliced},
      {rtl::EvalBackend::kBitsliced, rtl::EvalBackend::kInterpreted},
  };
  int variant = 0;
  for (const auto& pair : engines) {
    SCOPED_TRACE(std::string("interrupt=") + rtl::to_string(pair[0]) +
                 " resume=" + rtl::to_string(pair[1]));
    interrupt.checkpoint_dir = resume.checkpoint_dir =
        fresh_dir(variant++ == 0 ? "resume_matmul_to_fast"
                                 : "resume_matmul_to_reference");
    MatmulSeuConfig first = run2;
    first.backend = pair[0];
    ASSERT_TRUE(run_matmul_campaign(cfg, first, interrupt).run.interrupted);
    MatmulSeuConfig second = run3;
    second.backend = pair[1];
    const MatmulSeuResult crossed = run_matmul_campaign(cfg, second, resume);
    EXPECT_FALSE(crossed.run.interrupted);
    EXPECT_GE(crossed.run.chunks_restored, 1)
        << "the other engine's sidecar was not found";
    expect_same_matmul(crossed, baseline);
  }
}

TEST(CampaignResume, DepthSweepRestoresFinishedDepths) {
  const std::vector<int> depths{1, 4, 9};
  SeuCampaignConfig camp;
  camp.faults = 16;
  camp.threads = 1;
  const std::vector<SeuDepthPoint> baseline = seu_depth_sweep(
      units::UnitKind::kAdder, fp::FpFormat::binary32(), depths, camp);

  const std::string dir = fresh_dir("resume_sweep");
  CampaignRunControl interrupt;
  interrupt.checkpoint_dir = dir;
  interrupt.trial_budget = 16;  // one depth charges camp.faults = 16
  const SeuSweepRun partial = seu_depth_sweep(
      units::UnitKind::kAdder, fp::FpFormat::binary32(), depths, camp,
      SeuRateModel{}, interrupt);
  ASSERT_TRUE(partial.run.interrupted);
  EXPECT_EQ(partial.run.stop_reason, exec::CancelToken::Reason::kTrialBudget);
  EXPECT_EQ(partial.run.chunks_completed, 1);

  CampaignRunControl resume;
  resume.checkpoint_dir = dir;
  resume.resume = true;
  const SeuSweepRun resumed = seu_depth_sweep(
      units::UnitKind::kAdder, fp::FpFormat::binary32(), depths, camp,
      SeuRateModel{}, resume);
  EXPECT_FALSE(resumed.run.interrupted);
  EXPECT_GE(resumed.run.chunks_restored, 1)
      << "the finished depth must come from the checkpoint, not a re-run";
  ASSERT_EQ(resumed.points.size(), baseline.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    SCOPED_TRACE("depth index " + std::to_string(i));
    EXPECT_EQ(resumed.points[i].stages, baseline[i].stages);
    EXPECT_EQ(resumed.points[i].pipeline_ffs, baseline[i].pipeline_ffs);
    EXPECT_EQ(resumed.points[i].occupied_bits, baseline[i].occupied_bits);
    // Bit-exact doubles: restored points replay the stored bits.
    EXPECT_EQ(resumed.points[i].freq_mhz, baseline[i].freq_mhz);
    EXPECT_EQ(resumed.points[i].avf, baseline[i].avf);
    EXPECT_EQ(resumed.points[i].sdc_fraction, baseline[i].sdc_fraction);
    EXPECT_EQ(resumed.points[i].sdc_fit, baseline[i].sdc_fit);
    EXPECT_EQ(resumed.points[i].tmr_area_x, baseline[i].tmr_area_x);
  }
}

TEST(CampaignResume, ForeignSidecarIsRefused) {
  const auto kind = units::UnitKind::kAdder;
  const fp::FpFormat fmt = fp::FpFormat::binary32();
  const std::string dir = fresh_dir("resume_refuse");
  CampaignRunControl interrupt;
  interrupt.checkpoint_dir = dir;
  interrupt.chunk_trials = 8;
  interrupt.trial_budget = 8;
  const UnitSeuResult partial =
      run_unit_campaign(kind, fmt, unit_cfg(), unit_camp(1), interrupt);
  ASSERT_TRUE(partial.run.interrupted);

  // Overwrite the sidecar with one claiming a different trial count —
  // what a hand-edited or stale file looks like. The filename stem is the
  // spec hash, so the campaign will find it and must refuse it.
  std::string path;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    path = entry.path().string();
  }
  ASSERT_FALSE(path.empty());
  const std::uint64_t spec =
      std::stoull(std::filesystem::path(path).stem().string(), nullptr, 16);
  {
    fault::CheckpointWriter bad(path, spec, /*count=*/99, /*chunk=*/8, 0);
    ASSERT_TRUE(bad.ok());
  }
  CampaignRunControl resume;
  resume.checkpoint_dir = dir;
  resume.resume = true;
  resume.chunk_trials = 8;
  EXPECT_THROW(run_unit_campaign(kind, fmt, unit_cfg(), unit_camp(1), resume),
               std::runtime_error);
}

std::string only_file(const std::string& dir) {
  std::string path;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    path = entry.path().string();
  }
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(CampaignResume, HeaderOnlySidecarResumesLikeNone) {
  // A header holds no records: resuming from one must give the tallies
  // and the sidecar bytes of resuming from no sidecar at all.
  const auto kind = units::UnitKind::kAdder;
  const fp::FpFormat fmt = fp::FpFormat::binary32();
  CampaignRunControl control;
  control.resume = true;
  control.chunk_trials = 8;
  control.checkpoint_dir = fresh_dir("resume_from_none");
  const UnitSeuResult from_none =
      run_unit_campaign(kind, fmt, unit_cfg(), unit_camp(2), control);
  const std::string sidecar = read_file(only_file(control.checkpoint_dir));
  ASSERT_NE(sidecar.find('\n'), std::string::npos);

  const std::string dir = fresh_dir("resume_from_header");
  const std::string path =
      dir + "/" +
      std::filesystem::path(only_file(control.checkpoint_dir))
          .filename()
          .string();
  std::ofstream(path, std::ios::binary)
      << sidecar.substr(0, sidecar.find('\n') + 1);
  control.checkpoint_dir = dir;
  const UnitSeuResult from_header =
      run_unit_campaign(kind, fmt, unit_cfg(), unit_camp(2), control);
  expect_same_unit(from_none, from_header);
  EXPECT_EQ(from_header.run.chunks_restored, 0);
  EXPECT_EQ(from_header.run.trials_executed, from_none.run.trials_executed);
  EXPECT_EQ(read_file(path), sidecar);
}

TEST(CampaignResume, ConvergenceEarlyStopReportsConverged) {
  CampaignRunControl control;
  control.chunk_trials = 8;
  control.stop_half_width = 1e12;  // any sample at all "converges"
  const UnitSeuResult r =
      run_unit_campaign(units::UnitKind::kAdder, fp::FpFormat::binary32(),
                        unit_cfg(), unit_camp(1), control);
  EXPECT_TRUE(r.run.interrupted);
  EXPECT_EQ(r.run.stop_reason, exec::CancelToken::Reason::kConverged);
  EXPECT_EQ(r.run.trials_executed, 8)
      << "serial run stops right after the first chunk";
}

}  // namespace
}  // namespace flopsim::analysis
