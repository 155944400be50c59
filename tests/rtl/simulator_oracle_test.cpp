// PipelineSim's in-place step against the copy-based step it replaced,
// kept here verbatim as the reference: on every unit kind in both paper
// precisions at depth 1, the sweep's optimum and the maximum, and on
// every converter chain, both simulators step the same operands with
// bubbles mixed in, under an observer that flips latched bits, and must
// agree on every latch, valid count and output after every clock and on
// everything the observer saw, in order.
#include "rtl/simulator.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/pareto.hpp"
#include "analysis/sweep.hpp"
#include "fault/campaign.hpp"
#include "units/converter_unit.hpp"
#include "units/fp_unit.hpp"

namespace flopsim::rtl {
namespace {

// The copy-based step: each stage evaluates a local bundle copied from
// the upstream latch, then copies it into its own latch.
class CopyingSim {
 public:
  CopyingSim(const PieceChain* chain, PipelinePlan plan)
      : chain_(chain), plan_(std::move(plan)) {
    latch_.resize(static_cast<std::size_t>(plan_.stages()));
    valid_cycles_.assign(static_cast<std::size_t>(plan_.stages()), 0);
  }

  void step(const std::optional<SignalSet>& input) {
    // Evaluate stages back-to-front so each stage consumes the upstream
    // latch's pre-edge value — i.e. true synchronous behaviour.
    for (int s = plan_.stages() - 1; s >= 0; --s) {
      SignalSet work;
      if (s == 0) {
        work = input.value_or(SignalSet{});
      } else {
        work = latch_[s - 1];
      }
      if (work.valid) {
        for (int i = plan_.stage_begin[s]; i < plan_.stage_begin[s + 1];
             ++i) {
          (*chain_)[i].eval(work);
        }
      }
      latch_[s] = work;
      if (observer_ != nullptr) observer_->on_latch(cycles_, s, latch_[s]);
      if (latch_[s].valid) ++valid_cycles_[static_cast<std::size_t>(s)];
    }
    ++cycles_;
  }

  const SignalSet& output() const { return latch_.back(); }
  const std::vector<SignalSet>& latches() const { return latch_; }
  const std::vector<long>& valid_cycles() const { return valid_cycles_; }
  long cycles() const { return cycles_; }
  void set_latch_observer(LatchObserver* observer) { observer_ = observer; }

 private:
  const PieceChain* chain_;
  PipelinePlan plan_;
  std::vector<SignalSet> latch_;
  std::vector<long> valid_cycles_;
  long cycles_ = 0;
  LatchObserver* observer_ = nullptr;
};

struct Seen {
  long cycle;
  int stage;
  SignalSet latch;
  friend bool operator==(const Seen&, const Seen&) = default;
};

/// Per stage, per lane: the bits any latch of a clean run held — the
/// bits a fault campaign draws its upsets from.
using Occupancy = std::vector<std::array<fp::u64, kMaxSignals>>;

// Records each latch as it loads, then flips bits in some of them: an
// occupied data bit and a flag bit on a fixed pattern of (cycle, stage),
// and now and then the valid bit of an occupied latch (a killed vector).
class FlippingObserver final : public LatchObserver {
 public:
  explicit FlippingObserver(const Occupancy& occupied) : occupied_(occupied) {}

  void on_latch(long cycle, int stage, SignalSet& latch) override {
    seen.push_back({cycle, stage, latch});
    const long k = cycle * 7 + stage;
    const auto lane = static_cast<std::size_t>(k % kMaxSignals);
    const fp::u64 bits = occupied_[static_cast<std::size_t>(stage)][lane];
    if (k % 3 == 0 && bits != 0) {
      // The (k mod popcount)-th occupied bit of the lane.
      fp::u64 w = bits;
      for (long skip = k % std::popcount(bits); skip > 0; --skip) w &= w - 1;
      latch.lane[lane] ^= w & -w;
    }
    if (k % 5 == 0) latch.flags ^= static_cast<std::uint8_t>(1u << (k % 5));
    if (k % 17 == 0 && latch.valid) latch.valid = false;
  }

  std::vector<Seen> seen;

 private:
  const Occupancy& occupied_;
};

constexpr int kCycles = 64;

// Step both simulators over `vectors` (one per cycle, with bubbles drawn
// from `seed`) and compare them after every clock.
void expect_same_steps(const std::string& name, const PieceChain& chain,
                       const PipelinePlan& plan,
                       const std::vector<SignalSet>& vectors,
                       std::uint64_t seed) {
  SCOPED_TRACE(name + " at " + std::to_string(plan.stages()) + " stages");
  Occupancy occupied(static_cast<std::size_t>(plan.stages()));
  CopyingSim clean(&chain, plan);
  for (std::size_t t = 0; t < vectors.size() + occupied.size(); ++t) {
    clean.step(t < vectors.size() ? std::optional<SignalSet>(vectors[t])
                                  : std::nullopt);
    for (std::size_t s = 0; s < occupied.size(); ++s) {
      for (std::size_t lane = 0; lane < kMaxSignals; ++lane) {
        occupied[s][lane] |= clean.latches()[s].lane[lane];
      }
    }
  }

  PipelineSim sim(&chain, plan);
  CopyingSim ref(&chain, plan);
  FlippingObserver sim_obs(occupied);
  FlippingObserver ref_obs(occupied);
  sim.set_latch_observer(&sim_obs);
  ref.set_latch_observer(&ref_obs);
  std::mt19937_64 rng(seed);
  std::size_t next = 0;
  int bubbles = 0;
  for (int t = 0; t < kCycles; ++t) {
    std::optional<SignalSet> in;
    if (rng() % 4 != 0 && next < vectors.size()) {
      in = vectors[next++];
    } else {
      ++bubbles;
    }
    sim.step(in);
    ref.step(in);
    ASSERT_EQ(sim.cycles(), ref.cycles());
    ASSERT_EQ(sim.latches(), ref.latches()) << "cycle " << t;
    ASSERT_EQ(sim.valid_cycles(), ref.valid_cycles()) << "cycle " << t;
    ASSERT_EQ(sim.output(), ref.output()) << "cycle " << t;
    ASSERT_EQ(sim_obs.seen, ref_obs.seen) << "cycle " << t;
  }
  EXPECT_GT(bubbles, 0);
  EXPECT_EQ(sim_obs.seen.size(),
            static_cast<std::size_t>(kCycles * plan.stages()));
}

TEST(PipelineSimOracle, InPlaceStepMatchesTheCopyingStepOnEveryUnit) {
  for (const units::UnitKind kind :
       {units::UnitKind::kAdder, units::UnitKind::kMultiplier,
        units::UnitKind::kDivider, units::UnitKind::kSqrt,
        units::UnitKind::kMac}) {
    for (const fp::FpFormat fmt :
         {fp::FpFormat::binary32(), fp::FpFormat::binary64()}) {
      std::vector<SignalSet> vectors;
      for (const units::UnitInput& in :
           fault::campaign_workload(kind, fmt, kCycles, 0x0c1e)) {
        vectors.push_back(units::FpUnit::pack(in));
      }
      const analysis::Selection sel =
          analysis::select_min_max_opt(analysis::sweep_unit(kind, fmt));
      units::UnitConfig cfg;
      cfg.stages = 1;
      const int deepest = units::FpUnit(kind, fmt, cfg).max_stages();
      for (const int depth : std::set<int>{1, sel.opt.stages, deepest}) {
        cfg.stages = depth;
        const units::FpUnit unit(kind, fmt, cfg);
        ASSERT_EQ(unit.stages(), depth);
        expect_same_steps(unit.name(), unit.pieces(), unit.plan(), vectors,
                          static_cast<std::uint64_t>(depth));
      }
    }
  }
}

TEST(PipelineSimOracle, InPlaceStepMatchesTheCopyingStepOnEveryConverter) {
  for (const fp::FpFormat& src : analysis::paper_formats()) {
    for (const fp::FpFormat& dst : analysis::paper_formats()) {
      if (src.total_bits() == dst.total_bits()) continue;
      std::mt19937_64 rng(src.total_bits() * 131 + dst.total_bits());
      std::vector<SignalSet> vectors(kCycles);
      for (SignalSet& v : vectors) {
        v.valid = true;
        v.lane[0] = rng() & src.bits_mask();  // the converter's input lane
      }
      units::UnitConfig cfg;
      cfg.stages = 1;
      const int deepest = units::FormatConverter(src, dst, cfg).max_stages();
      for (const int depth : std::set<int>{1, (1 + deepest) / 2, deepest}) {
        cfg.stages = depth;
        const units::FormatConverter cvt(src, dst, cfg);
        ASSERT_EQ(cvt.stages(), depth);
        expect_same_steps(cvt.name(), cvt.pieces(), cvt.plan(), vectors,
                          static_cast<std::uint64_t>(depth));
      }
    }
  }
}

}  // namespace
}  // namespace flopsim::rtl
