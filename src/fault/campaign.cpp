#include "fault/campaign.hpp"

#include <bit>
#include <cmath>
#include <random>
#include <stdexcept>
#include <utility>

#include "fault/secded.hpp"
#include "obs/metrics.hpp"

namespace flopsim::fault {

namespace {

// Deterministic helpers on top of mt19937_64 (or its seeded prefix): the
// standard distributions are implementation-defined, so campaigns roll
// their own to keep a seed reproducible across toolchains.
template <typename Rng>
std::uint64_t draw_below(Rng& rng, std::uint64_t n) {
  return n == 0 ? 0 : rng() % n;
}

double draw_unit(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

long draw_poisson(std::mt19937_64& rng, double mean) {
  if (mean <= 0.0) return 0;
  if (mean < 30.0) {
    // Knuth: multiply uniforms until the product drops below e^-mean.
    const double limit = std::exp(-mean);
    long k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= draw_unit(rng);
    } while (p > limit);
    return k - 1;
  }
  // Normal approximation is fine at campaign scale.
  const double u1 = draw_unit(rng);
  const double u2 = draw_unit(rng);
  const double z =
      std::sqrt(-2.0 * std::log(u1 + 1e-18)) * std::cos(6.283185307179586 * u2);
  const double v = mean + std::sqrt(mean) * z;
  return v < 0.0 ? 0 : static_cast<long>(v + 0.5);
}

}  // namespace

long LatchProfile::total_bits() const {
  long bits = 0;
  for (const auto& stage : occupied) {
    for (fp::u64 mask : stage) bits += std::popcount(mask);
  }
  if (include_valid) bits += stages();
  if (include_flags) bits += 8L * stages();
  return bits;
}

void LatchProfile::observe(const std::vector<rtl::SignalSet>& latches) {
  for (std::size_t s = 0; s < latches.size(); ++s) {
    for (std::size_t l = 0; l < rtl::kMaxSignals; ++l) {
      occupied[s][l] |= latches[s].lane[l];
    }
  }
}

LatchProfile profile_unit_latches(const units::FpUnit& unit, int vectors,
                                  std::uint64_t seed) {
  units::FpUnit probe = unit.clone();  // fresh pipeline; caller's untouched
  LatchProfile profile;
  profile.occupied.assign(static_cast<std::size_t>(probe.stages()), {});
  const std::vector<units::UnitInput> workload =
      campaign_workload(probe.kind(), probe.format(), vectors, seed);
  const int total = vectors + probe.latency() + 2;
  for (int t = 0; t < total; ++t) {
    if (t < vectors) {
      probe.step(workload[static_cast<std::size_t>(t)]);
    } else {
      probe.step(std::nullopt);
    }
    profile.observe(probe.latches());
  }
  return profile;
}

CleanUnitRun record_clean_unit_run(units::FpUnit& unit,
                                   const std::vector<units::UnitInput>& workload,
                                   long horizon, bool keep_states) {
  CleanUnitRun run;
  run.golden.reserve(static_cast<std::size_t>(horizon));
  run.profile.occupied.assign(static_cast<std::size_t>(unit.stages()), {});
  std::shared_ptr<rtl::CleanRun> clean;
  if (keep_states) {
    std::vector<rtl::SignalSet> inputs;
    inputs.reserve(workload.size());
    for (const units::UnitInput& in : workload) {
      inputs.push_back(units::FpUnit::pack(in));
    }
    clean = std::make_shared<rtl::CleanRun>(std::move(inputs), horizon,
                                            unit.stages());
  }
  const long vectors = static_cast<long>(workload.size());
  unit.reset();
  for (long t = 0; t < horizon; ++t) {
    unit.step(t < vectors ? std::optional<units::UnitInput>(
                                workload[static_cast<std::size_t>(t)])
                          : std::nullopt);
    run.golden.push_back(unit.output());
    run.profile.observe(unit.latches());
    if (clean) clean->record(t, unit.latches());
  }
  run.clean = std::move(clean);
  return run;
}

std::vector<units::UnitInput> campaign_workload(units::UnitKind kind,
                                                fp::FpFormat fmt, int count,
                                                std::uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x5eu);
  std::vector<units::UnitInput> workload;
  workload.reserve(static_cast<std::size_t>(count));
  const fp::u64 mask = fmt.bits_mask();
  for (int i = 0; i < count; ++i) {
    units::UnitInput in;
    in.a = rng() & mask;
    in.b = rng() & mask;
    in.subtract = kind == units::UnitKind::kAdder && (i & 1) != 0;
    if (kind == units::UnitKind::kMac) in.c = rng() & mask;
    workload.push_back(in);
  }
  return workload;
}

namespace {

// Flatten the profile's occupied bits into sites: per stage, its data bits
// by lane and bit, then (unless `data_only`) the valid and flag
// pseudo-sites the profile includes.
std::vector<BitSite> flatten(const LatchProfile& profile, bool data_only) {
  const bool valid = !data_only && profile.include_valid;
  const bool flags = !data_only && profile.include_flags;
  std::size_t total = 0;
  for (const auto& lanes : profile.occupied) {
    for (const fp::u64 mask : lanes) {
      total += static_cast<std::size_t>(std::popcount(mask));
    }
    total += (valid ? 1 : 0) + (flags ? 8 : 0);
  }
  std::vector<BitSite> sites;
  sites.reserve(total);
  for (int s = 0; s < profile.stages(); ++s) {
    const auto& lanes = profile.occupied[static_cast<std::size_t>(s)];
    for (int l = 0; l < rtl::kMaxSignals; ++l) {
      fp::u64 mask = lanes[static_cast<std::size_t>(l)];
      while (mask != 0) {
        const int bit = std::countr_zero(mask);
        sites.push_back({s, l, bit});
        mask &= mask - 1;
      }
    }
    if (valid) sites.push_back({s, kValidLane, 0});
    if (flags) {
      for (int b = 0; b < 8; ++b) sites.push_back({s, kFlagsLane, b});
    }
  }
  return sites;
}

template <typename Rng>
std::vector<Fault> place_faults(const std::vector<BitSite>& sites,
                                long horizon, long count, Rng& rng) {
  std::vector<Fault> faults;
  if (sites.empty() || horizon <= 0) return faults;
  faults.reserve(static_cast<std::size_t>(count));
  for (long i = 0; i < count; ++i) {
    const BitSite& site =
        sites[static_cast<std::size_t>(draw_below(rng, sites.size()))];
    Fault f;
    f.cycle = static_cast<long>(
        draw_below(rng, static_cast<std::uint64_t>(horizon)));
    f.site = FaultSite::kStageLatch;
    f.index = site.stage;
    f.lane = site.lane;
    f.bit = site.bit;
    faults.push_back(f);
  }
  return faults;
}

// Uniform draws over the profile's occupied *data* bits only (config upsets
// rewire datapath logic; the valid/flag shift registers are user state and
// already covered by kStageLatch). The stuck mask spans `mask_bits`
// occupied bits upward from the struck one; repair lands on the first
// scrub boundary after the strike.
template <typename Rng>
std::vector<Fault> place_config_faults(const ProfileSites& profile_sites,
                                       long horizon, long count,
                                       long scrub_period_cycles, int mask_bits,
                                       Rng& rng) {
  const std::vector<BitSite>& sites = profile_sites.data();
  std::vector<Fault> faults;
  if (sites.empty() || horizon <= 0) return faults;
  faults.reserve(static_cast<std::size_t>(count));
  for (long i = 0; i < count; ++i) {
    const BitSite& site =
        sites[static_cast<std::size_t>(draw_below(rng, sites.size()))];
    const fp::u64 occupied =
        profile_sites.profile()
            .occupied[static_cast<std::size_t>(site.stage)]
                     [static_cast<std::size_t>(site.lane)];
    const int width = mask_bits < 1 ? 1 : mask_bits;
    fp::u64 span = width >= 64 ? ~fp::u64{0}
                               : ((fp::u64{1} << width) - 1) << site.bit;
    Fault f;
    f.cycle = static_cast<long>(
        draw_below(rng, static_cast<std::uint64_t>(horizon)));
    f.site = FaultSite::kConfig;
    f.index = site.stage;
    f.lane = site.lane;
    f.bit = site.bit;
    f.mask = span & occupied;  // nonzero: the struck bit itself is occupied
    f.stuck = rng() & f.mask;
    f.repair_cycle =
        scrub_period_cycles > 0
            ? (f.cycle / scrub_period_cycles + 1) * scrub_period_cycles
            : -1;
    faults.push_back(f);
  }
  return faults;
}

template <typename Rng>
std::vector<Fault> place_accumulator_faults(const CampaignSpec& spec,
                                            Rng& rng) {
  std::vector<Fault> faults;
  faults.reserve(static_cast<std::size_t>(spec.count));
  for (int i = 0; i < spec.count; ++i) {
    Fault f;
    f.site = FaultSite::kAccumulator;
    f.cycle = static_cast<long>(draw_below(
        rng, static_cast<std::uint64_t>(spec.horizon > 0 ? spec.horizon : 1)));
    f.index = static_cast<int>(
        draw_below(rng, static_cast<std::uint64_t>(spec.rows)));
    f.bit = static_cast<int>(
        draw_below(rng, static_cast<std::uint64_t>(spec.word_bits)));
    faults.push_back(f);
  }
  return faults;
}

/// `draw(rng)` with the generator a draw of `count` faults from `seed`
/// reads: the seeded prefix for one fault, the whole engine for more.
template <typename Draw>
std::vector<Fault> with_rng(std::uint64_t seed, long count, const Draw& draw) {
  if (count == 1) {
    Mt19937_64Prefix rng(seed);
    return draw(rng);
  }
  std::mt19937_64 rng(seed);
  return draw(rng);
}

const ProfileSites& require_sites(const CampaignSpec& spec) {
  if (spec.sites == nullptr) {
    throw std::invalid_argument("CampaignSpec: this source needs a profile");
  }
  return *spec.sites;
}

}  // namespace

ProfileSites::ProfileSites(const LatchProfile& profile)
    : profile_(&profile),
      has_pseudo_(profile.include_valid || profile.include_flags),
      latch_(flatten(profile, /*data_only=*/false)),
      data_(has_pseudo_ ? flatten(profile, /*data_only=*/true)
                        : std::vector<BitSite>{}) {}

Mt19937_64Prefix::Mt19937_64Prefix(std::uint64_t seed) {
  // std::mt19937_64's parameters (w = 64, n = 312, m = 156, r = 31).
  constexpr int kShift = 156;
  constexpr std::uint64_t kMatrix = 0xb5026f5aa96619e9;
  constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
  // Seeded words 0..kOutputs and kShift..kShift + kOutputs - 1: all a
  // twist of the first kOutputs words reads (it writes in index order, so
  // each still holds its seeded value when read).
  std::array<std::uint64_t, kOutputs + 1> low{};
  std::array<std::uint64_t, kOutputs> high{};
  std::uint64_t x = seed;
  for (int i = 0; i < kShift + kOutputs; ++i) {
    if (i > 0) x = 6364136223846793005 * (x ^ (x >> 62)) + i;
    if (i <= kOutputs) low[static_cast<std::size_t>(i)] = x;
    if (i >= kShift) high[static_cast<std::size_t>(i - kShift)] = x;
  }
  for (std::size_t k = 0; k < kOutputs; ++k) {
    const std::uint64_t y = (low[k] & kUpper) | (low[k + 1] & ~kUpper);
    std::uint64_t z = high[k] ^ (y >> 1) ^ ((y & 1) != 0 ? kMatrix : 0);
    z ^= (z >> 29) & 0x5555555555555555;
    z ^= (z << 17) & 0x71d67fffeda60000;
    z ^= (z << 37) & 0xfff7eee000000000;
    z ^= z >> 43;
    out_[k] = z;
  }
}

std::uint64_t Mt19937_64Prefix::operator()() {
  if (next_ >= kOutputs) {
    throw std::logic_error("Mt19937_64Prefix: past its seeded prefix");
  }
  return out_[static_cast<std::size_t>(next_++)];
}

FaultCampaign FaultCampaign::make(const CampaignSpec& spec) {
  FaultCampaign c = make_impl(spec);
  // Registry tallies only — draw sequences and fault lists are untouched.
  // Resolved once: a matmul campaign calls make() once per fault.
  static obs::Counter& built =
      obs::Registry::global().counter("fault.campaigns_built");
  static obs::Counter& drawn =
      obs::Registry::global().counter("fault.faults_drawn");
  built.inc();
  drawn.add(static_cast<long>(c.faults_.size()));
  return c;
}

FaultCampaign FaultCampaign::make_impl(const CampaignSpec& spec) {
  using Source = CampaignSpec::Source;
  FaultCampaign c;
  switch (spec.source) {
    case Source::kList:
      c.faults_ = spec.faults;
      return c;
    case Source::kRandom: {
      const ProfileSites& sites = require_sites(spec);
      c.faults_ = with_rng(spec.seed, spec.count, [&](auto& rng) {
        return place_faults(sites.latch(), spec.horizon, spec.count, rng);
      });
      return c;
    }
    case Source::kPoisson: {
      if (spec.rate < 0.0) {
        throw std::invalid_argument("FaultCampaign: negative upset rate");
      }
      const ProfileSites& sites = require_sites(spec);
      std::mt19937_64 rng(spec.seed);
      const double mean = spec.rate *
                          static_cast<double>(sites.profile().total_bits()) *
                          static_cast<double>(spec.horizon);
      const long count = draw_poisson(rng, mean);
      c.faults_ = place_faults(sites.latch(), spec.horizon, count, rng);
      return c;
    }
    case Source::kAccumulator: {
      if (spec.rows <= 0 || spec.word_bits <= 0 ||
          spec.word_bits > kSecdedWordBits) {
        throw std::invalid_argument("FaultCampaign: bad accumulator geometry");
      }
      c.faults_ = with_rng(spec.seed, spec.count, [&](auto& rng) {
        return place_accumulator_faults(spec, rng);
      });
      return c;
    }
    case Source::kCram: {
      const ProfileSites& sites = require_sites(spec);
      c.faults_ = with_rng(spec.seed, spec.count, [&](auto& rng) {
        return place_config_faults(sites, spec.horizon, spec.count,
                                   spec.scrub_period_cycles, spec.mask_bits,
                                   rng);
      });
      return c;
    }
  }
  throw std::invalid_argument("CampaignSpec: unknown source");
}

FaultCampaign FaultCampaign::from_list(std::vector<Fault> faults) {
  CampaignSpec spec;
  spec.source = CampaignSpec::Source::kList;
  spec.faults = std::move(faults);
  return make(spec);
}

}  // namespace flopsim::fault
