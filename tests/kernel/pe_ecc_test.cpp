// SECDED-protected accumulator bank inside the PE: encode on write,
// correct/detect on read, zero behavioural change when disabled.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "fault/secded.hpp"
#include "kernel/pe.hpp"

namespace flopsim::kernel {
namespace {

PeConfig ecc_config() {
  PeConfig cfg;
  cfg.adder_stages = 2;
  cfg.mult_stages = 2;
  cfg.storage_rows = 8;
  cfg.ecc_accumulators = true;
  return cfg;
}

// Observer that flips chosen accumulator bits at a chosen cycle — the same
// hook the fault layer uses.
struct BitFlipper : StorageObserver {
  long at = 0;
  int row = 0;
  std::vector<int> bits;
  void on_storage(long cycle, std::vector<fp::u64>& acc) override {
    if (cycle != at) return;
    for (int b : bits) acc[static_cast<std::size_t>(row)] ^= fp::u64{1} << b;
  }
};

TEST(PeEcc, WriteReadRoundTripsThroughTheCode) {
  ProcessingElement pe(ecc_config());
  pe.set_acc(3, 0x40490FDBu);  // some binary32 payload
  EXPECT_EQ(pe.acc(3), 0x40490FDBu);
  EXPECT_EQ(pe.ecc_corrections(), 0);
  EXPECT_EQ(pe.ecc_detections(), 0);
}

TEST(PeEcc, SingleBitUpsetIsCorrectedOnRead) {
  ProcessingElement pe(ecc_config());
  pe.set_acc(2, 0x3F800000u);

  BitFlipper flip;
  flip.row = 2;
  flip.bits = {17};
  pe.set_storage_observer(&flip);
  pe.step(std::nullopt);  // cycle 0: observer strikes the stored word
  pe.set_storage_observer(nullptr);

  EXPECT_EQ(pe.acc(2), 0x3F800000u) << "read returns the corrected word";
  EXPECT_GE(pe.ecc_corrections(), 1);
  EXPECT_EQ(pe.ecc_detections(), 0);
}

TEST(PeEcc, DoubleBitUpsetIsDetectedNotMiscorrected) {
  ProcessingElement pe(ecc_config());
  pe.set_acc(1, 0x3F800000u);

  BitFlipper flip;
  flip.row = 1;
  flip.bits = {4, 40};
  pe.set_storage_observer(&flip);
  pe.step(std::nullopt);
  pe.set_storage_observer(nullptr);

  const fp::u64 corrupted =
      0x3F800000u ^ (fp::u64{1} << 4) ^ (fp::u64{1} << 40);
  EXPECT_EQ(pe.acc(1), corrupted) << "uncorrectable word returned raw";
  EXPECT_GE(pe.ecc_detections(), 1);
  EXPECT_EQ(pe.ecc_corrections(), 0);
}

TEST(PeEcc, ClearResetsCountersAndChecks) {
  ProcessingElement pe(ecc_config());
  pe.set_acc(0, 123);
  BitFlipper flip;
  flip.bits = {7};
  pe.set_storage_observer(&flip);
  pe.step(std::nullopt);
  pe.set_storage_observer(nullptr);
  (void)pe.acc(0);
  EXPECT_GT(pe.ecc_corrections(), 0);

  pe.clear();
  EXPECT_EQ(pe.ecc_corrections(), 0);
  EXPECT_EQ(pe.ecc_detections(), 0);
  EXPECT_EQ(pe.acc(0), 0u) << "bank cleared to a valid all-zero codeword";
  EXPECT_EQ(pe.ecc_corrections(), 0) << "the cleared word decodes clean";
}

// Two PEs that step the same MAC, one through an upset its read repairs,
// differ only in the correction counter: matches_datapath ignores it (and
// the detection counter), matches does not. A third PE whose unread row
// holds one flipped bit fails both.
TEST(Pe, MatchesDatapathIgnoresOnlyEccCounters) {
  ProcessingElement clean(ecc_config());
  ProcessingElement repaired(ecc_config());
  ProcessingElement struck(ecc_config());
  BitFlipper into_read_row;
  into_read_row.row = 2;
  into_read_row.bits = {17};
  BitFlipper into_unread_row;
  into_unread_row.row = 5;
  into_unread_row.bits = {3};
  repaired.set_storage_observer(&into_read_row);
  struck.set_storage_observer(&into_unread_row);
  for (ProcessingElement* pe : {&clean, &repaired, &struck}) {
    pe->set_acc(2, 0x3F800000u);  // 1.0
    for (int t = 0; t < 8; ++t) {
      // The MAC issued on cycle 1 reads row 2 once its product leaves the
      // multiplier, after the cycle-0 strike.
      pe->step(t == 1 ? std::optional(ProcessingElement::MacIssue{
                            0x40000000u, 0x40400000u, 2})  // 2.0 * 3.0
                      : std::nullopt);
    }
    ASSERT_TRUE(pe->drained());
  }
  ASSERT_EQ(repaired.ecc_corrections(), 1);
  ASSERT_EQ(clean.ecc_corrections(), 0);
  ASSERT_EQ(struck.ecc_corrections(), 0);

  const int rows = ecc_config().storage_rows;
  const ProcessingElement::State golden = clean.save(rows);
  ASSERT_TRUE(clean.matches(golden));
  EXPECT_TRUE(repaired.matches_datapath(golden));
  EXPECT_FALSE(repaired.matches(golden));

  ProcessingElement::State detected = golden;
  detected.ecc_detections = 1;
  EXPECT_TRUE(clean.matches_datapath(detected));
  EXPECT_FALSE(clean.matches(detected));

  EXPECT_FALSE(struck.matches_datapath(golden));
  EXPECT_FALSE(struck.matches(golden));
}

TEST(PeEcc, EccChargesStorageAreaButNoExtraBram) {
  PeConfig plain = ecc_config();
  plain.ecc_accumulators = false;
  const ProcessingElement bare(plain);
  const ProcessingElement ecc(ecc_config());

  const device::Resources rb = bare.storage_resources();
  const device::Resources re = ecc.storage_resources();
  EXPECT_GT(re.slices, rb.slices);
  EXPECT_GT(re.luts, rb.luts);
  EXPECT_EQ(re.brams, rb.brams) << "check byte rides the BRAM parity bits";

  // MAC stream behaviour is identical when no fault strikes.
  ProcessingElement a(plain), b(ecc_config());
  for (int t = 0; t < 24; ++t) {
    std::optional<ProcessingElement::MacIssue> issue;
    if (t < 8) issue = ProcessingElement::MacIssue{0x3F800000u + t, 0x40000000u, t % 4};
    a.step(issue);
    b.step(issue);
  }
  for (int r = 0; r < 4; ++r) EXPECT_EQ(a.acc(r), b.acc(r));
  EXPECT_EQ(b.ecc_corrections(), 0);
}

}  // namespace
}  // namespace flopsim::kernel
