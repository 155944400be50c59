// The crash-safe checkpoint sidecar: content-hash keying, append/load
// roundtrips, torn-tail tolerance (the one corruption a crash can cause),
// and the in-place cut that keeps a previously-torn file from ever
// swallowing new appends.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "fault/checkpoint.hpp"
#include "obs/metrics.hpp"

namespace flopsim::fault {
namespace {

std::string temp_file(const char* stem) {
  return (std::filesystem::path(::testing::TempDir()) / stem).string();
}

std::vector<std::uint8_t> bytes(std::initializer_list<int> v) {
  std::vector<std::uint8_t> out;
  for (int b : v) out.push_back(static_cast<std::uint8_t>(b));
  return out;
}

TEST(SpecHash, DeterministicAndFieldOrderSensitive) {
  const auto h = [](auto&& fold) {
    SpecHash s;
    fold(s);
    return s.value();
  };
  EXPECT_EQ(h([](SpecHash& s) { s.u64(1).u64(2); }),
            h([](SpecHash& s) { s.u64(1).u64(2); }));
  EXPECT_NE(h([](SpecHash& s) { s.u64(1).u64(2); }),
            h([](SpecHash& s) { s.u64(2).u64(1); }));
  EXPECT_NE(h([](SpecHash& s) { s.i64(-1); }),
            h([](SpecHash& s) { s.i64(1); }));
  EXPECT_NE(h([](SpecHash& s) { s.f64(0.5); }),
            h([](SpecHash& s) { s.f64(0.25); }));
}

TEST(SpecHash, StringsCarryALengthTerminator) {
  // Without a terminator "ab"+"c" and "a"+"bc" would collide — the
  // classic concatenation ambiguity a spec hash must not have.
  SpecHash a;
  a.str("ab").str("c");
  SpecHash b;
  b.str("a").str("bc");
  EXPECT_NE(a.value(), b.value());
}

TEST(SpecHash, HexIsSixteenLowercaseDigits) {
  SpecHash s;
  s.str("anything");
  const std::string hex = s.hex();
  EXPECT_EQ(hex.size(), 16u);
  EXPECT_EQ(hex.find_first_not_of("0123456789abcdef"), std::string::npos);
}

TEST(CheckpointPath, IsTheHexKeyUnderTheDirectory) {
  EXPECT_EQ(checkpoint_path("ckdir", 0xdeadbeefULL),
            std::string("ckdir/00000000deadbeef.ckpt"));
}

TEST(Checkpoint, WriterLoaderRoundtrip) {
  const std::string path = temp_file("roundtrip.ckpt");
  std::filesystem::remove(path);
  {
    CheckpointWriter w(path, 0xabcdULL, 64, 16, 2);
    ASSERT_TRUE(w.ok());
    w.append(0, bytes({0, 1, 2}));
    w.append(2, bytes({0xff, 0x00, 0x7f}));
    w.flush();
  }
  const CheckpointLoad load = load_checkpoint(path);
  ASSERT_TRUE(load.found);
  EXPECT_EQ(load.spec_hash, 0xabcdULL);
  EXPECT_EQ(load.count, 64u);
  EXPECT_EQ(load.chunk, 16u);
  ASSERT_EQ(load.chunks.size(), 2u);
  EXPECT_EQ(load.chunks.at(0), bytes({0, 1, 2}));
  EXPECT_EQ(load.chunks.at(2), bytes({0xff, 0x00, 0x7f}));
}

TEST(Checkpoint, MissingFileLoadsAsNotFound) {
  const CheckpointLoad load = load_checkpoint(temp_file("never-written.ckpt"));
  EXPECT_FALSE(load.found);
  EXPECT_TRUE(load.chunks.empty());
}

TEST(Checkpoint, TornTailKeepsEverythingBeforeIt) {
  const std::string path = temp_file("torn.ckpt");
  std::filesystem::remove(path);
  {
    CheckpointWriter w(path, 0x1ULL, 32, 8, 0);
    w.append(0, bytes({1}));
    w.append(1, bytes({2}));
    w.flush();
  }
  // Simulate a crash mid-append: a record line cut off before its newline.
  {
    std::ofstream f(path, std::ios::app | std::ios::binary);
    f << "c 2 0a0b";  // no trailing newline, truncated payload
  }
  const CheckpointLoad load = load_checkpoint(path);
  ASSERT_TRUE(load.found);
  // The tail tore on a byte boundary, so it would still parse as hex; it
  // is dropped because it lacks its newline — keeping it would let the
  // next append glue onto it.
  ASSERT_EQ(load.chunks.size(), 2u);
  EXPECT_EQ(load.chunks.at(0), bytes({1}));
  EXPECT_EQ(load.chunks.at(1), bytes({2}));
}

TEST(Checkpoint, GarbageTailIsDropped) {
  const std::string path = temp_file("garbage.ckpt");
  std::filesystem::remove(path);
  {
    CheckpointWriter w(path, 0x1ULL, 32, 8, 0);
    w.append(0, bytes({1}));
    w.flush();
  }
  {
    std::ofstream f(path, std::ios::app | std::ios::binary);
    f << "c 1 0a0";  // odd hex digit count: malformed, must be dropped
  }
  const CheckpointLoad load = load_checkpoint(path);
  ASSERT_TRUE(load.found);
  EXPECT_EQ(load.chunks.size(), 1u);
  EXPECT_TRUE(load.chunks.count(0));
}

TEST(Checkpoint, OutOfGridChunkIndicesAreDropped) {
  const std::string path = temp_file("outofgrid.ckpt");
  std::filesystem::remove(path);
  {
    // count=32, chunk=8 -> 4 grid chunks; index 4 is off the grid.
    CheckpointWriter w(path, 0x1ULL, 32, 8, 0);
    w.append(3, bytes({1}));
    w.append(4, bytes({2}));
    w.flush();
  }
  const CheckpointLoad load = load_checkpoint(path);
  ASSERT_TRUE(load.found);
  EXPECT_EQ(load.chunks.size(), 1u);
  EXPECT_TRUE(load.chunks.count(3));
}

TEST(Checkpoint, RewriteHealsATornFileAndKeepsAppending) {
  const std::string path = temp_file("rewrite.ckpt");
  std::filesystem::remove(path);
  {
    CheckpointWriter w(path, 0x2ULL, 48, 8, 0);
    w.append(0, bytes({10}));
    w.append(1, bytes({11}));
    w.flush();
  }
  {
    std::ofstream f(path, std::ios::app | std::ios::binary);
    f << "c 2 brokenline\nc 3 0c\n";  // torn middle: chunk 3 is unreachable
  }
  const CheckpointLoad before = load_checkpoint(path);
  ASSERT_EQ(before.chunks.size(), 2u) << "loader stops at the broken line";

  // The resume path: reopen through the writer with the recovered chunks
  // (the file is cut after them), then append new ones — all must be
  // visible afterwards.
  {
    CheckpointWriter w(path, 0x2ULL, 48, 8, 0, before);
    ASSERT_TRUE(w.ok());
    w.append(4, bytes({14}));
    w.flush();
  }
  const CheckpointLoad after = load_checkpoint(path);
  ASSERT_TRUE(after.found);
  EXPECT_EQ(after.spec_hash, 0x2ULL);
  ASSERT_EQ(after.chunks.size(), 3u);
  EXPECT_EQ(after.chunks.at(0), bytes({10}));
  EXPECT_EQ(after.chunks.at(1), bytes({11}));
  EXPECT_EQ(after.chunks.at(4), bytes({14}));
}

TEST(Checkpoint, ChunksLongerThanAnyLineBufferRestore) {
  // CampaignRunControl::chunk_trials is the caller's choice, so a chunk
  // line can run to 80 000 hex digits.
  const std::string path = temp_file("long_chunks.ckpt");
  std::filesystem::remove(path);
  const std::vector<std::uint8_t> a(40000, 0x5a);
  const std::vector<std::uint8_t> b(40000, 0xa5);
  {
    CheckpointWriter w(path, 0x4ULL, 80000, 40000, 0);
    w.append(0, a);
    w.append(1, b);
  }
  const CheckpointLoad load = load_checkpoint(path, 1);
  ASSERT_TRUE(load.found);
  ASSERT_EQ(load.chunks.size(), 2u);
  EXPECT_EQ(load.chunks.at(0), a);
  EXPECT_EQ(load.chunks.at(1), b);
}

long fsyncs() {
  return obs::Registry::global().counter("checkpoint.fsyncs").value();
}

std::size_t chunk_lines(const std::string& path) {
  std::ifstream in(path);
  std::size_t n = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("c ", 0) == 0) ++n;
  }
  return n;
}

TEST(Checkpoint, AppendsReachTheFileBeforeAnyFsync) {
  const std::string path = temp_file("unsynced.ckpt");
  std::filesystem::remove(path);
  const long before = fsyncs();
  CheckpointWriter w(path, 0x5ULL, 80, 8, /*fsync_interval=*/8);
  for (std::size_t c = 0; c < 5; ++c) w.append(c, bytes({1, 2}));
  EXPECT_EQ(fsyncs(), before);
  // A process killed here keeps all five: they are in the OS already.
  EXPECT_EQ(chunk_lines(path), 5u);
}

TEST(Checkpoint, FreshWriterFsyncsOnlyAtClose) {
  const std::string path = temp_file("fsync_once.ckpt");
  std::filesystem::remove(path);
  const long before = fsyncs();
  {
    CheckpointWriter w(path, 0x6ULL, 80, 8, /*fsync_interval=*/8);
    EXPECT_EQ(fsyncs(), before) << "a header holds nothing to make durable";
    for (std::size_t c = 0; c < 3; ++c) w.append(c, bytes({3}));
  }
  EXPECT_EQ(fsyncs(), before + 1);
  EXPECT_EQ(chunk_lines(path), 3u);
}

TEST(Checkpoint, MismatchedHeaderSurfacesInTheLoad) {
  const std::string path = temp_file("mismatch.ckpt");
  std::filesystem::remove(path);
  {
    CheckpointWriter w(path, 0x3ULL, 100, 10, 0);
    w.append(0, bytes({1}));
    w.flush();
  }
  const CheckpointLoad load = load_checkpoint(path);
  ASSERT_TRUE(load.found);
  // The caller (the campaign's checkpointed grid) compares these against
  // its own campaign; the loader just reports what the file claims.
  EXPECT_EQ(load.spec_hash, 0x3ULL);
  EXPECT_EQ(load.count, 100u);
  EXPECT_EQ(load.chunk, 10u);
}

}  // namespace
}  // namespace flopsim::fault
