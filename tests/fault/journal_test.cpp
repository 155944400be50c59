// Seeded mutation tests for the one line journal behind checkpoint
// sidecars and cache shards. A small sidecar and a small shard are
// written, then cut at every byte offset, hit by seeded single-bit flips,
// and spliced (a range dropped, a range of the file copied in). Each
// mutated file must load without throwing; every record that lies wholly
// before the first damaged byte must load, unchanged and in order (a cut
// file — the crash model — loads exactly those); and reopening it,
// appending one record and reloading must give what loaded plus the new
// record. Past the first damaged byte nothing more is asserted: a flip
// can turn one valid record into another, which no checksum-free line
// format can see.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "fault/checkpoint.hpp"
#include "fault/journal.hpp"
#include "obs/metrics.hpp"
#include "serve/cache.hpp"

namespace flopsim::fault {
namespace {

std::string temp_path(const std::string& stem) {
  return (std::filesystem::path(::testing::TempDir()) / stem).string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// One mutated copy of a journal file and the length of its leading run
/// of bytes unchanged from the original.
struct Mutant {
  std::string what;
  std::string bytes;
  std::size_t intact = 0;
  bool cut = false;  ///< a pure truncation
};

std::vector<Mutant> mutants(const std::string& w, std::uint64_t seed) {
  std::vector<Mutant> out;
  for (std::size_t n = 0; n < w.size(); ++n) {
    out.push_back({"cut at " + std::to_string(n), w.substr(0, n), n, true});
  }
  std::mt19937_64 rng(seed);
  for (int i = 0; i < 128; ++i) {
    const std::size_t at = rng() % w.size();
    const int bit = static_cast<int>(rng() % 8);
    std::string m = w;
    m[at] = static_cast<char>(m[at] ^ (1 << bit));
    out.push_back({"flip bit " + std::to_string(bit) + " of byte " +
                       std::to_string(at),
                   m, at, false});
  }
  for (int i = 0; i < 64; ++i) {
    const std::size_t a = rng() % (w.size() + 1);
    const std::size_t b = a + rng() % (w.size() - a + 1);
    const std::size_t c = rng() % (w.size() + 1);
    const std::size_t d = c + rng() % (w.size() - c + 1);
    const std::string m = w.substr(0, a) + w.substr(c, d - c) + w.substr(b);
    std::size_t intact = 0;
    while (intact < m.size() && intact < w.size() && m[intact] == w[intact]) {
      ++intact;
    }
    std::ostringstream what;
    what << "splice [" << a << "," << b << ") <- [" << c << "," << d << ")";
    out.push_back({what.str(), m, intact, false});
  }
  return out;
}

/// End offsets of the lines of `w`: the header's first, then each
/// record's.
std::vector<std::size_t> line_ends(const std::string& w) {
  std::vector<std::size_t> ends;
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (w[i] == '\n') ends.push_back(i + 1);
  }
  return ends;
}

/// Records lying wholly inside the first `intact` bytes; -1 when the
/// header itself is damaged.
long intact_records(const std::vector<std::size_t>& ends,
                    std::size_t intact) {
  if (ends.empty() || ends[0] > intact) return -1;
  long n = 0;
  for (std::size_t i = 1; i < ends.size() && ends[i] <= intact; ++i) ++n;
  return n;
}

/// Runs `check` on every mutant and reports the first few violations.
void expect_no_violations(
    const std::vector<Mutant>& cases,
    const std::function<std::string(const Mutant&)>& check) {
  long violations = 0;
  std::string first;
  for (const Mutant& m : cases) {
    std::string why;
    try {
      why = check(m);
    } catch (const std::exception& e) {
      why = std::string("threw: ") + e.what();
    }
    if (why.empty()) continue;
    if (++violations <= 5) first += m.what + ": " + why + "\n";
  }
  EXPECT_EQ(violations, 0) << "of " << cases.size() << " cases\n" << first;
}

TEST(JournalMutation, SidecarLoadsItsIntactPrefixAndTakesAppends) {
  constexpr std::uint64_t kSpec = 0x5eedf00dcafe0001ull;
  constexpr std::size_t kCount = 32;  // eight chunks; five are written
  constexpr std::size_t kChunk = 4;
  const std::string path = temp_path("journal_mutation.ckpt");
  std::vector<std::vector<std::uint8_t>> written;
  {
    std::filesystem::remove(path);
    CheckpointWriter w(path, kSpec, kCount, kChunk, 0);
    for (std::size_t c = 0; c < 5; ++c) {
      std::vector<std::uint8_t> data;
      for (std::size_t i = 0; i < kChunk; ++i) {
        data.push_back(static_cast<std::uint8_t>(0x11 * c + 7 * i + 3));
      }
      w.append(c, data);
      written.push_back(data);
    }
  }
  const std::string w = read_file(path);
  const std::vector<std::size_t> ends = line_ends(w);
  ASSERT_EQ(ends.size(), 6u);
  const std::string header = w.substr(0, ends[0]);

  const auto check = [&](const Mutant& m) -> std::string {
    write_file(path, m.bytes);
    const CheckpointLoad load = load_checkpoint(path, 1);
    const long n = intact_records(ends, m.intact);
    if (n >= 0) {
      if (!load.found || load.spec_hash != kSpec || load.count != kCount ||
          load.chunk != kChunk) {
        return "intact header did not load";
      }
      for (long i = 0; i < n; ++i) {
        const auto it = load.chunks.find(static_cast<std::size_t>(i));
        if (it == load.chunks.end() ||
            it->second != written[static_cast<std::size_t>(i)]) {
          return "intact chunk " + std::to_string(i) + " did not load";
        }
      }
      if (m.cut && load.chunks.size() != static_cast<std::size_t>(n)) {
        return "a cut file loaded more than its whole lines";
      }
    }

    // Reopen, append the lowest chunk not kept, reload.
    const bool same = load.found && load.spec_hash == kSpec &&
                      load.count == kCount && load.chunk == kChunk;
    std::map<std::size_t, std::vector<std::uint8_t>> expect;
    if (same) expect = load.chunks;
    std::size_t next = 0;
    while (expect.count(next) != 0) ++next;
    if (next >= kCount / kChunk) return "no chunk left to append";
    const std::vector<std::uint8_t> extra = {0xde, 0xad, 0xbe, 0xef};
    {
      CheckpointWriter w2(path, kSpec, kCount, kChunk, 0, load);
      w2.append(next, extra);
    }
    expect[next] = extra;
    const std::string line = "c " + std::to_string(next) + " deadbeef\n";
    const std::string kept = same ? m.bytes.substr(0, load.bytes) : header;
    if (read_file(path) != kept + line) return "reopened file bytes differ";
    const CheckpointLoad again = load_checkpoint(path, 1);
    if (again.chunks != expect) return "reload is not the load plus one";
    return "";
  };
  expect_no_violations(mutants(w, 0x6a6f75726e616cull), check);
  std::filesystem::remove(path);
}

TEST(JournalMutation, ShardLoadsItsIntactPrefixAndTakesInserts) {
  const std::string dir = temp_path("journal_mutation_shard");
  std::filesystem::remove_all(dir);
  const std::string path = serve::ResultCache::shard_path(dir, 0, 1);
  const serve::CacheConfig cfg{.capacity = 64, .dir = dir, .shards = 1};
  const std::vector<std::pair<std::uint64_t, std::string>> written = {
      {0x0123456789abcdefull, R"({"id": 1, "tallies": [1, 2, 3]})"},
      {0xfedcba9876543210ull, "body with spaces"},
      {0x00000000000000a5ull, R"({"x": "e 1 2 3"})"},
  };
  {
    obs::Registry reg;
    serve::ResultCache cache(cfg, reg);
    for (const auto& [key, body] : written) cache.insert(key, body);
  }
  const std::string w = read_file(path);
  const std::vector<std::size_t> ends = line_ends(w);
  ASSERT_EQ(ends.size(), 4u);

  const auto check = [&](const Mutant& m) -> std::string {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    write_file(path, m.bytes);
    std::vector<std::uint64_t> keys;
    std::map<std::uint64_t, std::string> bodies;
    {
      obs::Registry reg;
      serve::ResultCache cache(cfg, reg);
      keys = cache.keys_mru_first();
      for (const std::uint64_t key : keys) bodies[key] = *cache.lookup(key);
      const long n = intact_records(ends, m.intact);
      for (long i = 0; i < n; ++i) {
        const auto& [key, body] = written[static_cast<std::size_t>(i)];
        if (bodies.count(key) == 0 || bodies[key] != body) {
          return "intact entry " + std::to_string(i) + " did not load";
        }
      }
      if (m.cut && n >= 0 && keys.size() != static_cast<std::size_t>(n)) {
        return "a cut file loaded more than its whole lines";
      }
      // Reopen: the first insert cuts the shard and appends after it.
      cache.insert(0x77, "new entry");
    }
    obs::Registry reg;
    serve::ResultCache again(cfg, reg);
    std::vector<std::uint64_t> expect = {0x77};
    expect.insert(expect.end(), keys.begin(), keys.end());
    if (again.keys_mru_first() != expect) return "reload keys differ";
    if (again.lookup(0x77) != "new entry") return "new entry lost";
    for (const auto& [key, body] : bodies) {
      if (again.lookup(key) != body) return "reload bodies differ";
    }
    return "";
  };
  expect_no_violations(mutants(w, 0x7368617264ull), check);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace flopsim::fault
