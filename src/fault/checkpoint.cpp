#include "fault/checkpoint.hpp"

#include <algorithm>
#include <bit>
#include <chrono>

#include "obs/metrics.hpp"

namespace flopsim::fault {

namespace {

constexpr char kHeaderTag[] = "flopsim-checkpoint v1";

obs::Histogram& write_latency_histogram() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "checkpoint.write_us",
      {10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0,
       10000.0});
  return h;
}

int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

std::size_t chunk_count(std::uint64_t count, std::uint64_t chunk) {
  return chunk == 0 ? 0 : count / chunk + (count % chunk != 0 ? 1 : 0);
}

std::string header_line(std::uint64_t spec_hash, std::size_t count,
                        std::size_t chunk) {
  return std::string(kHeaderTag) + " spec=" + hex16(spec_hash) +
         " count=" + std::to_string(count) + " chunk=" +
         std::to_string(chunk) + "\n";
}

/// The bytes of `resume` to keep for the campaign (spec_hash, count,
/// chunk): all it loaded when its header names that campaign, else none.
std::size_t kept_bytes(const CheckpointLoad& resume, std::uint64_t spec_hash,
                       std::size_t count, std::size_t chunk) {
  const bool same = resume.found && resume.spec_hash == spec_hash &&
                    resume.count == count && resume.chunk == chunk;
  return same ? resume.bytes : 0;
}

}  // namespace

SpecHash& SpecHash::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 0x100000001b3ull;  // FNV prime
  }
  return *this;
}

SpecHash& SpecHash::f64(double v) {
  return u64(std::bit_cast<std::uint64_t>(v));
}

SpecHash& SpecHash::str(std::string_view s) {
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ull;
  }
  // Length terminator: "ab"+"c" must not collide with "a"+"bc".
  return u64(s.size());
}

std::string checkpoint_path(const std::string& dir,
                            std::uint64_t spec_hash) {
  return dir + "/" + hex16(spec_hash) + ".ckpt";
}

CheckpointLoad load_checkpoint(const std::string& path,
                               std::size_t slot_bytes) {
  CheckpointLoad load;
  std::size_t nchunks = 0;
  // Header: "flopsim-checkpoint v1 spec=<hex> count=<n> chunk=<n>".
  const auto header = [&](std::string_view line) {
    std::uint64_t spec = 0, count = 0, chunk = 0;
    if (!take(line, kHeaderTag) || !take(line, " spec=") ||
        !take_hex16(line, &spec) || !take(line, " count=") ||
        !take_u64(line, &count) || !take(line, " chunk=") ||
        !take_u64(line, &chunk) || !line.empty() || chunk == 0) {
      return false;
    }
    load.found = true;
    load.spec_hash = spec;
    load.count = count;
    load.chunk = chunk;
    nchunks = chunk_count(count, chunk);
    return true;
  };
  // Chunk records: "c <index> <hex>". The record length is whatever the
  // writer appended (1 byte/trial for campaigns, a fixed struct for depth
  // sweeps); the caller names it as `slot_bytes`, else any is accepted.
  const auto record = [&](std::string_view line) {
    std::uint64_t index = 0;
    if (!take(line, "c ") || !take_u64(line, &index) || !take(line, " ") ||
        index >= nchunks || load.chunks.count(index) != 0 || line.empty() ||
        line.size() % 2 != 0) {
      return false;
    }
    std::vector<std::uint8_t> data(line.size() / 2);
    for (std::size_t i = 0; i < data.size(); ++i) {
      const int hi = hex_nibble(line[2 * i]);
      const int lo = hex_nibble(line[2 * i + 1]);
      if (hi < 0 || lo < 0) return false;
      data[i] = static_cast<std::uint8_t>((hi << 4) | lo);
    }
    const std::size_t trials =
        std::min(load.chunk, load.count - index * load.chunk);
    if (slot_bytes > 0 && (data.size() % slot_bytes != 0 ||
                           data.size() / slot_bytes != trials)) {
      return false;
    }
    load.chunks.emplace(index, std::move(data));
    return true;
  };
  load.bytes = Journal::read(path, header, record);
  return load;
}

CheckpointWriter::CheckpointWriter(std::string path, std::uint64_t spec_hash,
                                   std::size_t count, std::size_t chunk,
                                   long fsync_interval,
                                   const CheckpointLoad& resume)
    : journal_(std::move(path), kept_bytes(resume, spec_hash, count, chunk),
               header_line(spec_hash, count, chunk), fsync_interval,
               &obs::Registry::global().counter("checkpoint.fsyncs")),
      written_(chunk_count(count, chunk), 0) {
  if (kept_bytes(resume, spec_hash, count, chunk) == 0) return;
  for (const auto& [index, data] : resume.chunks) {
    if (index < written_.size()) written_[index] = 1;
  }
  while (next_ < written_.size() && written_[next_] != 0) ++next_;
}

void CheckpointWriter::append(std::size_t chunk_index,
                              std::span<const std::uint8_t> data) {
  if (!ok()) return;
  if (chunk_index != next_) {
    held_[chunk_index].assign(data.begin(), data.end());
    return;
  }
  write(chunk_index, data);
  // Write the held successors this chunk was waiting for.
  while (next_ < written_.size()) {
    if (written_[next_] != 0) {
      ++next_;
      continue;
    }
    const auto it = held_.find(next_);
    if (it == held_.end()) break;
    write(it->first, it->second);
    held_.erase(it);
  }
}

void CheckpointWriter::write(std::size_t chunk_index,
                             std::span<const std::uint8_t> data) {
  const auto t0 = std::chrono::steady_clock::now();
  std::string record = "c " + std::to_string(chunk_index) + " ";
  record.reserve(record.size() + 2 * data.size() + 1);
  static const char* kHex = "0123456789abcdef";
  for (const std::uint8_t b : data) {
    record += kHex[b >> 4];
    record += kHex[b & 0xf];
  }
  record += '\n';
  if (!journal_.append(record)) return;
  if (chunk_index < written_.size()) written_[chunk_index] = 1;
  if (chunk_index == next_) ++next_;
  obs::Registry& reg = obs::Registry::global();
  reg.counter("checkpoint.appends").inc();
  reg.counter("checkpoint.bytes").add(static_cast<long>(record.size()));
  write_latency_histogram().observe(
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

void CheckpointWriter::flush() {
  // A cancelled or finished grid: what is still held goes out in index
  // order, gaps and all (the gaps are the chunks a resume re-runs).
  for (const auto& [index, data] : held_) write(index, data);
  held_.clear();
  journal_.sync();
}

}  // namespace flopsim::fault
