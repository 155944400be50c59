#include "fault/checkpoint.hpp"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>

#ifndef _WIN32
#include <unistd.h>  // fsync, fileno
#endif

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

std::string SpecHash::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

std::string checkpoint_path(const std::string& dir,
                            std::uint64_t spec_hash) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(spec_hash));
  return dir + "/" + buf + ".ckpt";
}

CheckpointLoad load_checkpoint(const std::string& path) {
  CheckpointLoad load;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return load;

  char line[1 << 16];
  // Header: "flopsim-checkpoint v1 spec=<hex> count=<n> chunk=<n>".
  if (std::fgets(line, sizeof line, f) == nullptr) {
    std::fclose(f);
    return load;
  }
  unsigned long long spec = 0, count = 0, chunk = 0;
  char tag[32] = {0}, version[8] = {0};
  if (std::sscanf(line, "%31s %7s spec=%llx count=%llu chunk=%llu", tag,
                  version, &spec, &count, &chunk) != 5 ||
      std::string(tag) + " " + version != kHeaderTag || chunk == 0) {
    std::fclose(f);
    return load;
  }
  load.found = true;
  load.spec_hash = spec;
  load.count = count;
  load.chunk = chunk;
  const std::size_t nchunks =
      count == 0 ? 0 : (count + chunk - 1) / chunk;

  // Chunk records: "c <index> <hex>". Stop at the first malformed line —
  // a crash mid-append tears at most the tail, and everything after a
  // tear is unaccounted for anyway. The record length is whatever the
  // writer appended (1 byte/trial for campaigns, a fixed struct for depth
  // sweeps); the caller's restore path validates it against its own
  // expected size, so the loader only insists on well-formed hex.
  while (std::fgets(line, sizeof line, f) != nullptr) {
    unsigned long long index = 0;
    int hex_at = -1;
    if (std::sscanf(line, "c %llu %n", &index, &hex_at) != 1 || hex_at < 0) {
      break;
    }
    if (index >= nchunks) break;
    std::vector<std::uint8_t> data;
    const char* p = line + hex_at;
    bool good = true;
    while (*p != '\n' && *p != '\0') {
      const int hi = hex_nibble(p[0]);
      const int lo = hi < 0 ? -1 : hex_nibble(p[1]);
      if (lo < 0) {
        good = false;
        break;
      }
      data.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
      p += 2;
    }
    if (!good || data.empty()) break;
    load.chunks[index] = std::move(data);
  }
  std::fclose(f);
  return load;
}

CheckpointWriter::CheckpointWriter(std::string path, std::uint64_t spec_hash,
                                   std::size_t count, std::size_t chunk,
                                   long fsync_interval, bool fresh)
    : path_(std::move(path)),
      fsync_interval_(fsync_interval),
      written_(chunk == 0 ? 0 : (count + chunk - 1) / chunk, 0) {
  std::error_code ec;  // best-effort; open failure is reported below
  const std::filesystem::path parent =
      std::filesystem::path(path_).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  file_ = std::fopen(path_.c_str(), fresh ? "w" : "a");
  if (file_ == nullptr) {
    std::fprintf(stderr,
                 "warning: checkpoint disabled: cannot open %s (%s)\n",
                 path_.c_str(), std::strerror(errno));
    return;
  }
  if (fresh) {
    if (std::fprintf(file_, "%s spec=%016llx count=%llu chunk=%llu\n",
                     kHeaderTag,
                     static_cast<unsigned long long>(spec_hash),
                     static_cast<unsigned long long>(count),
                     static_cast<unsigned long long>(chunk)) < 0) {
      fail("write header");
      return;
    }
    dirty_ = true;
    sync();  // a resumable file exists before any trial runs
  }
}

CheckpointWriter::~CheckpointWriter() {
  if (file_ != nullptr) {
    flush();
    std::fclose(file_);
  }
}

void CheckpointWriter::fail(const char* what) {
  std::fprintf(stderr, "warning: checkpoint disabled: %s failed for %s\n",
               what, path_.c_str());
  if (file_ != nullptr) std::fclose(file_);
  file_ = nullptr;
}

void CheckpointWriter::append(std::size_t chunk_index,
                              const std::vector<std::uint8_t>& data) {
  if (file_ == nullptr) return;
  if (chunk_index != next_) {
    held_[chunk_index] = data;
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
                             const std::vector<std::uint8_t>& data) {
  if (file_ == nullptr) return;
  const auto t0 = std::chrono::steady_clock::now();
  std::string record = "c " + std::to_string(chunk_index) + " ";
  record.reserve(record.size() + 2 * data.size() + 1);
  static const char* kHex = "0123456789abcdef";
  for (const std::uint8_t b : data) {
    record += kHex[b >> 4];
    record += kHex[b & 0xf];
  }
  record += '\n';
  if (std::fwrite(record.data(), 1, record.size(), file_) != record.size()) {
    fail("append");
    return;
  }
  if (chunk_index < written_.size()) written_[chunk_index] = 1;
  if (chunk_index == next_) ++next_;
  dirty_ = true;
  ++appends_since_sync_;
  if (fsync_interval_ > 0 && appends_since_sync_ >= fsync_interval_) {
    sync();
  }
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
  sync();
}

void CheckpointWriter::sync() {
  if (file_ == nullptr || !dirty_) return;
  if (std::fflush(file_) != 0) {
    fail("flush");
    return;
  }
#ifndef _WIN32
  if (fsync(fileno(file_)) != 0) {
    fail("fsync");
    return;
  }
#endif
  appends_since_sync_ = 0;
  dirty_ = false;
  obs::Registry::global().counter("checkpoint.fsyncs").inc();
}

std::unique_ptr<CheckpointWriter> rewrite_checkpoint(
    const std::string& path, std::uint64_t spec_hash, std::size_t count,
    std::size_t chunk, long fsync_interval,
    const std::map<std::size_t, std::vector<std::uint8_t>>& chunks) {
  const std::string tmp = path + ".tmp";
  auto writer = std::make_unique<CheckpointWriter>(
      tmp, spec_hash, count, chunk, fsync_interval, /*fresh=*/true);
  for (const auto& [index, data] : chunks) writer->append(index, data);
  writer->flush();
  if (writer->ok()) {
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
      // The open FILE* follows the inode, so appends keep landing in the
      // .tmp file — recoverable by hand, but resume won't find it.
      std::fprintf(stderr,
                   "warning: checkpoint rename %s -> %s failed (%s); "
                   "checkpoint continues under the .tmp name\n",
                   tmp.c_str(), path.c_str(), ec.message().c_str());
    }
  }
  return writer;
}

}  // namespace flopsim::fault
