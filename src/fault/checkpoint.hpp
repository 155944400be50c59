// Crash-safe campaign checkpoints.
//
// A Monte-Carlo campaign's unit of recoverable work is one grid chunk of
// trials (exec::parallel_for_grid): chunk boundaries are a pure function
// of (trial count, chunk size), every trial verdict lands in its own
// pre-sized slot, and the final tallies are an ordered fold over those
// slots. So a checkpoint is simply the set of finished chunks with their
// encoded verdict slots, appended to a sidecar file as each chunk
// completes. On resume the stored chunks are decoded back into their
// slots and skipped; the remaining chunks re-run on the same grid; the
// ordered reduction replays — bit-identical to an uninterrupted run at
// any thread count.
//
// The sidecar is keyed by a content hash of the campaign description
// (unit kind, precision, depth, hardening, seeds, trial count, chunk
// size — whatever the caller folds into SpecHash). A resume against a
// file whose key disagrees is refused: silently mixing two campaigns'
// tallies is the one corruption this layer exists to prevent.
//
// File format (line-oriented text, append-only, torn-tail tolerant):
//
//   flopsim-checkpoint v1 spec=<16 hex> count=<trials> chunk=<size>
//   c <chunk-index> <hex verdict bytes>
//   ...
//
// A crash can only tear the final line; the loader stops at the first
// malformed line and keeps everything before it. Appends are fsync'd
// every `fsync_interval` chunks (and at close), trading durability
// window against write latency — the obs registry records both the
// append latency histogram and the fsync count.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace flopsim::fault {

/// FNV-1a 64-bit accumulator for content-addressing campaign specs. Field
/// order matters: hash the same fields in the same order to get the same
/// key on every platform.
class SpecHash {
 public:
  SpecHash& u64(std::uint64_t v);
  SpecHash& i64(long long v) { return u64(static_cast<std::uint64_t>(v)); }
  SpecHash& f64(double v);
  SpecHash& str(std::string_view s);

  std::uint64_t value() const { return h_; }
  /// 16 lowercase hex digits — the sidecar key and filename stem.
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;  // FNV offset basis
};

/// Sidecar path for a spec hash under a checkpoint directory.
std::string checkpoint_path(const std::string& dir, std::uint64_t spec_hash);

/// Parsed sidecar contents.
struct CheckpointLoad {
  bool found = false;  ///< file existed and had a well-formed header
  std::uint64_t spec_hash = 0;
  std::size_t count = 0;  ///< trial count the grid was built over
  std::size_t chunk = 0;  ///< grid chunk size
  std::map<std::size_t, std::vector<std::uint8_t>> chunks;
};

/// Read a sidecar. Missing file => found=false. A malformed line (the
/// torn tail of a crashed append) ends the scan; chunks before it are
/// kept. Chunk indices at or beyond the grid are dropped.
CheckpointLoad load_checkpoint(const std::string& path);

/// Append-only sidecar writer. Thread-compatible, not thread-safe: the
/// grid engine serializes on_chunk_done callbacks, which is where appends
/// happen. I/O errors warn once on stderr and latch ok()==false; the
/// campaign keeps running (losing the checkpoint must never lose the run).
class CheckpointWriter {
 public:
  /// Open `path` for appending. When `fresh`, truncate and write a new
  /// header; otherwise the file is expected to carry a valid header
  /// already (the resume path). fsync_interval <= 0 syncs only at close.
  CheckpointWriter(std::string path, std::uint64_t spec_hash,
                   std::size_t count, std::size_t chunk, long fsync_interval,
                   bool fresh);
  ~CheckpointWriter();
  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  bool ok() const { return file_ != nullptr; }

  /// Append one finished chunk's encoded verdicts and maybe fsync.
  void append(std::size_t chunk_index, const std::vector<std::uint8_t>& data);

  /// fflush + fsync now (also called by the destructor).
  void flush();

 private:
  void fail(const char* what);

  std::string path_;
  std::FILE* file_ = nullptr;
  long fsync_interval_;
  long appends_since_sync_ = 0;
  bool dirty_ = false;
};

/// Atomically (re)write the sidecar at `path`: a fresh header plus
/// `chunks` go to `path + ".tmp"`, which is fsync'd and renamed over
/// `path`; the returned writer keeps appending to the renamed file. This
/// is how campaigns open their sidecar — a fresh run passes no chunks, a
/// resume passes the restored ones — so a crash during the rewrite leaves
/// the previous sidecar intact, and a pre-existing torn tail (which the
/// loader stops at) can never swallow appends made after it.
std::unique_ptr<CheckpointWriter> rewrite_checkpoint(
    const std::string& path, std::uint64_t spec_hash, std::size_t count,
    std::size_t chunk, long fsync_interval,
    const std::map<std::size_t, std::vector<std::uint8_t>>& chunks);

}  // namespace flopsim::fault
