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
// File format (a fault::Journal, so line-oriented, append-only and torn-
// tail tolerant, with the durability described there):
//
//   flopsim-checkpoint v1 spec=<16 hex> count=<trials> chunk=<size>
//   c <chunk-index> <hex verdict bytes>
//   ...
//
// A resumed campaign reopens its sidecar in place: the file is cut after
// the last line the load kept, so a torn tail never swallows the chunks
// appended after it. Chunk lines go out in grid order whatever order the
// workers finish in: the writer holds a finished chunk until every lower
// chunk has been written (or restored), and writes whatever it still
// holds, in index order, at flush and close. So an uninterrupted run's
// sidecar does not depend on the thread count, and a resumed one keeps
// its lines in the order they were appended. A held chunk is not written
// yet: a run killed with chunks held redoes them on resume. The obs
// registry records the append latency histogram and the fsync count.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fault/journal.hpp"

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
  std::string hex() const { return hex16(h_); }

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
  std::size_t bytes = 0;  ///< file prefix kept: header plus chunk lines
};

/// Read a sidecar. Missing file => found=false. The first malformed line
/// (the torn tail of a crashed append) ends the scan; chunks before it are
/// kept. A chunk line is malformed when its index is off the grid or
/// repeats, or, with `slot_bytes` > 0, when it does not hold exactly
/// `slot_bytes` per trial of its chunk.
CheckpointLoad load_checkpoint(const std::string& path,
                               std::size_t slot_bytes = 0);

/// Append-only sidecar writer, in grid order. Thread-compatible, not
/// thread-safe: the grid engine serializes on_chunk_done callbacks, which
/// is where appends happen. I/O errors warn once on stderr and latch
/// ok()==false; the campaign keeps running (losing the checkpoint must
/// never lose the run).
class CheckpointWriter {
 public:
  /// Open the sidecar at `path` for the campaign (spec_hash, count,
  /// chunk). `resume` is what load_checkpoint read from it: when its
  /// header names this campaign, the lines it kept stay, the rest is cut,
  /// and its chunks count as written; otherwise the file starts over with
  /// a fresh header. fsync_interval <= 0 syncs only at close.
  CheckpointWriter(std::string path, std::uint64_t spec_hash,
                   std::size_t count, std::size_t chunk, long fsync_interval,
                   const CheckpointLoad& resume = {});
  ~CheckpointWriter() { flush(); }
  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  bool ok() const { return journal_.ok(); }

  /// Hand over one finished chunk's encoded verdicts. It is written (and
  /// maybe fsync'd) once every lower chunk has been written; until then
  /// it is held.
  void append(std::size_t chunk_index, std::span<const std::uint8_t> data);

  /// Write every held chunk in index order, then fsync (also called by
  /// the destructor).
  void flush();

 private:
  void write(std::size_t chunk_index, std::span<const std::uint8_t> data);

  Journal journal_;
  std::size_t next_ = 0;       ///< lowest chunk not yet written
  std::vector<char> written_;  ///< per grid chunk
  std::map<std::size_t, std::vector<std::uint8_t>> held_;
};

}  // namespace flopsim::fault
