// Layer 3.3 — the content-addressed plan/campaign result cache.
//
// flopsim-serve's workload is the ROADMAP's millions-of-queries pattern:
// mostly *repeated* design points (the paper's Tables 1–2 sweeps hit the
// same (unit, precision, depth, objective, hardening, seed) tuples over
// and over). Evaluating one such point costs milliseconds to seconds;
// looking its finished response up costs microseconds. So every cacheable
// response is filed under the same FNV-1a spec-hash machinery the
// checkpoint sidecars use (fault::SpecHash over the request's resolved
// semantic fields — the evaluation backend and thread count are
// deliberately excluded, exactly as they are excluded from campaign spec
// hashes, because tallies are backend- and thread-invariant).
//
// Two tiers:
//
//  * In-memory LRU, bounded by entry count. Lookups bump recency;
//    inserts evict the least recently used entry once full. Hits,
//    misses, insertions, and evictions feed the obs:: registry
//    (serve.cache.*), which the /metrics endpoint surfaces.
//  * Optional on-disk tier: `shards` append-only files under a cache
//    directory, an entry's shard chosen by its key's top bits — so N
//    server instances can each own a disjoint slice of the same
//    directory, or one instance can be split later without rehashing.
//    Each shard is a fault::Journal, like the checkpoint sidecars: the
//    load reads every shard once and stops at its first malformed line;
//    a shard's first insert opens it, cuts what the load did not keep (a
//    torn tail, or a whole file with no valid header) and appends after
//    it, one fwrite + fflush per entry, fsync only at close. A crash can
//    only lose the final append, and never the ones made after it.
//    Memory eviction never touches disk — the disk tier is the durable
//    design-point library; the LRU bounds only RAM.
//
// Thread safety: one mutex around the map+list; the serve workers' unit
// of work (a whole evaluation) dwarfs the critical section.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "fault/journal.hpp"

namespace flopsim::obs {
class Registry;
class Counter;
class Gauge;
}  // namespace flopsim::obs

namespace flopsim::serve {

struct CacheConfig {
  /// In-memory entry cap; inserting past it evicts the LRU entry.
  std::size_t capacity = 4096;
  /// On-disk tier directory; empty = memory-only.
  std::string dir;
  /// Number of on-disk shard files (clamped to [1, 256], power of two
  /// not required). An entry lands in shard (key >> 56) % shards.
  int shards = 4;
};

class ResultCache {
 public:
  /// Registers the serve.cache.* counters in `reg` and, when cfg.dir is
  /// set, loads every shard file (newest entries win LRU recency).
  ResultCache(CacheConfig cfg, obs::Registry& reg);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Cached response body for `key`, bumping its recency. Counts one
  /// serve.cache.hit or serve.cache.miss.
  std::optional<std::string> lookup(std::uint64_t key);

  /// File a freshly computed response body. A key already present only
  /// refreshes recency (the body is content-addressed: same key, same
  /// bytes). New entries append to their disk shard when the disk tier
  /// is on.
  void insert(std::uint64_t key, const std::string& body);

  std::size_t size() const;
  std::size_t capacity() const { return cfg_.capacity; }

  /// Keys in most-recently-used-first order (tests pin eviction order).
  std::vector<std::uint64_t> keys_mru_first() const;

  /// Shard index for a key under this config.
  int shard_of(std::uint64_t key) const;
  /// `<dir>/cache-<shard>of<shards>.jsonl`.
  static std::string shard_path(const std::string& dir, int shard,
                                int shards);

 private:
  void load_disk_tier();
  /// `durable` false skips the shard append (used by the loader).
  void insert_locked(std::uint64_t key, const std::string& body,
                     bool durable);
  void append_shard(std::uint64_t key, const std::string& body);

  CacheConfig cfg_;
  mutable std::mutex m_;
  /// MRU at front. unordered_map points into the list.
  std::list<std::pair<std::uint64_t, std::string>> lru_;
  std::unordered_map<std::uint64_t, decltype(lru_)::iterator> index_;
  /// Per shard (disk tier only): the bytes its load kept, and its append
  /// handle, opened at the shard's first insert.
  std::vector<std::size_t> shard_kept_;
  std::vector<std::unique_ptr<fault::Journal>> shard_files_;

  // Looked up once in the ctor (obs::Registry references are stable for
  // the registry's lifetime); hot paths never take the registry mutex.
  obs::Counter* hits_;
  obs::Counter* misses_;
  obs::Counter* inserts_;
  obs::Counter* evictions_;
  obs::Counter* disk_loaded_;
  obs::Gauge* entries_;
};

}  // namespace flopsim::serve
