#include "serve/cache.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string_view>

#include "obs/metrics.hpp"

namespace flopsim::serve {

namespace {

constexpr char kShardHeader[] = "flopsim-cache v1";

}  // namespace

ResultCache::ResultCache(CacheConfig cfg, obs::Registry& reg)
    : cfg_(std::move(cfg)) {
  cfg_.capacity = std::max<std::size_t>(1, cfg_.capacity);
  cfg_.shards = std::clamp(cfg_.shards, 1, 256);
  hits_ = &reg.counter("serve.cache.hit");
  misses_ = &reg.counter("serve.cache.miss");
  inserts_ = &reg.counter("serve.cache.insert");
  evictions_ = &reg.counter("serve.cache.eviction");
  disk_loaded_ = &reg.counter("serve.cache.disk_loaded");
  entries_ = &reg.gauge("serve.cache.entries");
  if (!cfg_.dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(cfg_.dir, ec);
    if (ec) {
      std::fprintf(stderr,
                   "warning: serve cache: could not create %s (%s); "
                   "running memory-only\n",
                   cfg_.dir.c_str(), ec.message().c_str());
      cfg_.dir.clear();
    } else {
      load_disk_tier();
    }
  }
}

std::optional<std::string> ResultCache::lookup(std::uint64_t key) {
  std::lock_guard<std::mutex> lock(m_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    misses_->inc();
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // bump to MRU
  hits_->inc();
  return it->second->second;
}

void ResultCache::insert(std::uint64_t key, const std::string& body) {
  std::lock_guard<std::mutex> lock(m_);
  insert_locked(key, body, /*durable=*/true);
}

void ResultCache::insert_locked(std::uint64_t key, const std::string& body,
                                bool durable) {
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Content-addressed: same key means same bytes; just refresh recency.
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= cfg_.capacity) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    evictions_->inc();
  }
  lru_.emplace_front(key, body);
  index_.emplace(key, lru_.begin());
  inserts_->inc();
  entries_->set(static_cast<double>(lru_.size()));
  if (durable && !cfg_.dir.empty()) append_shard(key, body);
}

std::size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(m_);
  return lru_.size();
}

std::vector<std::uint64_t> ResultCache::keys_mru_first() const {
  std::lock_guard<std::mutex> lock(m_);
  std::vector<std::uint64_t> keys;
  keys.reserve(lru_.size());
  for (const auto& [key, body] : lru_) keys.push_back(key);
  return keys;
}

int ResultCache::shard_of(std::uint64_t key) const {
  return static_cast<int>((key >> 56) % static_cast<std::uint64_t>(
                                            cfg_.shards));
}

std::string ResultCache::shard_path(const std::string& dir, int shard,
                                    int shards) {
  return dir + "/cache-" + std::to_string(shard) + "of" +
         std::to_string(shards) + ".jsonl";
}

// Shard line format (one entry per line, append-only):
//   flopsim-cache v1 shard=<i> of=<n>
//   e <16 hex key> <body byte count> <body>
// The byte count makes a torn tail detectable even where the tear leaves
// a '\n' behind: a line whose body disagrees with it ends the load.
void ResultCache::load_disk_tier() {
  std::lock_guard<std::mutex> lock(m_);
  std::size_t loaded = 0;
  shard_kept_.assign(static_cast<std::size_t>(cfg_.shards), 0);
  shard_files_.resize(shard_kept_.size());
  for (std::size_t s = 0; s < shard_kept_.size(); ++s) {
    const std::string path =
        shard_path(cfg_.dir, static_cast<int>(s), cfg_.shards);
    shard_kept_[s] = fault::Journal::read(
        path,
        [](std::string_view line) { return line.starts_with(kShardHeader); },
        [&](std::string_view line) {
          std::uint64_t key = 0;
          std::uint64_t len = 0;
          if (!fault::take(line, "e ") || !fault::take_hex16(line, &key) ||
              !fault::take(line, " ") || !fault::take_u64(line, &len) ||
              !fault::take(line, " ") || line.size() != len) {
            return false;
          }
          insert_locked(key, std::string(line), /*durable=*/false);
          ++loaded;
          return true;
        });
    std::error_code ec;
    if (shard_kept_[s] == 0 && std::filesystem::file_size(path, ec) > 0 &&
        !ec) {
      std::fprintf(stderr,
                   "warning: serve cache: shard %zu has no valid header; "
                   "its next insert replaces the file\n",
                   s);
    }
  }
  disk_loaded_->add(static_cast<long>(loaded));
}

void ResultCache::append_shard(std::uint64_t key, const std::string& body) {
  const int shard = shard_of(key);
  const auto s = static_cast<std::size_t>(shard);
  if (shard_files_[s] == nullptr) {
    shard_files_[s] = std::make_unique<fault::Journal>(
        shard_path(cfg_.dir, shard, cfg_.shards), shard_kept_[s],
        std::string(kShardHeader) + " shard=" + std::to_string(shard) +
            " of=" + std::to_string(cfg_.shards) + "\n",
        /*fsync_interval=*/0);
  }
  shard_files_[s]->append("e " + fault::hex16(key) + " " +
                          std::to_string(body.size()) + " " + body + "\n");
}

}  // namespace flopsim::serve
