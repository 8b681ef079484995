#include "service/result_cache.h"

namespace flipper {
namespace service {

std::optional<ResultCache::CachedResult> ResultCache::Get(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end() || it->second->patterns != nullptr) {
    ++misses_;
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  return it->second->result;
}

void ResultCache::Put(const std::string& key, CachedResult result) {
  const size_t bytes = result.body.size();
  Insert(Entry{key, std::move(result), nullptr, bytes});
}

ResultCache::PatternList ResultCache::GetPatterns(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end() || it->second->patterns == nullptr) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->patterns;
}

void ResultCache::PutPatterns(const std::string& key, PatternList patterns) {
  const size_t bytes = PatternBytes(*patterns);
  Insert(Entry{key, {}, std::move(patterns), bytes});
}

size_t ResultCache::PatternBytes(
    const std::vector<FlippingPattern>& patterns) {
  size_t bytes = sizeof(patterns);
  for (const FlippingPattern& p : patterns) {
    bytes += sizeof(FlippingPattern) + p.chain.capacity() * sizeof(LevelStat);
  }
  return bytes;
}

void ResultCache::Insert(Entry entry) {
  if (capacity_bytes_ == 0 || entry.bytes > capacity_bytes_) return;
  std::lock_guard<std::mutex> lock(mu_);
  const size_t bytes = entry.bytes;
  auto it = index_.find(entry.key);
  if (it != index_.end()) {
    bytes_ -= it->second->bytes;
    *it->second = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    const std::string key = entry.key;
    lru_.push_front(std::move(entry));
    index_[key] = lru_.begin();
    ++insertions_;
  }
  bytes_ += bytes;
  while (bytes_ > capacity_bytes_ && !lru_.empty()) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++evictions_;
  }
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.insertions = insertions_;
  stats.evictions = evictions_;
  stats.entries = lru_.size();
  stats.bytes = bytes_;
  return stats;
}

}  // namespace service
}  // namespace flipper
