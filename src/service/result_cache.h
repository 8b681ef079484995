// ResultCache: one byte-capped LRU, under one lock and one cap, over
// rendered bodies keyed "<store fingerprint>|<CanonicalCacheKey>" (a
// repeat is a byte copy) and mined pattern lists keyed
// "<store fingerprint>|<MiningSpecKey>" (every topk and format of a
// spec renders from one mine; lists are shared, never copied under the
// lock). A store change on disk changes its fingerprint
// (StoreRegistry), so stale entries never match again and age out.
// Execution knobs are in neither key: they never change the bytes.

#ifndef FLIPPER_SERVICE_RESULT_CACHE_H_
#define FLIPPER_SERVICE_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/pattern.h"

namespace flipper {
namespace service {

class ResultCache {
 public:
  struct CachedResult {
    std::string body;
    uint64_t num_patterns = 0;
  };

  /// A mining spec's full pattern list, in canonical order.
  using PatternList = std::shared_ptr<const std::vector<FlippingPattern>>;

  /// Hits and misses count body lookups (Get) only.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    uint64_t entries = 0;
    uint64_t bytes = 0;
  };

  /// `capacity_bytes` bounds the bytes of every cached body and pattern
  /// list together; 0 disables caching entirely (every lookup misses,
  /// every Put is a no-op).
  explicit ResultCache(size_t capacity_bytes)
      : capacity_bytes_(capacity_bytes) {}

  /// Returns the cached body and marks it most-recently-used.
  std::optional<CachedResult> Get(const std::string& key);

  /// Inserts (or refreshes) `result` under `key`, evicting
  /// least-recently-used entries until the cache fits. A body larger
  /// than the whole capacity is not cached.
  void Put(const std::string& key, CachedResult result);

  /// Returns the cached pattern list (null on a miss) and marks it
  /// most-recently-used.
  PatternList GetPatterns(const std::string& key);

  /// Put for a pattern list, sized by PatternBytes.
  void PutPatterns(const std::string& key, PatternList patterns);

  /// What a pattern list costs against the cap: the vector itself, and
  /// per pattern sizeof(FlippingPattern) plus its chain's capacity in
  /// LevelStats. The vector's own size keeps an empty list from being
  /// free.
  static size_t PatternBytes(const std::vector<FlippingPattern>& patterns);

  Stats stats() const;

 private:
  struct Entry {
    std::string key;
    CachedResult result;
    /// Set for a pattern-list entry; then `result` is empty.
    PatternList patterns;
    size_t bytes = 0;
  };

  void Insert(Entry entry);

  const size_t capacity_bytes_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  uint64_t bytes_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t insertions_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace service
}  // namespace flipper

#endif  // FLIPPER_SERVICE_RESULT_CACHE_H_
