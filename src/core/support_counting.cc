#include "core/support_counting.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <memory>
#include <string>
#include <utility>

#include "common/trace.h"
#include "core/candidate_trie.h"

namespace flipper {
namespace {

constexpr size_t kMinTxnsPerShard = 512;

/// Transactions between cancellation polls in the scan loop. Coarse
/// enough that an un-fired token costs one predictable branch per
/// item, fine enough that a fired token stops a shard within
/// microseconds.
constexpr size_t kCancelCheckStride = 512;

/// Rank-table entry of an id that is not a batch item.
constexpr uint32_t kUnranked = std::numeric_limits<uint32_t>::max();

/// Most distinct items of a dense batch. For 2 <= k <= n - 2,
/// C(n, k) >= C(n, 2), so a dense batch has C(n, 2) within the bound
/// or n <= k + 1 <= kMaxItemsetSize + 1.
constexpr uint32_t kDenseMaxItems = [] {
  uint32_t n = 0;
  while (SaturatingBinomial(n + 1, 2) <= kDenseMaxCombinations) ++n;
  return n;
}();
static_assert(kDenseMaxItems > kMaxItemsetSize + 1);

/// kColex[d][r] = C(r, d) over every rank a dense batch can assign
/// (saturated at UINT32_MAX; a dense index only reads entries below
/// kDenseMaxCombinations).
constexpr auto kColex = [] {
  std::array<std::array<uint32_t, kDenseMaxItems>, kMaxItemsetSize + 1>
      table{};
  for (int d = 0; d <= kMaxItemsetSize; ++d) {
    for (uint32_t r = 0; r < kDenseMaxItems; ++r) {
      table[d][r] = static_cast<uint32_t>(std::min<uint64_t>(
          SaturatingBinomial(r, d), std::numeric_limits<uint32_t>::max()));
    }
  }
  return table;
}();

bool UniformArity(std::span<const Itemset> candidates) {
  return std::all_of(candidates.begin(), candidates.end(),
                     [&](const Itemset& c) {
                       return c.size() == candidates.front().size();
                     });
}

/// Ranks the batch's distinct items by ascending id: `rank` is sized
/// to the largest item + 1 and holds each item's rank, kUnranked for
/// every other id. Returns the number of distinct items.
uint32_t RankBatchItems(std::span<const Itemset> candidates,
                        std::vector<uint32_t>* rank) {
  ItemId max_item = 0;
  for (const Itemset& c : candidates) {
    for (ItemId item : c) max_item = std::max(max_item, item);
  }
  rank->assign(static_cast<size_t>(max_item) + 1, kUnranked);
  for (const Itemset& c : candidates) {
    for (ItemId item : c) (*rank)[item] = 0;
  }
  uint32_t n = 0;
  for (uint32_t& r : *rank) {
    if (r != kUnranked) r = n++;
  }
  return n;
}

/// The same for a sorted, duplicate-free item list: items[r] has rank r.
void RankBatchItems(std::span<const ItemId> items,
                    std::vector<uint32_t>* rank) {
  rank->assign(items.empty() ? 0 : static_cast<size_t>(items.back()) + 1,
               kUnranked);
  for (uint32_t r = 0; r < items.size(); ++r) (*rank)[items[r]] = r;
}

/// The per-transaction filter of every ranked scan: writes the ranks
/// of `txn`'s batch items to `ranks`, ascending, and returns how many
/// there are.
inline uint32_t RankTransaction(std::span<const ItemId> txn,
                                const uint32_t* rank, size_t rank_size,
                                uint32_t* ranks) {
  uint32_t m = 0;
  for (ItemId item : txn) {
    // Sorted: every later item is above the largest batch item.
    if (item >= rank_size) break;
    if (rank[item] != kUnranked) ranks[m++] = rank[item];
  }
  return m;
}

/// Colex index of a dense-batch candidate: Σ_d C(rank(item_d), d + 1)
/// over its items in ascending order.
uint32_t ColexIndex(const Itemset& candidate,
                    const std::vector<uint32_t>& rank) {
  uint32_t index = 0;
  for (int d = 0; d < candidate.size(); ++d) {
    index += kColex[d + 1][rank[candidate[d]]];
  }
  return index;
}

/// Increments, offset by `base`, the colex index of every
/// d-combination (d >= 2) of the ascending ranks[0, m).
void AddCombinations(const uint32_t* ranks, uint32_t m, int d,
                     uint32_t base, uint32_t* counts) {
  if (d == 2) {
    for (uint32_t j = 1; j < m; ++j) {
      uint32_t* row = counts + base + kColex[2][ranks[j]];
      for (uint32_t i = 0; i < j; ++i) ++row[ranks[i]];
    }
    return;
  }
  for (uint32_t j = static_cast<uint32_t>(d) - 1; j < m; ++j) {
    AddCombinations(ranks, j, d - 1, base + kColex[d][ranks[j]], counts);
  }
}

/// Feeds transactions [lo, hi) of `db` to `count_txn`, polling
/// `cancel` every kCancelCheckStride transactions; a fired token
/// abandons the range (partial counts — the driver re-checks the token
/// before ever evaluating supports).
template <typename CountTxn>
void ScanRange(const TransactionDb& db, size_t lo, size_t hi,
               const CancelToken* cancel, const CountTxn& count_txn) {
  size_t until_check = kCancelCheckStride;
  for (size_t t = lo; t < hi; ++t) {
    if (cancel != nullptr && --until_check == 0) {
      until_check = kCancelCheckStride;
      if (cancel->Fired()) return;
    }
    count_txn(db.Get(static_cast<TxnId>(t)));
  }
}

/// Moves the scratch out of `pooled` into state the shard tasks share,
/// with a buffer of at least `slots` counters per shard. This and the
/// join that hands it back (RunShards) run on the calling thread, so
/// the pooling needs no synchronization.
std::shared_ptr<CountBatchScratch> TakeScratch(CountBatchScratch* pooled,
                                               int num_shards,
                                               size_t slots) {
  auto state = std::make_shared<CountBatchScratch>(std::move(*pooled));
  if (state->partial.size() < static_cast<size_t>(num_shards)) {
    state->partial.resize(static_cast<size_t>(num_shards));
  }
  for (int s = 0; s < num_shards; ++s) {
    auto& buffer = state->partial[static_cast<size_t>(s)];
    if (buffer.size() < slots) buffer.resize(slots);
  }
  return state;
}

/// The shard machinery every batch kind shares: runs
/// `count_shard(state, s, lo, hi)` for `num_shards` contiguous
/// transaction ranges of `db` — as one pool batch, leaving the caller
/// free until it joins, or inline before this returns without a pool.
/// The join runs `merge(state)` on the joining thread and hands the
/// scratch back to `pooled`, which must outlive the join and must not
/// back two scans in flight.
template <typename CountShard, typename Merge>
CountFuture RunShards(const TransactionDb& db, ThreadPool* pool,
                      int num_shards,
                      std::shared_ptr<CountBatchScratch> state,
                      CountBatchScratch* pooled, CountShard count_shard,
                      Merge merge) {
  std::vector<std::function<void()>> tasks;
  tasks.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    const auto [lo, hi] = ShardRange(0, db.size(), num_shards, s);
    tasks.push_back([state, count_shard, s, lo = lo, hi = hi] {
      count_shard(*state, s, lo, hi);
    });
  }
  ThreadPool::Completion completion;
  if (pool != nullptr) {
    completion = pool->SubmitBatch(std::move(tasks));
  } else {
    for (const auto& task : tasks) task();
  }
  return CountFuture(std::move(completion), [state, pooled, merge] {
    Status status = merge(*state);
    *pooled = std::move(*state);
    return status;
  });
}

/// A sharded scan of `db` for a non-empty uniform-arity candidate
/// batch in the given counter layout. A dense `layout` needs
/// `pooled->rank` filled by RankBatchItems, which ranked `n` distinct
/// items. Each shard counts a contiguous transaction range into a
/// private buffer; the join sums the buffers into `supports` in shard
/// order, so supports are bit-identical for any shard count.
/// `candidates` and `supports` must outlive the join. `h` only labels
/// spans.
CountFuture StartScan(const TransactionDb& db,
                      std::span<const Itemset> candidates,
                      CountLayout layout, uint32_t n, ThreadPool* pool,
                      int max_shards, std::span<uint32_t> supports,
                      CountBatchScratch* pooled, const CancelToken* cancel,
                      int h) {
  const int arity = candidates.front().size();
  const bool dense = layout == CountLayout::kDense;
  // Shard buffer: `cells` counters, then (dense) the rank list of the
  // transaction being counted.
  size_t cells = candidates.size();
  size_t slots = cells;
  if (dense) {
    cells = SaturatingBinomial(n, arity);
    slots = cells + std::min<size_t>(n, db.max_width());
  }
  const int num_shards =
      ShardCount(db.size(), max_shards, kMinTxnsPerShard);
  auto state = TakeScratch(pooled, num_shards, slots);
  if (!dense) {
    FLIPPER_TRACE_SPAN_HK("trie_build", "detail", h, arity);
    state->trie.Build(candidates);
  }
  return RunShards(
      db, pool, num_shards, std::move(state), pooled,
      [&db, cells, dense, cancel, h, arity](CountBatchScratch& state,
                                            int s, size_t lo, size_t hi) {
        FLIPPER_TRACE_SPAN_HK("count_shard", "task", h, arity);
        uint32_t* counts = state.partial[static_cast<size_t>(s)].data();
        std::fill_n(counts, cells, 0u);
        if (!dense) {
          const std::span<uint32_t> trie_counts(counts, cells);
          ScanRange(db, lo, hi, cancel, [&](std::span<const ItemId> txn) {
            state.trie.CountTransaction(txn, trie_counts);
          });
          return;
        }
        const uint32_t* rank = state.rank.data();
        const size_t rank_size = state.rank.size();
        uint32_t* ranks = counts + cells;
        ScanRange(db, lo, hi, cancel, [&](std::span<const ItemId> txn) {
          const uint32_t m = RankTransaction(txn, rank, rank_size, ranks);
          if (m >= static_cast<uint32_t>(arity)) {
            AddCombinations(ranks, m, arity, 0, counts);
          }
        });
      },
      [candidates, supports, num_shards, dense, h,
       arity](CountBatchScratch& state) {
        FLIPPER_TRACE_SPAN_HK("shard_merge", "detail", h, arity);
        if (dense) {
          for (size_t i = 0; i < supports.size(); ++i) {
            const uint32_t index = ColexIndex(candidates[i], state.rank);
            uint32_t sum = 0;
            for (int s = 0; s < num_shards; ++s) {
              sum += state.partial[static_cast<size_t>(s)][index];
            }
            supports[i] = sum;
          }
        } else {
          std::fill(supports.begin(), supports.end(), 0u);
          for (int s = 0; s < num_shards; ++s) {
            const auto& counts = state.partial[static_cast<size_t>(s)];
            for (size_t i = 0; i < supports.size(); ++i) {
              supports[i] += counts[i];
            }
          }
        }
        return Status::OK();
      });
}

/// A sharded scan of `db` counting every occurring k-combination of
/// the items ranked in `pooled`, into one hash table per shard keyed
/// by ranks. A shard whose table passes `max_combinations` stops every
/// shard: its count already lower-bounds the merged one. The join
/// merges the tables in shard order, re-checking the cap, and emits
/// the combinations, mapped back to items, in ascending order.
CountFuture StartOccurringScan(const TransactionDb& db, int k,
                               size_t max_combinations, ThreadPool* pool,
                               int max_shards,
                               std::vector<Itemset>* itemsets,
                               std::vector<uint32_t>* supports,
                               CountBatchScratch* pooled,
                               const CancelToken* cancel, int h) {
  const int num_shards =
      ShardCount(db.size(), max_shards, kMinTxnsPerShard);
  // Shard buffer: the rank list of the transaction being counted.
  const size_t slots = std::min<size_t>(pooled->items.size(),
                                        db.max_width());
  auto state = TakeScratch(pooled, num_shards, slots);
  if (state->tables.size() < static_cast<size_t>(num_shards)) {
    state->tables.resize(static_cast<size_t>(num_shards));
  }
  for (int s = 0; s < num_shards; ++s) {
    state->tables[static_cast<size_t>(s)].Reset(k);
  }
  auto exhausted = std::make_shared<std::atomic<bool>>(false);
  return RunShards(
      db, pool, num_shards, std::move(state), pooled,
      [&db, k, max_combinations, cancel, h, exhausted](
          CountBatchScratch& state, int s, size_t lo, size_t hi) {
        FLIPPER_TRACE_SPAN_HK("count_shard", "task", h, k);
        ScanCounterTable& table = state.tables[static_cast<size_t>(s)];
        const uint32_t* rank = state.rank.data();
        const size_t rank_size = state.rank.size();
        uint32_t* ranks = state.partial[static_cast<size_t>(s)].data();
        Itemset combo;
        ScanRange(db, lo, hi, cancel, [&](std::span<const ItemId> txn) {
          if (exhausted->load(std::memory_order_relaxed)) return;
          const uint32_t m = RankTransaction(txn, rank, rank_size, ranks);
          if (m < static_cast<uint32_t>(k)) return;
          ForEachCombination(
              std::span<const ItemId>(ranks, m), k, &combo,
              [&](const Itemset& c) { table.Increment(c); });
          if (table.size() > max_combinations) {
            exhausted->store(true, std::memory_order_relaxed);
          }
        });
      },
      [itemsets, supports, num_shards, max_combinations, exhausted, cancel,
       h, k](CountBatchScratch& state) -> Status {
        // A fired token cuts shards short: report it before the cap,
        // and never merge partial tables.
        if (cancel != nullptr && cancel->Fired()) return cancel->ToStatus();
        const Status overflow = Status::ResourceExhausted(
            "scan-driven cell Q(" + std::to_string(h) + "," +
            std::to_string(k) + ") exceeded the candidate limit");
        if (exhausted->load(std::memory_order_relaxed)) return overflow;
        FLIPPER_TRACE_SPAN_HK("shard_merge", "detail", h, k);
        // Shard 0's table is the merge target, so its storage survives
        // for reuse. Each shard table is bounded by the cap already (a
        // tighter cap / num_shards bound would flag cells a serial
        // scan accepts, since shards overlap).
        ScanCounterTable& merged = state.tables[0];
        for (int s = 1; s < num_shards; ++s) {
          if (cancel != nullptr && cancel->Fired()) {
            return cancel->ToStatus();
          }
          const ScanCounterTable& table =
              state.tables[static_cast<size_t>(s)];
          for (const ScanCounterTable::Entry& entry : table.entries()) {
            merged.Increment(table.KeyOf(entry).data(), entry.count);
          }
          if (merged.size() > max_combinations) return overflow;
        }
        // Emit in ascending key order, which is ascending itemset
        // order since ranks follow item ids. Each sort key packs the
        // leading ranks into 64 bits — all k of them whenever they
        // fit — and ties fall back to the full key.
        const auto n = static_cast<uint32_t>(state.items.size());
        const int bits = std::max(1, static_cast<int>(std::bit_width(n - 1)));
        const int packed = std::min(k, 64 / bits);
        const std::vector<ScanCounterTable::Entry>& entries =
            merged.entries();
        std::vector<std::pair<uint64_t, uint32_t>> order(entries.size());
        for (uint32_t i = 0; i < order.size(); ++i) {
          const std::span<const ItemId> key = merged.KeyOf(entries[i]);
          uint64_t prefix = 0;
          for (int d = 0; d < packed; ++d) {
            prefix = (prefix << bits) | key[static_cast<size_t>(d)];
          }
          order[i] = {prefix, i};
        }
        std::sort(order.begin(), order.end(), [&](const auto& a,
                                                  const auto& b) {
          if (a.first != b.first) return a.first < b.first;
          const auto ka = merged.KeyOf(entries[a.second]);
          const auto kb = merged.KeyOf(entries[b.second]);
          return std::lexicographical_compare(ka.begin(), ka.end(),
                                              kb.begin(), kb.end());
        });
        itemsets->resize(order.size());
        supports->resize(order.size());
        for (size_t i = 0; i < order.size(); ++i) {
          const ScanCounterTable::Entry& entry = entries[order[i].second];
          Itemset& itemset = (*itemsets)[i];
          for (ItemId r : merged.KeyOf(entry)) {
            itemset.PushBack(state.items[r]);
          }
          (*supports)[i] = entry.count;
        }
        return Status::OK();
      });
}

}  // namespace

Status CountFuture::Join() {
  if (joined_) return status_;
  joined_ = true;
  try {
    completion_.Wait();
  } catch (const std::exception& e) {
    status_ = Status::Internal(std::string("async count failed: ") +
                               e.what());
    return status_;
  }
  if (finalize_ != nullptr) status_ = finalize_();
  return status_;
}

Status CountBatchWithTrie(const TransactionDb& db,
                          std::span<const Itemset> candidates,
                          ThreadPool* pool, std::span<uint32_t> supports,
                          CountBatchScratch* scratch) {
  if (candidates.empty()) return Status::OK();
  CountBatchScratch local;
  return StartScan(db, candidates, CountLayout::kTrie, /*n=*/0, pool,
                   pool != nullptr ? pool->num_threads() : 1, supports,
                   scratch != nullptr ? scratch : &local,
                   /*cancel=*/nullptr, /*h=*/0)
      .Join();
}

CountFuture SupportCounter::StartCount(const LevelViews* views, int h,
                                       std::span<const Itemset> candidates,
                                       std::vector<uint32_t>* supports) {
  supports->resize(candidates.size());
  if (candidates.empty()) return CountFuture(Status::OK());
  if (!UniformArity(candidates)) {
    return CountFuture(Status::InvalidArgument(
        "support counting needs a uniform-arity batch (level " +
        std::to_string(h) + ", " + std::to_string(candidates.size()) +
        " candidates)"));
  }
  if (cancel_ != nullptr && cancel_->Fired()) {
    return CountFuture(cancel_->ToStatus());
  }
  ++num_db_scans_;
  const uint32_t n = RankBatchItems(candidates, &scratch_.rank);
  const CountLayout layout =
      ChooseCountLayout(n, candidates.front().size(), candidates.size());
  if (layout == CountLayout::kDense) ++num_dense_scans_;
  return StartScan(views->Level(h).db, candidates, layout, n, pool_,
                   max_shards_, *supports, &scratch_, cancel_, h);
}

CountFuture SupportCounter::StartCountOccurring(
    const LevelViews* views, int h, int k, std::span<const ItemId> items,
    size_t max_combinations, std::vector<Itemset>* itemsets,
    std::vector<uint32_t>* supports) {
  itemsets->clear();
  supports->clear();
  if (cancel_ != nullptr && cancel_->Fired()) {
    return CountFuture(cancel_->ToStatus());
  }
  ++num_db_scans_;
  ++num_occurring_scans_;
  scratch_.items.assign(items.begin(), items.end());
  RankBatchItems(scratch_.items, &scratch_.rank);
  return StartOccurringScan(views->Level(h).db, k, max_combinations, pool_,
                            max_shards_, itemsets, supports, &scratch_,
                            cancel_, h);
}

uint64_t SupportCounter::arena_grow_events() const {
  uint64_t total = 0;
  for (const ScanCounterTable& table : scratch_.tables) {
    total += table.grow_events();
  }
  return total;
}

}  // namespace flipper
