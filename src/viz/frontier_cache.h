// Cross-frame cache of the frame engine's chunk refinement frontiers.
//
// A frame pays one region-bound pass per chunk (core/tile_refiner.h). The pass depends only on the
// immutable index, the viewport geometry and the query parameters — not on
// which frame is being rendered — so progressive re-renders and repeated
// requests for the same viewport can reuse the frontiers verbatim. The serve
// layer keys the cache by epoch id: a dataset hot-swap changes the epoch and
// old entries can never leak into a new index generation (the renderer also
// never shares one cache across epochs; the key is defense in depth).
//
// Thread safety: all operations take an internal mutex; cached frames are
// immutable (shared_ptr<const ...>), so lookups can be consumed without
// further locking. Eviction is LRU with a small fixed capacity — the
// expected working set is "the viewport(s) currently being served".
#ifndef QUADKDV_VIZ_FRONTIER_CACHE_H_
#define QUADKDV_VIZ_FRONTIER_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/tile_frontier.h"

namespace kdv {

// Everything the tile pass output depends on (besides the index itself,
// which the epoch id stands in for). Doubles compare exactly: a viewport
// differing in the last ulp is simply a different viewport.
struct FrontierKey {
  uint64_t epoch = 0;
  int width = 0;
  int height = 0;
  double lo0 = 0.0, lo1 = 0.0, hi0 = 0.0, hi1 = 0.0;  // 2-d domain rect
  uint32_t tile_rows = 0;
  uint32_t tile_cols = 0;
  char mode = 'e';      // 'e' = εKDV, 't' = τKDV
  double param = 0.0;   // eps or tau
  bool operator==(const FrontierKey&) const = default;
};

// The per-chunk frontiers of one whole frame, chunk-index order.
using FrameFrontiers = std::vector<TileFrontier>;

class FrontierCache {
 public:
  // capacity 0 disables the cache: Lookup always misses and Insert is a
  // no-op (it used to index an empty slot vector — UB).
  explicit FrontierCache(size_t capacity = 8) : capacity_(capacity) {}

  FrontierCache(const FrontierCache&) = delete;
  FrontierCache& operator=(const FrontierCache&) = delete;

  // Returns the cached frame for `key`, or nullptr.
  std::shared_ptr<const FrameFrontiers> Lookup(const FrontierKey& key) {
    std::lock_guard<std::mutex> lock(mu_);
    for (Slot& slot : slots_) {
      if (slot.key == key) {
        slot.last_used = ++seq_;
        ++hits_;
        return slot.value;
      }
    }
    ++misses_;
    return nullptr;
  }

  // Publishes a fully built frame (only complete, fault-free frames should
  // be inserted). Replaces an existing entry with the same key.
  void Insert(const FrontierKey& key,
              std::shared_ptr<const FrameFrontiers> value) {
    // capacity 0: disabled. Without this guard the size check below reads
    // `0 >= 0`, takes the evict branch, and indexes slots_[0] of an empty
    // vector.
    if (value == nullptr || capacity_ == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    for (Slot& slot : slots_) {
      if (slot.key == key) {
        slot.value = std::move(value);
        slot.last_used = ++seq_;
        return;
      }
    }
    if (slots_.size() >= capacity_) {
      size_t evict = 0;
      for (size_t i = 1; i < slots_.size(); ++i) {
        if (slots_[i].last_used < slots_[evict].last_used) evict = i;
      }
      slots_[evict] = Slot{key, std::move(value), ++seq_};
      return;
    }
    slots_.push_back(Slot{key, std::move(value), ++seq_});
  }

  uint64_t hits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
  }
  uint64_t misses() const {
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
  }

 private:
  struct Slot {
    FrontierKey key;
    std::shared_ptr<const FrameFrontiers> value;
    uint64_t last_used = 0;
  };

  mutable std::mutex mu_;
  std::vector<Slot> slots_;
  uint64_t seq_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  size_t capacity_;
};

}  // namespace kdv

#endif  // QUADKDV_VIZ_FRONTIER_CACHE_H_
