// Bounded duplicate-suppression cache (FIFO eviction).
//
// Every relay probes one of these per received flood frame, so it is flat:
// a FIFO ring holds the live keys in insertion order, and an open-addressed
// table (linear probing, load <= 1/4, backward-shift deletion: no
// tombstones) maps each key to its ring position. Keys are re-mixed before
// probing, so raw small integers spread as well as DupCache::key hashes, and
// the table stores 32-bit ring positions rather than keys, which keeps it
// small and lets every 64-bit value, 0 included, be a key. Both arrays start
// empty and grow by doubling up to what `capacity` needs: the thousands of
// caches that never see a frame cost no allocation. Once `capacity` keys are
// held, each insert evicts the oldest.
#pragma once

#include <cstdint>
#include <vector>

#include "core/assert.h"

namespace vanet::routing {

class DupCache {
 public:
  explicit DupCache(std::size_t capacity = 4096) : capacity_{capacity} {
    VANET_ASSERT_MSG(capacity < (std::size_t{1} << 31),
                     "duplicate cache capacity too large");
  }

  /// Returns true when `key` was already present; inserts it otherwise.
  bool seen_or_insert(std::uint64_t key) {
    const std::uint64_t m = remix(key);
    if (find(m) != kNone) return true;
    if (capacity_ == 0) return false;
    std::size_t pos = ring_.size();
    if (pos < capacity_) {
      if (4 * (pos + 1) > table_.size()) grow();
      ring_.push_back(m);
    } else {
      pos = head_;
      erase(find(ring_[pos]));
      ring_[pos] = m;
      if (++head_ == capacity_) head_ = 0;
    }
    place(pos);
    return false;
  }

  bool contains(std::uint64_t key) const { return find(remix(key)) != kNone; }
  /// Live keys: exactly the ring's contents.
  std::size_t size() const { return ring_.size(); }

  /// Mix three 32-bit identifiers into one cache key.
  static std::uint64_t key(std::uint32_t a, std::uint32_t b, std::uint32_t c) {
    auto mix = [](std::uint64_t x) {
      x += 0x9e3779b97f4a7c15ULL;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
      return x ^ (x >> 31);
    };
    return mix(mix(mix(a) ^ b) ^ c);
  }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// MurmurHash3's finalizer: a bijection, so distinct keys stay distinct.
  static std::uint64_t remix(std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    return x ^ (x >> 33);
  }

  std::size_t mask() const { return table_.size() - 1; }
  std::size_t home(std::uint32_t entry) const {
    return ring_[entry - 1] & mask();
  }

  /// Table slot holding mixed key `m`, or kNone.
  std::size_t find(std::uint64_t m) const {
    if (table_.empty()) return kNone;
    for (std::size_t i = m & mask();; i = (i + 1) & mask()) {
      const std::uint32_t e = table_[i];
      if (e == 0) return kNone;
      if (ring_[e - 1] == m) return i;
    }
  }

  /// Enter ring position `pos` in the first free slot of its probe run.
  void place(std::size_t pos) {
    std::size_t i = ring_[pos] & mask();
    while (table_[i] != 0) i = (i + 1) & mask();
    table_[i] = static_cast<std::uint32_t>(pos + 1);
  }

  void grow() {
    table_.assign(table_.empty() ? 32 : 2 * table_.size(), 0);
    for (std::size_t pos = 0; pos < ring_.size(); ++pos) place(pos);
  }

  /// Empty table slot `gap`, shifting later members of its probe run back
  /// into it so no lookup ever stops early.
  void erase(std::size_t gap) {
    for (std::size_t j = (gap + 1) & mask(); table_[j] != 0;
         j = (j + 1) & mask()) {
      // Move table_[j] into the gap unless its home slot lies cyclically in
      // (gap, j]: then the gap is not on its probe path.
      if (((j - home(table_[j])) & mask()) >= ((j - gap) & mask())) {
        table_[gap] = table_[j];
        gap = j;
      }
    }
    table_[gap] = 0;
  }

  std::size_t capacity_;
  std::vector<std::uint64_t> ring_;   ///< mixed keys; oldest at head_ once full
  std::vector<std::uint32_t> table_;  ///< ring position + 1; 0 = empty slot
  std::size_t head_ = 0;
};

}  // namespace vanet::routing
