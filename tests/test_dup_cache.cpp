#include "routing/dup_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <unordered_set>
#include <vector>

#include "core/rng.h"

namespace vanet::routing {
namespace {

TEST(DupCache, FirstInsertIsFresh) {
  DupCache c;
  EXPECT_FALSE(c.seen_or_insert(42));
  EXPECT_TRUE(c.seen_or_insert(42));
  EXPECT_TRUE(c.contains(42));
  EXPECT_FALSE(c.contains(43));
}

TEST(DupCache, FifoEviction) {
  DupCache c{3};
  c.seen_or_insert(1);
  c.seen_or_insert(2);
  c.seen_or_insert(3);
  c.seen_or_insert(4);  // evicts 1
  EXPECT_FALSE(c.contains(1));
  EXPECT_TRUE(c.contains(2));
  EXPECT_TRUE(c.contains(4));
  EXPECT_EQ(c.size(), 3u);
  EXPECT_FALSE(c.seen_or_insert(1));  // reinsertable after eviction
}

TEST(DupCache, KeyMixesAllInputs) {
  const auto k = DupCache::key(1, 2, 3);
  EXPECT_NE(k, DupCache::key(1, 2, 4));
  EXPECT_NE(k, DupCache::key(1, 3, 2));
  EXPECT_NE(k, DupCache::key(3, 2, 1));
  EXPECT_EQ(k, DupCache::key(1, 2, 3));
}

TEST(DupCache, KeyCollisionsRareOverDenseRange) {
  DupCache c{1u << 20};
  int collisions = 0;
  for (std::uint32_t a = 0; a < 100; ++a) {
    for (std::uint32_t b = 0; b < 100; ++b) {
      if (c.seen_or_insert(DupCache::key(a, b, 7))) ++collisions;
    }
  }
  EXPECT_EQ(collisions, 0);
}

/// The cache as it was first written: a hash set plus a FIFO of insertion
/// order. DupCache must answer exactly like it.
class ReferenceDupCache {
 public:
  explicit ReferenceDupCache(std::size_t capacity) : capacity_{capacity} {}
  bool seen_or_insert(std::uint64_t key) {
    if (set_.contains(key)) return true;
    set_.insert(key);
    order_.push_back(key);
    if (order_.size() > capacity_) {
      set_.erase(order_.front());
      order_.pop_front();
    }
    return false;
  }
  bool contains(std::uint64_t key) const { return set_.contains(key); }
  std::size_t size() const { return set_.size(); }

 private:
  std::size_t capacity_;
  std::unordered_set<std::uint64_t> set_;
  std::deque<std::uint64_t> order_;
};

/// Key streams that stress an open-addressed table: mixed keys, raw small
/// integers (key 0 included), and keys equal in their low 32 bits.
enum class Stream { kMixed, kSmall, kLowBitsCollide };

std::uint64_t draw_key(Stream stream, core::Rng& rng, std::uint64_t universe) {
  const auto k = static_cast<std::uint64_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(universe) - 1));
  switch (stream) {
    case Stream::kMixed:
      return DupCache::key(static_cast<std::uint32_t>(k), 7, 0);
    case Stream::kSmall:
      return k;
    case Stream::kLowBitsCollide:
      return (k << 32) | 0x5a5aULL;
  }
  return k;
}

TEST(DupCache, MatchesReferenceModel) {
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{3},
                                     std::size_t{4096}}) {
    for (const Stream stream :
         {Stream::kMixed, Stream::kSmall, Stream::kLowBitsCollide}) {
      // Universes around the capacity: mostly hits, balanced, mostly misses.
      for (const std::uint64_t universe :
           {capacity / 2 + 1, capacity + 2, 4 * capacity + 8}) {
        SCOPED_TRACE(::testing::Message()
                     << "capacity " << capacity << " stream "
                     << static_cast<int>(stream) << " universe " << universe);
        DupCache cache{capacity};
        ReferenceDupCache ref{capacity};
        core::Rng rng{capacity * 31 + universe};
        const int steps = capacity > 100 ? 40000 : 2000;
        for (int step = 0; step < steps; ++step) {
          const std::uint64_t key = draw_key(stream, rng, universe);
          ASSERT_EQ(cache.contains(key), ref.contains(key)) << "step " << step;
          ASSERT_EQ(cache.seen_or_insert(key), ref.seen_or_insert(key))
              << "step " << step;
          ASSERT_EQ(cache.size(), ref.size()) << "step " << step;
          const std::uint64_t probe = draw_key(stream, rng, universe);
          ASSERT_EQ(cache.contains(probe), ref.contains(probe))
              << "step " << step;
        }
      }
    }
  }
}

TEST(DupCache, KeyZeroIsAnOrdinaryKey) {
  DupCache c{2};
  EXPECT_FALSE(c.contains(0));
  EXPECT_FALSE(c.seen_or_insert(0));
  EXPECT_TRUE(c.seen_or_insert(0));
  EXPECT_EQ(c.size(), 1u);
  c.seen_or_insert(5);
  c.seen_or_insert(6);  // evicts 0
  EXPECT_FALSE(c.contains(0));
  EXPECT_EQ(c.size(), 2u);
}

}  // namespace
}  // namespace vanet::routing
