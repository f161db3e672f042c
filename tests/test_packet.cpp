#include "net/packet.h"

#include <gtest/gtest.h>

#include <memory>

namespace vanet::net {
namespace {

// Stand-in header types borrowing two distinct registry tags: header_as
// dispatches purely on the tag, so any two distinct HeaderTag values exercise
// the match/mismatch paths.
struct HeaderA final : Header {
  static constexpr HeaderTag kTag = HeaderTag::kHello;
  HeaderA() : Header{kTag} {}
  int value = 1;
};
struct HeaderB final : Header {
  static constexpr HeaderTag kTag = HeaderTag::kZone;
  HeaderB() : Header{kTag} {}
  int value = 2;
};

TEST(Packet, HeaderTypedAccess) {
  Packet p;
  p.header = std::make_shared<HeaderA>();
  EXPECT_NE(p.header_as<HeaderA>(), nullptr);
  EXPECT_EQ(p.header_as<HeaderB>(), nullptr);
  EXPECT_EQ(p.header_as<HeaderA>()->value, 1);
  EXPECT_EQ(p.header->tag(), HeaderTag::kHello);
}

TEST(Packet, NullHeaderIsSafe) {
  Packet p;
  EXPECT_EQ(p.header_as<HeaderA>(), nullptr);
}

TEST(Packet, CopySharesHeader) {
  Packet p;
  p.header = std::make_shared<HeaderA>();
  Packet q = p;
  EXPECT_EQ(q.header.get(), p.header.get());
  EXPECT_EQ(p.header.use_count(), 2);
}

TEST(Packet, Defaults) {
  Packet p;
  EXPECT_EQ(p.rx, kBroadcastId);
  EXPECT_EQ(p.destination, kBroadcastId);
  EXPECT_EQ(p.hops, 0);
  EXPECT_GT(p.ttl, 0);
}

}  // namespace
}  // namespace vanet::net
