#include "sim/metrics.h"

#include <gtest/gtest.h>

namespace vanet::sim {
namespace {

TEST(Metrics, PdrCountsUniqueDeliveries) {
  Metrics m;
  for (int i = 0; i < 4; ++i) m.record_originated();
  EXPECT_TRUE(m.record_delivery(0, 0, core::SimTime::zero(),
                                core::SimTime::millis(10), 2));
  EXPECT_TRUE(m.record_delivery(0, 1, core::SimTime::zero(),
                                core::SimTime::millis(30), 4));
  EXPECT_DOUBLE_EQ(m.pdr(), 0.5);
  EXPECT_EQ(m.delivered(), 2u);
  EXPECT_EQ(m.originated(), 4u);
}

TEST(Metrics, DuplicateDeliveriesIgnored) {
  Metrics m;
  m.record_originated();
  EXPECT_TRUE(m.record_delivery(1, 7, core::SimTime::zero(),
                                core::SimTime::millis(5), 1));
  EXPECT_FALSE(m.record_delivery(1, 7, core::SimTime::zero(),
                                 core::SimTime::millis(9), 3));
  EXPECT_EQ(m.delivered(), 1u);
  EXPECT_DOUBLE_EQ(m.delay_ms().mean(), 5.0);
}

TEST(Metrics, SameSeqDifferentFlowsAreDistinct) {
  Metrics m;
  m.record_originated();
  m.record_originated();
  EXPECT_TRUE(m.record_delivery(1, 7, core::SimTime::zero(),
                                core::SimTime::millis(5), 1));
  EXPECT_TRUE(m.record_delivery(2, 7, core::SimTime::zero(),
                                core::SimTime::millis(5), 1));
  EXPECT_EQ(m.delivered(), 2u);
}

TEST(Metrics, DelayAndHopStats) {
  Metrics m;
  m.record_originated();
  m.record_originated();
  m.record_delivery(0, 0, core::SimTime::zero(), core::SimTime::millis(10), 2);
  m.record_delivery(0, 1, core::SimTime::zero(), core::SimTime::millis(20), 6);
  EXPECT_DOUBLE_EQ(m.delay_ms().mean(), 15.0);
  EXPECT_DOUBLE_EQ(m.hops().mean(), 4.0);
}

TEST(Metrics, EmptyPdrIsZero) {
  Metrics m;
  EXPECT_DOUBLE_EQ(m.pdr(), 0.0);
}

}  // namespace
}  // namespace vanet::sim
