#include "core/sim_time.h"

#include <gtest/gtest.h>

namespace vanet::core {
namespace {

TEST(SimTime, DefaultIsZero) {
  SimTime t;
  EXPECT_EQ(t, SimTime::zero());
  EXPECT_EQ(t.as_micros(), 0);
}

TEST(SimTime, NamedConstructorsAgree) {
  EXPECT_EQ(SimTime::seconds(1.5).as_micros(), 1'500'000);
  EXPECT_EQ(SimTime::millis(250).as_micros(), 250'000);
  EXPECT_EQ(SimTime::micros(42).as_micros(), 42);
  EXPECT_DOUBLE_EQ(SimTime::millis(1500).as_seconds(), 1.5);
  EXPECT_DOUBLE_EQ(SimTime::seconds(2.0).as_millis(), 2000.0);
}

TEST(SimTime, Arithmetic) {
  const SimTime a = SimTime::millis(300);
  const SimTime b = SimTime::millis(200);
  EXPECT_EQ((a + b).as_millis(), 500.0);
  EXPECT_EQ((a - b).as_millis(), 100.0);
  EXPECT_EQ((b - a).as_micros(), -100'000);
  EXPECT_TRUE((b - a).is_negative());
  EXPECT_EQ((a * std::int64_t{3}).as_millis(), 900.0);
  EXPECT_EQ((a * 0.5).as_millis(), 150.0);
}

TEST(SimTime, CompoundAssignment) {
  SimTime t = SimTime::millis(100);
  t += SimTime::millis(50);
  EXPECT_EQ(t.as_millis(), 150.0);
}

TEST(SimTime, Ordering) {
  EXPECT_LT(SimTime::millis(1), SimTime::millis(2));
  EXPECT_LE(SimTime::millis(2), SimTime::millis(2));
  EXPECT_GT(SimTime::seconds(1), SimTime::millis(999));
  EXPECT_EQ(SimTime::seconds(1), SimTime::millis(1000));
  EXPECT_LT(SimTime::zero(), SimTime::max());
}

TEST(SimTime, SubMicrosecondTruncates) {
  // Integral microseconds: fractions below 1 us are dropped deterministically.
  EXPECT_EQ(SimTime::seconds(1e-7).as_micros(), 0);
  EXPECT_EQ(SimTime::seconds(2.5e-6).as_micros(), 2);
}

}  // namespace
}  // namespace vanet::core
