#include "mobility/trace.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/rng.h"
#include "mobility/constant_velocity.h"

namespace vanet::mobility {
namespace {

TEST(Trace, CsvRoundTrip) {
  Trace t;
  t.add(3, {0.0, 10.0, 20.0, 5.0, 0.0});
  t.add(3, {1.0, 15.0, 20.0, 5.0, 0.0});
  t.add(7, {0.5, -4.0, 2.0, 1.0, 1.57});
  std::stringstream ss;
  t.save_csv(ss);
  const Trace back = Trace::load_csv(ss);
  ASSERT_EQ(back.vehicle_count(), 2u);
  const auto& v3 = back.samples().at(3);
  ASSERT_EQ(v3.size(), 2u);
  EXPECT_DOUBLE_EQ(v3[1].x, 15.0);
  EXPECT_DOUBLE_EQ(back.samples().at(7)[0].angle, 1.57);
  EXPECT_DOUBLE_EQ(back.end_time(), 1.0);
}

TEST(Trace, LoadSkipsCommentsAndRejectsGarbage) {
  std::stringstream good{"# header\n0.0,1,5.0,6.0,2.0,0.0\n"};
  EXPECT_EQ(Trace::load_csv(good).vehicle_count(), 1u);

  std::stringstream bad{"0.0,1,notanumber,6.0,2.0,0.0\n"};
  EXPECT_THROW(Trace::load_csv(bad), std::runtime_error);

  std::stringstream short_line{"0.0,1,5.0\n"};
  EXPECT_THROW(Trace::load_csv(short_line), std::runtime_error);
}

/// The runtime_error message of loading `csv`, or "" when it loads.
std::string load_error(const std::string& csv) {
  std::stringstream in{csv};
  try {
    Trace::load_csv(in);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(Trace, LoadRejectsNonFiniteFields) {
  for (const char* bad : {"nan", "NaN", "inf", "-inf", "infinity", "1e999"}) {
    for (int field = 0; field < 5; ++field) {
      std::string vals[5] = {"0.0", "5.0", "6.0", "2.0", "0.0"};
      vals[field] = bad;
      const std::string csv = "0.0,1,5.0,6.0,2.0,0.0\n" + vals[0] + ",2," +
                              vals[1] + "," + vals[2] + "," + vals[3] + "," +
                              vals[4] + "\n";
      EXPECT_NE(load_error(csv).find("line 2"), std::string::npos)
          << bad << " in field " << field;
    }
  }
}

TEST(Trace, LoadRejectsOutOfOrderSamplesPerVehicle) {
  const std::string err = load_error(
      "0.0,1,0.0,0.0,1.0,0.0\n"
      "2.0,1,2.0,0.0,1.0,0.0\n"
      "0.0,2,9.0,9.0,1.0,0.0\n"
      "1.0,1,1.0,0.0,1.0,0.0\n");
  EXPECT_NE(err.find("line 4"), std::string::npos) << err;
  EXPECT_NE(err.find("vehicle 1"), std::string::npos) << err;
  // Equal times and interleaved vehicles are fine.
  EXPECT_EQ(load_error("1.0,1,0,0,1,0\n1.0,1,1,0,1,0\n0.5,2,0,0,1,0\n"
                       "2.0,1,2,0,1,0\n"),
            "");
}

TEST(Trace, RecorderCapturesModel) {
  ConstantVelocityModel m;
  m.add_vehicle({0.0, 0.0}, {1.0, 0.0}, 10.0);
  m.add_vehicle({5.0, 5.0}, {0.0, 1.0}, 2.0);
  core::Rng rng{1};
  TraceRecorder rec;
  rec.capture(0.0, m);
  m.step(1.0, rng);
  rec.capture(1.0, m);
  const Trace& t = rec.trace();
  EXPECT_EQ(t.vehicle_count(), 2u);
  EXPECT_EQ(t.samples().at(0).size(), 2u);
  EXPECT_DOUBLE_EQ(t.samples().at(0)[1].x, 10.0);
}

TEST(TracePlayback, InterpolatesBetweenSamples) {
  Trace t;
  t.add(0, {0.0, 0.0, 0.0, 10.0, 0.0});
  t.add(0, {2.0, 20.0, 0.0, 10.0, 0.0});
  TracePlaybackModel m{std::move(t)};
  core::Rng rng{1};
  m.step(1.0, rng);  // halfway
  EXPECT_NEAR(m.state(0).pos.x, 10.0, 1e-9);
  EXPECT_NEAR(m.state(0).speed, 10.0, 1e-9);
  EXPECT_NEAR(m.state(0).heading.x, 1.0, 1e-9);
}

TEST(TracePlayback, ClampsAtEnds) {
  Trace t;
  t.add(0, {1.0, 5.0, 5.0, 3.0, 0.0});
  t.add(0, {2.0, 10.0, 5.0, 3.0, 0.0});
  TracePlaybackModel m{std::move(t)};
  core::Rng rng{1};
  // Before the first sample: pinned at it, not yet moving.
  EXPECT_DOUBLE_EQ(m.state(0).pos.x, 5.0);
  EXPECT_DOUBLE_EQ(m.state(0).speed, 0.0);
  // After the last sample: parked at it.
  m.step(5.0, rng);
  EXPECT_DOUBLE_EQ(m.state(0).pos.x, 10.0);
  EXPECT_DOUBLE_EQ(m.state(0).speed, 0.0);
}

TEST(TracePlayback, RoundTripOfRecordedMotion) {
  // Record a constant-velocity run, play it back, compare trajectories.
  ConstantVelocityModel source;
  source.add_vehicle({0.0, 0.0}, {1.0, 0.0}, 12.0);
  core::Rng rng{1};
  TraceRecorder rec;
  for (int i = 0; i <= 20; ++i) {
    rec.capture(i * 0.5, source);
    source.step(0.5, rng);
  }
  TracePlaybackModel playback{rec.take()};
  for (int i = 0; i < 10; ++i) playback.step(0.25, rng);
  // After 2.5 s the vehicle should be at x = 30.
  EXPECT_NEAR(playback.state(0).pos.x, 30.0, 1e-6);
}

}  // namespace
}  // namespace vanet::mobility
