#include "routing/registry.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "util/line_fixture.h"

namespace vanet::routing {
namespace {

TEST(Registry, AllFiveCategoriesRepresented) {
  std::set<Category> categories;
  for (const auto& info : ProtocolRegistry::all()) categories.insert(info.category);
  EXPECT_EQ(categories.size(), 5u);
}

TEST(Registry, ExpectedProtocolsPresent) {
  for (const char* name :
       {"flooding", "biswas", "aodv", "dsr", "dsdv", "pbr", "taleb", "abedi",
        "drr", "bus", "greedy", "zone", "grid", "rear", "gvgrid", "car", "yan",
        "yan-ss", "wedde", "rover", "niude"}) {
    EXPECT_NE(ProtocolRegistry::find(name), nullptr) << name;
  }
  EXPECT_GE(ProtocolRegistry::all().size(), 21u);
}

TEST(Registry, NamesAreUnique) {
  std::set<std::string_view> names;
  for (const auto& info : ProtocolRegistry::all()) {
    EXPECT_TRUE(names.insert(info.name).second) << info.name;
  }
}

TEST(Registry, FindUnknownReturnsNull) {
  EXPECT_EQ(ProtocolRegistry::find("olsr"), nullptr);
}

TEST(Registry, MakeUnknownThrows) {
  EXPECT_THROW(ProtocolRegistry::make("olsr", {}), std::invalid_argument);
}

TEST(Registry, MakeProducesNamedInstance) {
  ProtocolDeps deps;
  auto p = ProtocolRegistry::make("aodv", deps);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->name(), "aodv");
  EXPECT_EQ(p->category(), Category::kConnectivity);
}

TEST(Registry, InstanceMetadataConsistent) {
  for (const auto& info : ProtocolRegistry::all()) {
    auto p = info.make(ProtocolDeps{});
    EXPECT_EQ(p->name(), info.name);
    EXPECT_EQ(p->category(), info.category);
    EXPECT_FALSE(info.metric.empty());
    EXPECT_FALSE(info.control.empty());
  }
}

// Every protocol is built from config values alone: the world (the map and
// what derives from it) arrives at bind(). A flowing 5-hop convoy, so that
// Wedde's road rating admits its links, and a warm-up long enough for the
// hello-borne distance vectors of dsdv and etx to converge (one beacon
// round per hop).
TEST(ProtocolRegistry, EveryProtocolBuildsFromDefaultDeps) {
  for (const auto& info : ProtocolRegistry::all()) {
    testing::LineFixtureOptions opt;
    opt.nodes = 6;
    opt.spacing = 80.0;
    opt.range = 100.0;
    opt.speed = 15.0;
    testing::LineFixture f{std::string{info.name}, opt};
    f.run_to(12.0);
    f.send(0, 5, /*seq=*/1);
    f.run_to(25.0);
    EXPECT_EQ(f.delivered_count(0, 1), 1u) << info.name;
  }
}

TEST(Registry, CategoryNames) {
  EXPECT_EQ(to_string(Category::kConnectivity), "connectivity");
  EXPECT_EQ(to_string(Category::kMobility), "mobility");
  EXPECT_EQ(to_string(Category::kInfrastructure), "infrastructure");
  EXPECT_EQ(to_string(Category::kGeographic), "geographic");
  EXPECT_EQ(to_string(Category::kProbability), "probability");
}

}  // namespace
}  // namespace vanet::routing
