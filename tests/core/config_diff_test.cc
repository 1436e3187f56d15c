#include "core/config_diff.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "frontend/loader.h"
#include "gen/acl_gen.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tests/testdata.h"

namespace campion::core {
namespace {

class ConfigDiffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cisco_ = testing::ParseCiscoOrDie(testing::kFig1Cisco);
    juniper_ = testing::ParseJuniperOrDie(testing::kFig1Juniper);
  }
  ir::RouterConfig cisco_;
  ir::RouterConfig juniper_;
};

// Regression: the BDD encoding of a discontiguous wildcard is per-bit, so
// "0.0.255.0" (free third octet) must NOT collapse to the "0.0.255.255"
// prefix approximation — they differ on every packet whose fourth octet
// moves. And two identical discontiguous lines must stay equivalent.
TEST(AclWildcardSemanticsTest, DiscontiguousWildcardNotTreatedAsPrefix) {
  ir::RouterConfig exact = testing::ParseCiscoOrDie(
      "hostname r1\n"
      "ip access-list extended DW\n"
      " permit ip 10.1.0.5 0.0.255.0 any\n"
      " deny ip any any\n");
  ir::RouterConfig widened = testing::ParseCiscoOrDie(
      "hostname r2\n"
      "ip access-list extended DW\n"
      " permit ip 10.1.0.0 0.0.255.255 any\n"
      " deny ip any any\n");
  EXPECT_FALSE(DiffAclPair(exact, widened, "DW").empty());
  EXPECT_TRUE(DiffAclPair(exact, exact, "DW").empty());
}

TEST_F(ConfigDiffTest, OptionsDisableChecks) {
  DiffOptions only_structural;
  only_structural.check_route_maps = false;
  only_structural.check_acls = false;
  DiffReport report = ConfigDiff(cisco_, juniper_, only_structural);
  EXPECT_EQ(report.CountOf(DifferenceEntry::Kind::kRouteMapSemantic), 0);
  EXPECT_GE(report.CountOf(DifferenceEntry::Kind::kStructural), 1);

  DiffOptions only_semantic;
  only_semantic.check_static_routes = false;
  only_semantic.check_connected_routes = false;
  only_semantic.check_ospf = false;
  only_semantic.check_bgp_properties = false;
  only_semantic.check_admin_distances = false;
  DiffReport semantic_report = ConfigDiff(cisco_, juniper_, only_semantic);
  EXPECT_EQ(semantic_report.CountOf(DifferenceEntry::Kind::kStructural), 0);
  EXPECT_EQ(
      semantic_report.CountOf(DifferenceEntry::Kind::kRouteMapSemantic), 2);
}

TEST_F(ConfigDiffTest, SharedPolicyPairDiffedOnce) {
  // Both neighbors of a router using the same policy pair: one diff set.
  ir::RouterConfig a = cisco_;
  ir::RouterConfig b = juniper_;
  // Add a second neighbor using the same export policy on both sides.
  ir::BgpNeighbor extra1 = a.bgp->neighbors[0];
  extra1.ip = *util::Ipv4Address::Parse("10.0.12.13");
  a.bgp->neighbors.push_back(extra1);
  ir::BgpNeighbor extra2 = b.bgp->neighbors[0];
  extra2.ip = *util::Ipv4Address::Parse("10.0.12.13");
  b.bgp->neighbors.push_back(extra2);

  DiffReport report = ConfigDiff(a, b);
  EXPECT_EQ(report.CountOf(DifferenceEntry::Kind::kRouteMapSemantic), 2);
}

TEST_F(ConfigDiffTest, DanglingRouteMapReferenceWarns) {
  ir::RouterConfig broken = cisco_;
  broken.bgp->neighbors[0].export_policy = "NO-SUCH-MAP";
  DiffReport report = ConfigDiff(broken, juniper_);
  int warnings = report.CountOf(DifferenceEntry::Kind::kWarning);
  EXPECT_GE(warnings, 1);
  bool found = false;
  for (const auto& entry : report.entries) {
    if (entry.kind == DifferenceEntry::Kind::kWarning &&
        entry.rendered.find("NO-SUCH-MAP") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ConfigDiffTest, MissingPolicyComparedAgainstPassThrough) {
  // Remove the Juniper export policy: POL vs accept-everything.
  ir::RouterConfig open = juniper_;
  open.bgp->neighbors[0].export_policy = "";
  DiffReport report = ConfigDiff(cisco_, open);
  // The Cisco POL rejects NETS and COMM routes; pass-through accepts all,
  // and accepted routes get no local-pref set: several differences.
  EXPECT_GE(report.CountOf(DifferenceEntry::Kind::kRouteMapSemantic), 2);
}

TEST_F(ConfigDiffTest, UnmatchedNeighborsSurface) {
  ir::RouterConfig extra = cisco_;
  ir::BgpNeighbor neighbor = extra.bgp->neighbors[0];
  neighbor.ip = *util::Ipv4Address::Parse("192.0.2.99");
  extra.bgp->neighbors.push_back(neighbor);
  DiffReport report = ConfigDiff(extra, juniper_);
  EXPECT_GE(report.CountOf(DifferenceEntry::Kind::kUnmatched), 1);
  EXPECT_FALSE(report.Equivalent());
}

TEST_F(ConfigDiffTest, RenderNumbersEntries) {
  DiffReport report = ConfigDiff(cisco_, juniper_);
  std::string rendered = report.Render();
  EXPECT_NE(rendered.find("=== [1]"), std::string::npos);
  EXPECT_NE(rendered.find("=== [2]"), std::string::npos);
}

TEST_F(ConfigDiffTest, EmptyReportRendersEquivalenceMessage) {
  DiffReport report;
  EXPECT_NE(report.Render().find("behaviorally equivalent"),
            std::string::npos);
  EXPECT_TRUE(report.Equivalent());
}

TEST_F(ConfigDiffTest, RedistributionPoliciesDiffed) {
  // Two configs whose redistribution route maps differ semantically.
  ir::RouterConfig a;
  a.hostname = "a";
  ir::RouterConfig b;
  b.hostname = "b";
  for (ir::RouterConfig* config : {&a, &b}) {
    config->ospf.emplace();
    ir::PrefixList list;
    list.name = "STATICS";
    list.entries.push_back(
        {ir::LineAction::kPermit,
         util::PrefixRange(*util::Prefix::Parse("10.5.0.0/16"), 16,
                           config == &a ? 32 : 24),
         {}});
    config->prefix_lists["STATICS"] = list;
    ir::RouteMap map;
    map.name = "REDIST";
    ir::RouteMapClause clause;
    clause.action = ir::ClauseAction::kPermit;
    ir::RouteMapMatch match;
    match.kind = ir::RouteMapMatch::Kind::kPrefixList;
    match.names = {"STATICS"};
    clause.matches.push_back(match);
    map.clauses.push_back(clause);
    map.default_action = ir::ClauseAction::kDeny;
    config->route_maps["REDIST"] = map;
    config->ospf->redistributions.push_back(
        {ir::Protocol::kStatic, "REDIST", {}});
  }
  DiffReport report = ConfigDiff(a, b);
  EXPECT_EQ(report.CountOf(DifferenceEntry::Kind::kRouteMapSemantic), 1);
  bool found = false;
  for (const auto& entry : report.entries) {
    if (entry.title.find("redistribution of static") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// The counters one run of `diff` records, captured in a private sink with
// tracing on.
template <typename Fn>
std::map<std::string, double> CountersOf(Fn&& diff) {
  obs::MetricsSink sink;
  {
    obs::MetricsScope scope(sink);
    obs::SetEnabled(true);
    diff();
    obs::SetEnabled(false);
  }
  obs::ResetThreadTrace();
  std::map<std::string, double> counters;
  for (const obs::MetricSample& sample : sink.Snapshot()) {
    counters[sample.name] = sample.value;
  }
  return counters;
}

// University core: three route-map pairs localize six differences over one
// DAG, built before the fan-out at any thread count. Its ACL pair has no
// differences, so it builds none.
TEST(LocalizeOncePerComparisonTest, UniversityCoreBuildsOneDag) {
  ir::RouterConfig cisco =
      frontend::LoadConfigFile(CAMPION_EXAMPLES_DIR
                               "/university_core_cisco.cfg")
          .config;
  ir::RouterConfig juniper =
      frontend::LoadConfigFile(CAMPION_EXAMPLES_DIR
                               "/university_core_juniper.conf")
          .config;
  for (unsigned threads : {1u, 4u}) {
    DiffOptions options;
    options.num_threads = threads;
    auto counters = CountersOf([&] { ConfigDiff(cisco, juniper, options); });
    EXPECT_EQ(counters["localize.dag_builds"], 1.0) << threads << " threads";
    EXPECT_EQ(counters["localize.calls"], 6.0) << threads << " threads";
  }
}

// An ACL pair builds its destination and source DAGs once, before its
// differences are presented, however many differences there are.
TEST(LocalizeOncePerComparisonTest, AclPairBuildsTwoDags) {
  std::size_t most = 0;
  for (int differences : {1, 3, 8}) {
    gen::AclGenOptions options;
    options.rules = 60;
    options.differences = differences;
    options.seed = 7;
    gen::GeneratedAclPair pair = gen::GenerateAclPair(options);
    ir::RouterConfig c1 =
        gen::WrapAclInConfig(pair.acl1, "r1", ir::Vendor::kCisco);
    ir::RouterConfig c2 =
        gen::WrapAclInConfig(pair.acl2, "r2", ir::Vendor::kJuniper);
    std::size_t presented = 0;
    auto counters = CountersOf(
        [&] { presented = DiffAclPair(c1, c2, options.name).size(); });
    ASSERT_GT(presented, 0u) << differences << " injected";
    EXPECT_EQ(counters["localize.dag_builds"], 2.0)
        << presented << " differences";
    EXPECT_EQ(counters["localize.calls"], 2.0 * static_cast<double>(presented));
    most = std::max(most, presented);
  }
  EXPECT_GT(most, 2u);  // Several differences share the two DAGs.
}

}  // namespace
}  // namespace campion::core
