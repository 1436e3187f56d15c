#include "core/json_report.h"

#include <gtest/gtest.h>

#include "tests/testdata.h"
#include "util/json.h"

namespace campion::core {
namespace {

TEST(JsonEscapeTest, EscapesSpecials) {
  EXPECT_EQ(util::JsonEscape("plain"), "plain");
  EXPECT_EQ(util::JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(util::JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(util::JsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(util::JsonEscape("a\tb"), "a\\tb");
  EXPECT_EQ(util::JsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(ReportToJsonTest, EquivalentReport) {
  DiffReport report;
  std::string json = ReportToJson(report, "r1", "r2");
  EXPECT_NE(json.find("\"equivalent\": true"), std::string::npos);
  EXPECT_NE(json.find("\"router1\": \"r1\""), std::string::npos);
  EXPECT_NE(json.find("\"differences\": []"), std::string::npos);
}

TEST(ReportToJsonTest, Fig1ReportRoundTripsKeyFields) {
  auto cisco = testing::ParseCiscoOrDie(testing::kFig1Cisco);
  auto juniper = testing::ParseJuniperOrDie(testing::kFig1Juniper);
  DiffReport report = ConfigDiff(cisco, juniper);
  std::string json = ReportToJson(report, cisco.hostname, juniper.hostname);

  EXPECT_NE(json.find("\"equivalent\": false"), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"route-map\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"structural\""), std::string::npos);
  EXPECT_NE(json.find("10.9.0.0/16 : 16-32"), std::string::npos);
  EXPECT_NE(json.find("REJECT"), std::string::npos);
  // Multi-line config text is escaped: no raw newlines inside strings.
  auto check_balanced_quotes = [&]() {
    bool in_string = false;
    bool escaped = false;
    for (char c : json) {
      if (in_string) {
        if (escaped) {
          escaped = false;
        } else if (c == '\\') {
          escaped = true;
        } else if (c == '"') {
          in_string = false;
        } else if (c == '\n') {
          return false;  // Raw newline inside a string.
        }
      } else if (c == '"') {
        in_string = true;
      }
    }
    return !in_string;
  };
  EXPECT_TRUE(check_balanced_quotes());
}

// Text localization must point at the exact 1-based source lines: the
// structural entries carry "file:line" locations from the parsed spans.
TEST(ReportToJsonTest, StructuralLocationsCarryExactLineNumbers) {
  auto r1 = cisco::ParseCiscoConfig(
                "hostname r1\n"
                "ip route 10.5.0.0 255.255.0.0 10.0.0.1\n",
                "r1.cfg")
                .config;
  auto r2 = cisco::ParseCiscoConfig(
                "hostname r2\n"
                "!\n"
                "ip route 10.5.0.0 255.255.0.0 10.0.0.1 200\n",
                "r2.cfg")
                .config;
  DiffReport report = ConfigDiff(r1, r2);
  std::string json = ReportToJson(report, "r1", "r2");
  EXPECT_NE(json.find("\"location1\": \"r1.cfg:2\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"location2\": \"r2.cfg:3\""), std::string::npos)
      << json;
}

TEST(ReportToJsonTest, WarningEntriesSerialized) {
  DiffReport report;
  DifferenceEntry warning;
  warning.kind = DifferenceEntry::Kind::kWarning;
  warning.title = "Warning";
  warning.rendered = "something odd\n";
  report.entries.push_back(warning);
  std::string json = ReportToJson(report, "a", "b");
  EXPECT_NE(json.find("\"kind\": \"warning\""), std::string::npos);
  // Warnings alone leave the configs equivalent.
  EXPECT_NE(json.find("\"equivalent\": true"), std::string::npos);
}

}  // namespace
}  // namespace campion::core
