// Unit tests for ftl::util — engineering-number parsing, string helpers,
// CSV output, console tables, and the contract macros.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <ostream>

#include "ftl/util/csv.hpp"
#include "ftl/util/error.hpp"
#include "ftl/util/strings.hpp"
#include "ftl/util/table.hpp"
#include "ftl/util/units.hpp"

namespace {

using ftl::util::parse_engineering;

TEST(Units, ParsesPlainNumbers) {
  EXPECT_DOUBLE_EQ(*parse_engineering("42"), 42.0);
  EXPECT_DOUBLE_EQ(*parse_engineering("-3.5"), -3.5);
  EXPECT_DOUBLE_EQ(*parse_engineering("1e-9"), 1e-9);
  EXPECT_DOUBLE_EQ(*parse_engineering("+0.25"), 0.25);
}

struct SuffixCase {
  const char* text;
  double expected;
};

// Without a printer gtest dumps the struct's raw bytes, the text pointer
// included, and the registered test names would change from build to build.
void PrintTo(const SuffixCase& c, std::ostream* os) { *os << c.text; }

class UnitsSuffix : public ::testing::TestWithParam<SuffixCase> {};

TEST_P(UnitsSuffix, ParsesSuffix) {
  const auto& p = GetParam();
  const auto v = parse_engineering(p.text);
  ASSERT_TRUE(v.has_value()) << p.text;
  EXPECT_DOUBLE_EQ(*v, p.expected) << p.text;
}

INSTANTIATE_TEST_SUITE_P(
    AllSuffixes, UnitsSuffix,
    ::testing::Values(
        SuffixCase{"1f", 1e-15}, SuffixCase{"2p", 2e-12},
        SuffixCase{"3n", 3e-9}, SuffixCase{"4u", 4e-6},
        SuffixCase{"5m", 5e-3}, SuffixCase{"6k", 6e3},
        SuffixCase{"7meg", 7e6}, SuffixCase{"8g", 8e9},
        SuffixCase{"9t", 9e12}, SuffixCase{"10a", 10e-18},
        SuffixCase{"1.5K", 1.5e3}, SuffixCase{"2MEG", 2e6},
        SuffixCase{"500kOhm", 500e3}, SuffixCase{"30ns", 30e-9},
        SuffixCase{"10fF", 10e-15}, SuffixCase{"1.2V", 1.2},
        SuffixCase{"0.35um", 0.35e-6}, SuffixCase{"-0.57V", -0.57}));

TEST(Units, RejectsMalformedInput) {
  EXPECT_FALSE(parse_engineering("").has_value());
  EXPECT_FALSE(parse_engineering("abc").has_value());
  EXPECT_FALSE(parse_engineering("1.2.3").has_value());
  EXPECT_FALSE(parse_engineering("3k9k").has_value());
  EXPECT_FALSE(parse_engineering("4u5").has_value());
}

TEST(Units, ThrowingVariant) {
  EXPECT_DOUBLE_EQ(ftl::util::parse_engineering_or_throw("2.5k"), 2500.0);
  EXPECT_THROW(ftl::util::parse_engineering_or_throw("zzz"), ftl::Error);
}

TEST(Units, FormatSiPicksBand) {
  EXPECT_EQ(ftl::util::format_si(11.3e-9, 3, "s"), "11.3ns");
  EXPECT_EQ(ftl::util::format_si(1.2e-3, 2, "A"), "1.2mA");
  EXPECT_EQ(ftl::util::format_si(500e3, 3), "500k");
  EXPECT_EQ(ftl::util::format_si(0.0, 3, "V"), "0V");
  EXPECT_EQ(ftl::util::format_si(-4.7e-9, 2, "s"), "-4.7ns");
}

TEST(Strings, Split) {
  const auto tokens = ftl::util::split("a  b\tc ", " \t");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "a");
  EXPECT_EQ(tokens[1], "b");
  EXPECT_EQ(tokens[2], "c");
  EXPECT_TRUE(ftl::util::split("", " ").empty());
  EXPECT_TRUE(ftl::util::split("   ", " ").empty());
}

TEST(Strings, Trim) {
  EXPECT_EQ(ftl::util::trim("  x  "), "x");
  EXPECT_EQ(ftl::util::trim(""), "");
  EXPECT_EQ(ftl::util::trim(" \t\r\n"), "");
  EXPECT_EQ(ftl::util::trim("a b"), "a b");
}

TEST(Strings, CaseHelpers) {
  EXPECT_EQ(ftl::util::to_lower("AbC"), "abc");
  EXPECT_TRUE(ftl::util::istarts_with("PULSE(0 1)", "pulse"));
  EXPECT_FALSE(ftl::util::istarts_with("PU", "pulse"));
  EXPECT_TRUE(ftl::util::iequals("GND", "gnd"));
  EXPECT_FALSE(ftl::util::iequals("gnd", "gnd0"));
}

TEST(Csv, WritesRowsAndCountsThem) {
  const std::string path = ::testing::TempDir() + "/ftl_csv_test.csv";
  {
    ftl::util::CsvWriter csv(path);
    csv.write_header({"x", "y"});
    csv.write_row(std::vector<double>{1.0, 2.0});
    csv.write_row(std::vector<double>{3.0, 4.5});
    EXPECT_EQ(csv.rows(), 2);
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "x,y");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "1,2");
  std::remove(path.c_str());
}

TEST(Csv, ThrowsOnUnwritablePath) {
  EXPECT_THROW(ftl::util::CsvWriter("/nonexistent-dir/x.csv"), ftl::Error);
}

TEST(Table, RendersAlignedColumns) {
  ftl::util::ConsoleTable table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "12345"});
  const std::string text = table.render();
  EXPECT_NE(text.find("| name  | value |"), std::string::npos);
  EXPECT_NE(text.find("| alpha | 1     |"), std::string::npos);
  EXPECT_EQ(table.rows(), 2);
}

TEST(Table, PadsShortRows) {
  ftl::util::ConsoleTable table({"a", "b", "c"});
  table.add_row({"only"});
  EXPECT_NE(table.render().find("only"), std::string::npos);
}

TEST(Contracts, ExpectsThrowsWithContext) {
  try {
    FTL_EXPECTS_MSG(1 == 2, "math is broken");
    FAIL() << "should have thrown";
  } catch (const ftl::ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("math is broken"), std::string::npos);
  }
}

TEST(Contracts, PassingConditionDoesNotThrow) {
  EXPECT_NO_THROW(FTL_EXPECTS(2 + 2 == 4));
  EXPECT_NO_THROW(FTL_ENSURES(true));
}

TEST(ParseLong, AcceptsStrictBase10Integers) {
  EXPECT_EQ(*ftl::util::parse_long("0"), 0);
  EXPECT_EQ(*ftl::util::parse_long("42"), 42);
  EXPECT_EQ(*ftl::util::parse_long("-7"), -7);
  EXPECT_EQ(*ftl::util::parse_long("+13"), 13);
}

TEST(ParseLong, RejectsWhatAtoiSilentlyZeroes) {
  // The ftl_run regression: these all atoi() to 0 (or a junk prefix).
  EXPECT_FALSE(ftl::util::parse_long("banana"));
  EXPECT_FALSE(ftl::util::parse_long("0x"));
  EXPECT_FALSE(ftl::util::parse_long("12ab"));
  EXPECT_FALSE(ftl::util::parse_long(""));
  EXPECT_FALSE(ftl::util::parse_long(" 42"));
  EXPECT_FALSE(ftl::util::parse_long("42 "));
  EXPECT_FALSE(ftl::util::parse_long("4.5"));
  EXPECT_FALSE(ftl::util::parse_long("-"));
  EXPECT_FALSE(ftl::util::parse_long("99999999999999999999999999"));
  EXPECT_FALSE(ftl::util::parse_long(std::string_view("4\0002", 3)));
}

TEST(ParseLong, RangeRestriction) {
  EXPECT_EQ(*ftl::util::parse_long_in("8", 1, 16), 8);
  EXPECT_FALSE(ftl::util::parse_long_in("0", 1, 16));
  EXPECT_FALSE(ftl::util::parse_long_in("17", 1, 16));
  EXPECT_EQ(*ftl::util::parse_long_in("16", 1, 16), 16);
}

}  // namespace
