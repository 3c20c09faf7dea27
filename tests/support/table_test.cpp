// Tests for the markdown/CSV table renderer.
#include "support/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace rbb {
namespace {

TEST(Table, RejectsEmptyHeaders) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, MarkdownLayout) {
  Table t({"n", "value"});
  t.row().cell(std::uint64_t{8}).cell(1.5, 1);
  t.row().cell(std::uint64_t{1024}).cell(2.25, 1);
  const std::string md = t.markdown();
  EXPECT_NE(md.find("| n    | value |"), std::string::npos);
  EXPECT_NE(md.find("| 8    | 1.5   |"), std::string::npos);
  EXPECT_NE(md.find("| 1024 | 2.2   |"), std::string::npos);
  // Header separator present.
  EXPECT_NE(md.find("|------|"), std::string::npos);
}

TEST(Table, CellOrderEnforced) {
  Table t({"a", "b"});
  EXPECT_THROW(t.cell("x"), std::logic_error);  // no row started
  t.row().cell("1").cell("2");
  EXPECT_THROW(t.cell("3"), std::logic_error);  // row full
}

TEST(Table, IncompleteRowDetectedOnNextRow) {
  Table t({"a", "b"});
  t.row().cell("only one");
  EXPECT_THROW(t.row(), std::logic_error);
}

TEST(Table, CsvEscaping) {
  Table t({"name", "note"});
  t.row().cell("plain").cell("with,comma");
  t.row().cell("quo\"te").cell("multi\nline");
  const std::string csv = t.csv();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"quo\"\"te\""), std::string::npos);
  EXPECT_NE(csv.find("\"multi\nline\""), std::string::npos);
}

TEST(Table, CsvRoundTripStructure) {
  Table t({"x", "y"});
  t.row().cell(std::int64_t{-3}).cell(std::uint64_t{7});
  std::istringstream in(t.csv());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::getline(in, line);
  EXPECT_EQ(line, "-3,7");
}

TEST(Table, PrintIncludesTitle) {
  Table t({"h"});
  t.row().cell("v");
  std::ostringstream out;
  t.print(out, "My Experiment");
  EXPECT_NE(out.str().find("### My Experiment"), std::string::npos);
  EXPECT_NE(out.str().find("| h |"), std::string::npos);
}

TEST(FormatDouble, Precision) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_double(1.0, 0), "1");
  EXPECT_EQ(format_double(-0.5, 3), "-0.500");
}

}  // namespace
}  // namespace rbb
