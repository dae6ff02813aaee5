// Tests for CSV writing/parsing, table rendering, and the argv parser.

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "io/args.hpp"
#include "io/csv.hpp"
#include "io/table.hpp"

namespace {

using namespace rv::io;

// ---------------------------------------------------------------------------
// CSV
// ---------------------------------------------------------------------------

TEST(Csv, EscapingRules) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("with,comma"), "\"with,comma\"");
  EXPECT_EQ(csv_escape("with\"quote"), "\"with\"\"quote\"");
  EXPECT_EQ(csv_escape("with\nnewline"), "\"with\nnewline\"");
  EXPECT_EQ(csv_escape(""), "");
}

TEST(Csv, WriterProducesHeaderAndRows) {
  std::ostringstream os;
  CsvWriter w(os);
  w.header({"a", "b"});
  w.row({"1", "x,y"});
  w.row_numeric({2.5, -3.0});
  EXPECT_EQ(w.rows_written(), 2u);
  EXPECT_EQ(os.str(), "a,b\n1,\"x,y\"\n2.5,-3\n");
}

TEST(Csv, HeaderAfterDataThrows) {
  std::ostringstream os;
  CsvWriter w(os);
  w.row({"1"});
  EXPECT_THROW(w.header({"late"}), std::logic_error);
}

TEST(Csv, ParseRoundTrip) {
  const std::string text = "a,b\n1,\"x,y\"\n\"q\"\"uote\",2\n";
  const auto rows = parse_csv(text);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], (CsvRow{"a", "b"}));
  EXPECT_EQ(rows[1], (CsvRow{"1", "x,y"}));
  EXPECT_EQ(rows[2], (CsvRow{"q\"uote", "2"}));
}

TEST(Csv, ParseHandlesCrlfAndMissingTrailingNewline) {
  const auto rows = parse_csv("a,b\r\nc,d");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], (CsvRow{"c", "d"}));
}

TEST(Csv, ParseEmbeddedNewlineInQuotes) {
  const auto rows = parse_csv("\"line1\nline2\",x\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "line1\nline2");
}

TEST(Csv, ParseUnterminatedQuoteThrows) {
  EXPECT_THROW((void)parse_csv("\"oops"), std::invalid_argument);
}

TEST(Csv, WriterRoundTripsThroughParser) {
  std::ostringstream os;
  CsvWriter w(os);
  w.header({"x", "note"});
  w.row({"1.5", "a,b\nc\"d"});
  const auto rows = parse_csv(os.str());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][1], "a,b\nc\"d");
}

TEST(Csv, FormatDouble) {
  EXPECT_EQ(format_double(1.5), "1.5");
  EXPECT_EQ(format_double(2.0), "2");
}

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

TEST(TableTest, AsciiRenderingAligns) {
  Table t({"name", "value"});
  t.set_align(0, Align::kLeft);
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22.5"});
  const std::string ascii = t.to_ascii();
  EXPECT_NE(ascii.find("| alpha |"), std::string::npos);
  EXPECT_NE(ascii.find("|  22.5 |"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.columns(), 2u);
}

TEST(TableTest, MarkdownRendering) {
  Table t({"a", "b"});
  t.set_align(0, Align::kLeft);
  t.add_row({"x", "1"});
  const std::string md = t.to_markdown();
  EXPECT_NE(md.find("| a | b |"), std::string::npos);
  EXPECT_NE(md.find("| :--- | ---: |"), std::string::npos);
  EXPECT_NE(md.find("| x | 1 |"), std::string::npos);
}

TEST(TableTest, ArityMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(t.set_align(5, Align::kLeft), std::out_of_range);
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(TableTest, NumericRowsAndPrint) {
  Table t({"x", "y"});
  t.add_numeric_row({1.23456, 2.0}, 3);
  std::ostringstream os;
  t.print(os, "title");
  EXPECT_NE(os.str().find("title"), std::string::npos);
  EXPECT_NE(os.str().find("1.235"), std::string::npos);
}

TEST(TableTest, Formatters) {
  EXPECT_EQ(format_fixed(1.23456, 2), "1.23");
  EXPECT_EQ(format_fixed(0.0, 2), "0.00");
  // Very large/small magnitudes switch to scientific form.
  EXPECT_NE(format_fixed(1.5e9, 3).find('e'), std::string::npos);
  EXPECT_NE(format_fixed(1.5e-6, 3).find('e'), std::string::npos);
  EXPECT_EQ(format_sci(12345.0, 2), "1.23e+04");
}

// ---------------------------------------------------------------------------
// Args
// ---------------------------------------------------------------------------

TEST(ArgsTest, ParsesDeclaredFlags) {
  Args args;
  args.declare("name", "default", "a string");
  args.declare_double("x", 1.5, "a double");
  args.declare_int("n", 7, "an int");
  args.declare_bool("verbose", "a flag");
  const char* argv[] = {"prog", "--name", "value", "--x", "2.25",
                        "--verbose"};
  args.parse(6, argv);
  EXPECT_EQ(args.get("name"), "value");
  EXPECT_DOUBLE_EQ(args.get_double("x"), 2.25);
  EXPECT_EQ(args.get_int("n"), 7);  // default
  EXPECT_TRUE(args.get_bool("verbose"));
  EXPECT_FALSE(args.help_requested());
}

TEST(ArgsTest, HelpFlag) {
  Args args;
  args.declare_int("n", 1, "count");
  const char* argv[] = {"prog", "--help"};
  args.parse(2, argv);
  EXPECT_TRUE(args.help_requested());
  EXPECT_NE(args.usage("prog").find("--n"), std::string::npos);
}

TEST(ArgsTest, UnknownFlagThrows) {
  Args args;
  const char* argv[] = {"prog", "--mystery", "1"};
  EXPECT_THROW(args.parse(3, argv), std::invalid_argument);
}

TEST(ArgsTest, MissingValueThrows) {
  Args args;
  args.declare_int("n", 1, "count");
  const char* argv[] = {"prog", "--n"};
  EXPECT_THROW(args.parse(2, argv), std::invalid_argument);
}

TEST(ArgsTest, MalformedNumbersThrow) {
  // Numeric values are validated by parse itself, so a front-end's
  // usage-error handling around parse covers them.
  Args args;
  args.declare_double("x", 1.0, "value");
  args.declare_int("n", 1, "count");
  const char* argv[] = {"prog", "--x", "1.5abc"};
  EXPECT_THROW(args.parse(3, argv), std::invalid_argument);
  const char* argv2[] = {"prog", "--n", "7.5"};
  Args args2;
  args2.declare_int("n", 1, "count");
  EXPECT_THROW(args2.parse(3, argv2), std::invalid_argument);
}

/// The message parse throws for `--flag value`, or "" if it parses.
std::string parse_error(const char* flag, const char* value) {
  Args args;
  args.declare_double("horizon", 1.0, "a double");
  args.declare_int("threads", 0, "an int");
  const char* argv[] = {"prog", flag, value};
  try {
    args.parse(3, argv);
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(ArgsTest, NumericValuesAreValidatedAtParse) {
  // Non-numbers, trailing junk, out-of-range and non-finite values are
  // rejected up front, naming the flag and the value.
  for (const char* bad : {"abc", "", " 1", "1.5abc", "0x10", "1e999", "inf",
                          "nan"}) {
    const std::string message = parse_error("--horizon", bad);
    EXPECT_NE(message.find("--horizon"), std::string::npos) << bad;
    EXPECT_NE(message.find(std::string("'") + bad + "'"), std::string::npos)
        << message;
  }
  for (const char* bad : {"x", "7.5", "3abc", "1e3", "99999999999"}) {
    const std::string message = parse_error("--threads", bad);
    EXPECT_NE(message.find("--threads"), std::string::npos) << bad;
    EXPECT_NE(message.find(std::string("'") + bad + "'"), std::string::npos)
        << message;
  }
  EXPECT_EQ(parse_error("--horizon", "abc"),
            "Args: --horizon expects a finite number, got 'abc'");
  EXPECT_EQ(parse_error("--threads", "99999999999"),
            "Args: --threads expects an int, got '99999999999'");

  Args args;
  args.declare_double("horizon", 1.0, "a double");
  args.declare_int("threads", 0, "an int");
  const char* argv[] = {"prog", "--horizon", "-2.5e3", "--threads", "-4"};
  args.parse(5, argv);
  EXPECT_EQ(args.get_double("horizon"), -2500.0);
  EXPECT_EQ(args.get_int("threads"), -4);
}

TEST(ArgsTest, TypeMismatchThrows) {
  Args args;
  args.declare_int("n", 1, "count");
  EXPECT_THROW((void)args.get_double("n"), std::invalid_argument);
  EXPECT_THROW((void)args.get("n"), std::invalid_argument);
  EXPECT_THROW((void)args.get_bool("n"), std::invalid_argument);
}

TEST(ArgsTest, PositionalArgumentRejected) {
  Args args;
  const char* argv[] = {"prog", "stray"};
  EXPECT_THROW(args.parse(2, argv), std::invalid_argument);
}

}  // namespace
