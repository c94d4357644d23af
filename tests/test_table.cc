/**
 * @file
 * Unit tests for the table printer.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "util/table.hh"

using pim::util::Table;

TEST(Table, PrintsTitleHeaderAndRows)
{
    Table t("demo");
    t.setHeader({"a", "bb"});
    t.addRow({"1", "2"});
    t.addRow({"333", "4"});
    std::ostringstream os;
    t.print(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("== demo =="), std::string::npos);
    EXPECT_NE(s.find("a"), std::string::npos);
    EXPECT_NE(s.find("333"), std::string::npos);
}

TEST(Table, NumFormatting)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(3.0, 0), "3");
    EXPECT_EQ(Table::num(uint64_t{42}), "42");
    EXPECT_EQ(Table::num(int64_t{-7}), "-7");
}

TEST(Table, ColumnsAlign)
{
    Table t("align");
    t.setHeader({"col", "c"});
    t.addRow({"x", "longvalue"});
    std::ostringstream os;
    t.print(os);
    // Each data line should be at least as wide as the widest cells.
    std::istringstream is(os.str());
    std::string line;
    std::getline(is, line); // title
    std::getline(is, line); // header
    EXPECT_GE(line.size(), std::string("col  longvalue").size() - 2);
}

TEST(TableDeath, RowWidthMismatchPanics)
{
    Table t("bad");
    t.setHeader({"a"});
    EXPECT_DEATH(t.addRow({"1", "2"}), "row width");
}
