#include "util/table.hh"

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <sstream>

#include "util/json.hh"
#include "util/logging.hh"

namespace pim::util {

Table::Table(std::string title) : title_(std::move(title)) {}

void
Table::setHeader(std::vector<std::string> cols)
{
    header_ = std::move(cols);
}

void
Table::addRow(std::vector<std::string> cols)
{
    if (!header_.empty()) {
        PIM_ASSERT(cols.size() == header_.size(),
                   "row width ", cols.size(), " != header width ",
                   header_.size(), " in table '", title_, "'");
    }
    rows_.push_back(std::move(cols));
}

std::string
Table::num(double v, int decimals)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(decimals) << v;
    return os.str();
}

std::string
Table::num(uint64_t v)
{
    return std::to_string(v);
}

std::string
Table::num(int64_t v)
{
    return std::to_string(v);
}

void
Table::print(std::ostream &os) const
{
    std::vector<size_t> widths;
    auto grow = [&](const std::vector<std::string> &row) {
        if (widths.size() < row.size())
            widths.resize(row.size(), 0);
        for (size_t i = 0; i < row.size(); ++i)
            widths[i] = std::max(widths[i], row[i].size());
    };
    if (!header_.empty())
        grow(header_);
    for (const auto &r : rows_)
        grow(r);

    os << "== " << title_ << " ==\n";
    auto emit = [&](const std::vector<std::string> &row) {
        for (size_t i = 0; i < row.size(); ++i) {
            os << std::left << std::setw(static_cast<int>(widths[i]) + 2)
               << row[i];
        }
        os << "\n";
    };
    if (!header_.empty()) {
        emit(header_);
        size_t total = 0;
        for (size_t w : widths)
            total += w + 2;
        os << std::string(total, '-') << "\n";
    }
    for (const auto &r : rows_)
        emit(r);
    os.flush();
}

void
Table::writeJson(JsonWriter &j) const
{
    j.beginObject();
    j.key("title").value(title_);
    j.key("header").beginArray();
    for (const auto &h : header_)
        j.value(h);
    j.endArray();
    j.key("rows").beginArray();
    for (const auto &row : rows_) {
        j.beginArray();
        for (const auto &cell : row)
            j.value(cell);
        j.endArray();
    }
    j.endArray();
    j.endObject();
}

} // namespace pim::util
