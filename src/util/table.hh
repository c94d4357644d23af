/**
 * @file
 * Console table and JSON emission for benchmark harnesses. Every bench
 * binary prints the rows/series of the corresponding paper figure through
 * this printer so output stays uniform and machine-parseable.
 */

#ifndef PIM_UTIL_TABLE_HH
#define PIM_UTIL_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace pim::util {

class JsonWriter;

/**
 * Column-aligned text table with an optional title, built row by row.
 * Cells are strings; helpers format numbers with sensible precision.
 */
class Table
{
  public:
    /** @param title caption printed above the table. */
    explicit Table(std::string title);

    /** Set the header row. */
    void setHeader(std::vector<std::string> cols);

    /** Append a data row (must match header width if one was set). */
    void addRow(std::vector<std::string> cols);

    /** Format a double with the given number of decimals. */
    static std::string num(double v, int decimals = 2);

    /** Format an integer. */
    static std::string num(uint64_t v);
    static std::string num(int64_t v);
    static std::string num(int v) { return num(static_cast<int64_t>(v)); }

    /** Render the aligned table to the stream. */
    void print(std::ostream &os) const;

    /**
     * Emit the table as one JSON value:
     * {"title": ..., "header": [...], "rows": [[...], ...]} (cells stay
     * strings, exactly as printed). Used by the bench binaries' --json
     * output so every figure's numbers are machine-readable in the same
     * shape they appear on the console.
     */
    void writeJson(JsonWriter &j) const;

  private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace pim::util

#endif // PIM_UTIL_TABLE_HH
