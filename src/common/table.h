/**
 * @file
 * ASCII table / CSV writer used by the benchmark harnesses to print
 * paper-style tables.
 */

#ifndef SIGCOMP_COMMON_TABLE_H_
#define SIGCOMP_COMMON_TABLE_H_

#include <iosfwd>
#include <string>
#include <vector>

namespace sigcomp
{

/**
 * A rectangular table of strings with a header row, rendered either
 * as aligned ASCII art or as CSV.
 */
class TextTable
{
  public:
    /** Create a table with the given column headers. */
    explicit TextTable(std::vector<std::string> headers);

    /** Append a full row; must match the header arity. */
    void addRow(std::vector<std::string> row);

    /** Begin an incremental row. */
    TextTable &beginRow();

    /** Append one cell to the row under construction. */
    TextTable &cell(const std::string &text);

    /** Append a numeric cell with fixed decimals. */
    TextTable &cell(double v, int decimals = 2);

    /** Append an integer cell. */
    TextTable &cell(std::uint64_t v);

    /** Finish the row under construction. */
    void endRow();

    /** Render with aligned columns and a separator under the header. */
    std::string toString() const;

    /** Convenience: print toString() to @p os. */
    void print(std::ostream &os) const;

    std::size_t rows() const { return rows_.size(); }
    std::size_t columns() const { return headers_.size(); }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
    std::vector<std::string> pending_;
    bool rowOpen_ = false;
};

/** Format a double with fixed decimals (helper shared with benches). */
std::string formatFixed(double v, int decimals);

} // namespace sigcomp

#endif // SIGCOMP_COMMON_TABLE_H_
