#include "common/table.h"

#include <cstdio>
#include <ostream>
#include <sstream>

#include "common/logging.h"

namespace sigcomp
{

std::string
formatFixed(double v, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    return buf;
}

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    SC_ASSERT(!headers_.empty(), "table needs at least one column");
}

void
TextTable::addRow(std::vector<std::string> row)
{
    SC_ASSERT(row.size() == headers_.size(),
              "row arity ", row.size(), " != ", headers_.size());
    rows_.push_back(std::move(row));
}

TextTable &
TextTable::beginRow()
{
    SC_ASSERT(!rowOpen_, "previous row not finished");
    rowOpen_ = true;
    pending_.clear();
    return *this;
}

TextTable &
TextTable::cell(const std::string &text)
{
    SC_ASSERT(rowOpen_, "cell() outside beginRow()/endRow()");
    pending_.push_back(text);
    return *this;
}

TextTable &
TextTable::cell(double v, int decimals)
{
    return cell(formatFixed(v, decimals));
}

TextTable &
TextTable::cell(std::uint64_t v)
{
    return cell(std::to_string(v));
}

void
TextTable::endRow()
{
    SC_ASSERT(rowOpen_, "endRow() without beginRow()");
    rowOpen_ = false;
    addRow(pending_);
    pending_.clear();
}

std::string
TextTable::toString() const
{
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        width[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());

    auto emit_row = [&](std::ostringstream &os,
                        const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << (c ? "  " : "");
            os << row[c];
            os << std::string(width[c] - row[c].size(), ' ');
        }
        os << '\n';
    };

    std::ostringstream os;
    emit_row(os, headers_);
    std::size_t total = 0;
    for (std::size_t c = 0; c < width.size(); ++c)
        total += width[c] + (c ? 2 : 0);
    os << std::string(total, '-') << '\n';
    for (const auto &row : rows_)
        emit_row(os, row);
    return os.str();
}

void
TextTable::print(std::ostream &os) const
{
    os << toString();
}

} // namespace sigcomp
