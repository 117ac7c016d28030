#include "sigcomp/compressed_word.h"

#include <algorithm>

namespace sigcomp::sig
{

const std::string &
encodingName(Encoding enc)
{
    static const std::string names[] = {"ext2", "ext3", "half1", "?"};
    return names[std::min(static_cast<std::size_t>(enc), std::size_t{3})];
}

} // namespace sigcomp::sig
