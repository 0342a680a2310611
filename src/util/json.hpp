// The JSON string escaper every hand-written JSON document in the program
// uses (web service, router, trace export).
#pragma once

#include <string>
#include <string_view>

namespace bwaver {

/// `s` escaped for use inside a JSON string literal: `"` and `\` are
/// backslash-escaped, \n \r \t get their short escapes, and every other
/// byte below 0x20 becomes \u00XX. Other bytes pass through unchanged.
std::string json_escape(std::string_view s);

}  // namespace bwaver
