#pragma once

/// \file json.hpp
/// The JSON token writers shared by `ResultSet::to_json` and the
/// `rv_serve` reply frames.

#include <string>
#include <string_view>

namespace rv::io {

/// Escapes a string per RFC 8259 for use between quotes: quote,
/// backslash, and *every* control character below 0x20 (named escapes
/// where JSON has them, lower-case \u00XX otherwise).  Raw control
/// characters in the output would make the document unparseable.
[[nodiscard]] std::string json_escape(std::string_view s);

/// JSON number token: `format_double` (12 significant digits).  RFC
/// 8259 has no inf/nan literals, so non-finite values are emitted as
/// null.
[[nodiscard]] std::string json_number(double v);

}  // namespace rv::io
