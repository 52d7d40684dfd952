// String escaping for the deterministic JSON the tools emit.
#pragma once

#include <cstdio>
#include <string>

namespace dfc {

/// `s` as the body of a JSON string literal: quotes and backslashes
/// escaped, \n and \t spelled out, other control characters as \u00XX.
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace dfc
