// Byte-exact golden documents for the export formats, kept as files under
// tests/golden/ (STPX_GOLDEN_DIR is set per test target in CMake).  Each
// file holds the pinned document followed by one newline.
#pragma once

#include <fstream>
#include <sstream>
#include <string>

namespace stpx::golden {

/// The content of tests/golden/<name>; "" when the file is missing, so a
/// missing golden fails the comparison that reads it.
inline std::string read(const std::string& name) {
  std::ifstream in(std::string(STPX_GOLDEN_DIR) + "/" + name,
                   std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace stpx::golden
