// Reads a file of the committed golden corpus (tests/golden/data). Test
// targets that include this define PRIMACY_GOLDEN_DIR and put tests/ on
// their include path (tests/golden/CMakeLists.txt, tests/core/CMakeLists.txt).
#pragma once

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>

#include "util/bytes.h"

namespace primacy {

inline Bytes ReadGolden(const std::string& name) {
  const std::string path = std::string(PRIMACY_GOLDEN_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ADD_FAILURE() << "missing golden file " << path
                  << " (regenerate with make_golden)";
    return {};
  }
  const std::string raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  return BytesFromString(raw);
}

}  // namespace primacy
