// Byte-for-byte golden files under tests/data/, shared by the tests that
// pin rendered output (lab experiment text, generator edge lists).
// Regenerate after a *deliberate* output change by running the test
// binary with MCAST_REGEN_GOLDEN=1.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#ifndef MCAST_TEST_DATA_DIR
#error "MCAST_TEST_DATA_DIR must be defined by the build"
#endif

namespace mcast::testgolden {

/// Compares `rendered` with tests/data/<file> byte for byte, or rewrites
/// the file when MCAST_REGEN_GOLDEN is set.
inline void check_file(const std::string& file, const std::string& rendered) {
  const std::string path = std::string(MCAST_TEST_DATA_DIR) + "/" + file;
  if (std::getenv("MCAST_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << rendered;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden " << path
                  << " (regenerate with MCAST_REGEN_GOLDEN=1)";
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(rendered, want.str()) << file << " drifted from " << path;
}

}  // namespace mcast::testgolden
