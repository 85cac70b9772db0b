// Scratch files private to one test process. ctest runs several processes
// of the same test binary at once (each discovered test, plus the *_smoke
// reruns of whole binaries), so a fixed name under ::testing::TempDir()
// would be shared: one process could rewrite an artifact another process
// has mapped. Every process therefore writes into its own mkdtemp
// directory, removed when the process exits.
#pragma once

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

namespace sham::test {

/// This process's scratch directory, with a trailing '/'.
inline const std::string& process_temp_dir() {
  struct Dir {
    std::string path;
    Dir() {
      std::string pattern = ::testing::TempDir();
      if (!pattern.empty() && pattern.back() != '/') pattern += '/';
      pattern += "sham_test_XXXXXX";
      if (mkdtemp(pattern.data()) == nullptr) {
        throw std::runtime_error{"mkdtemp failed for " + pattern};
      }
      path = pattern + "/";
    }
    ~Dir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  };
  static const Dir dir;
  return dir.path;
}

/// Path of the file `name` inside process_temp_dir().
inline std::string temp_path(const std::string& name) {
  return process_temp_dir() + name;
}

}  // namespace sham::test
