// Per-case scratch directories for the storage suites. Every test case gets
// a fresh mkdtemp directory under ::testing::TempDir() and removes it, with
// every store saved inside, when the case ends — so the suites pass whether
// ctest runs each case as its own process or the binary runs them all in
// one, and leave nothing behind either way.

#ifndef INCDB_TESTS_STORAGE_TEMP_STORE_DIR_H_
#define INCDB_TESTS_STORAGE_TEMP_STORE_DIR_H_

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace incdb {

/// Test fixture base owning one fresh directory per case. `Base` is
/// ::testing::Test or a ::testing::TestWithParam<T>.
template <typename Base = ::testing::Test>
class TempStoreTest : public Base {
 protected:
  void SetUp() override {
    std::string pattern = ::testing::TempDir();
    if (pattern.empty() || pattern.back() != '/') pattern += '/';
    pattern += "incdb_store_XXXXXX";
    ASSERT_NE(::mkdtemp(pattern.data()), nullptr) << pattern;
    root_ = pattern;
  }

  void TearDown() override {
    if (root_.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
    EXPECT_FALSE(ec) << root_ << ": " << ec.message();
  }

  /// A store directory path inside this case's directory (not created;
  /// Database::Save creates it).
  std::string StoreDir(const std::string& tag) const {
    return root_ + "/" + tag + ".incdb";
  }

 private:
  std::string root_;
};

}  // namespace incdb

#endif  // INCDB_TESTS_STORAGE_TEMP_STORE_DIR_H_
