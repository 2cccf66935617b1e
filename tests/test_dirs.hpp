// Fresh per-test scratch directories for the campaign and service tests.
//
// gtest_discover_tests runs every case in its own process, and `ctest -j`
// runs those processes concurrently, so a per-process counter alone names
// the same directory in two cases at once.  The name therefore carries
// the process id and the running test's name as well (the suite name is
// left out to keep unix-socket paths under their length limit):
//
//   <gtest temp dir>/ds_<pid>_<Test>_<hint>_<n>
#pragma once

#include <unistd.h>

#include <cctype>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

namespace dramstress::test {

/// An empty directory no other test process can be using; `n` counts the
/// calls within this process, so one test can ask for several.
inline std::string fresh_dir(const std::string& hint) {
  static int counter = 0;
  std::string test = "none";
  if (const ::testing::TestInfo* info =
          ::testing::UnitTest::GetInstance()->current_test_info())
    test = info->name();
  for (char& c : test)
    if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
  const std::filesystem::path p =
      std::filesystem::path(::testing::TempDir()) /
      ("ds_" + std::to_string(::getpid()) + "_" + test + "_" + hint + "_" +
       std::to_string(counter++));
  std::filesystem::remove_all(p);
  std::filesystem::create_directories(p);
  return p.string();
}

}  // namespace dramstress::test
