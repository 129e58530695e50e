#pragma once
// Per-process scratch directories for tests that touch the file system.
// Two builds' suites may run at once (say an ASan and a TSan ctest on one
// machine). With one fixed /tmp name per test, each run would delete the
// other's spool, cache or socket mid-test; every name made here carries
// this process's pid, so concurrent runs never share a directory.

#include <gtest/gtest.h>
#include <sys/un.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace ulpdream::test {

/// A fresh, empty directory <tmp>/ulpd_<name>_<pid>, removed with all it
/// holds when the object goes out of scope. Converts to the directory's
/// path, so it passes wherever a std::filesystem::path is expected.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(std::filesystem::temp_directory_path() /
              ("ulpd_" + name + "_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }
  operator const std::filesystem::path&() const noexcept { return path_; }
  [[nodiscard]] std::filesystem::path operator/(
      const std::filesystem::path& name) const {
    return path_ / name;
  }
  /// `name` inside the directory, as the string the store APIs take.
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path_ / name).string();
  }
  /// A Unix-domain socket path inside the directory. Fails the test when
  /// the path does not fit sockaddr_un::sun_path (108 bytes on Linux),
  /// which bind() would otherwise reject or silently truncate.
  [[nodiscard]] std::string socket(const std::string& name) const {
    const std::string path = file(name);
    EXPECT_LT(path.size(), sizeof(sockaddr_un::sun_path))
        << path << " does not fit sun_path";
    return path;
  }

 private:
  std::filesystem::path path_;
};

}  // namespace ulpdream::test
