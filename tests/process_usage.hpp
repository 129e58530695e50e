#pragma once
// What this process holds, read from /proc/self: the soak tests' meter.
// A server that leaves a thread, a stack mapping or a descriptor behind
// per connection shows up here long before it exhausts anything. Thread
// and descriptor counts alone are not enough: an exited thread that was
// never joined leaves no task behind but keeps its whole stack mapped,
// which only VmSize and VmRSS see.

#include <gtest/gtest.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

namespace ulpdream::soak {

struct ProcessUsage {
  long vm_size_kb = -1;
  long vm_rss_kb = -1;
  long threads = -1;
  long fds = -1;

  [[nodiscard]] bool available() const noexcept { return threads >= 0; }

  static ProcessUsage now() {
    ProcessUsage usage;
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
      std::istringstream fields(line);
      std::string key;
      long value = -1;
      fields >> key >> value;
      if (key == "VmSize:") usage.vm_size_kb = value;
      if (key == "VmRSS:") usage.vm_rss_kb = value;
      if (key == "Threads:") usage.threads = value;
    }
    std::error_code ec;
    long fds = 0;
    for (std::filesystem::directory_iterator it("/proc/self/fd", ec), end;
         !ec && it != end; it.increment(ec)) {
      ++fds;
    }
    if (!ec) usage.fds = fds;
    return usage;
  }

  std::string describe() const {
    return "VmSize " + std::to_string(vm_size_kb) + " kB, VmRSS " +
           std::to_string(vm_rss_kb) + " kB, " + std::to_string(threads) +
           " threads, " + std::to_string(fds) + " fds";
  }
};

/// Caps glibc's malloc arenas at one. A thread that allocates under
/// contention may otherwise get an arena of its own, which reserves 64 MiB
/// of address space for the life of the process (up to 8 per core), and
/// VmSize would measure the allocator rather than the server. Call it
/// before the first reading.
inline void cap_malloc_arenas() {
#if defined(__GLIBC__)
  (void)mallopt(M_ARENA_MAX, 1);
#endif
}

/// Slack a soak run may leave above its baseline. A leak of one unjoined
/// 8 MiB stack per connection over thousands of connections is tens of
/// GB of VmSize; these bounds only absorb allocator and stack caches.
inline constexpr long kVmSizeSlackKb = 256L << 10;
#if defined(__SANITIZE_ADDRESS__)
/// ASan parks freed blocks in a quarantine of up to 256 MiB before reuse,
/// so resident memory climbs with every allocation until it is full.
inline constexpr long kVmRssSlackKb = (256L + 64L) << 10;
#else
inline constexpr long kVmRssSlackKb = 64L << 10;
#endif
inline constexpr long kThreadSlack = 2;
inline constexpr long kFdSlack = 2;

/// Polls until the thread and descriptor counts are back within slack of
/// `base` (handlers finish asynchronously after their clients hang up),
/// giving up after `patience`; returns the last reading.
inline ProcessUsage settled_usage(
    const ProcessUsage& base,
    std::chrono::seconds patience = std::chrono::seconds(20)) {
  const auto deadline = std::chrono::steady_clock::now() + patience;
  for (;;) {
    const ProcessUsage usage = ProcessUsage::now();
    const bool settled = usage.threads <= base.threads + kThreadSlack &&
                         usage.fds <= base.fds + kFdSlack;
    if (settled || std::chrono::steady_clock::now() >= deadline) {
      return usage;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

/// Expects every reading of `now` to be within slack of `base`.
inline void expect_near_baseline(const ProcessUsage& base,
                                 const ProcessUsage& now) {
  const std::string both =
      "baseline " + base.describe() + "; now " + now.describe();
  EXPECT_LE(now.vm_size_kb, base.vm_size_kb + kVmSizeSlackKb) << both;
  EXPECT_LE(now.vm_rss_kb, base.vm_rss_kb + kVmRssSlackKb) << both;
  EXPECT_LE(now.threads, base.threads + kThreadSlack) << both;
  EXPECT_LE(now.fds, base.fds + kFdSlack) << both;
}

}  // namespace ulpdream::soak
