// Descriptor-table exhaustion inside the test process, for the tests that
// pin the shared accept loop's EMFILE back-off (transport::Acceptor) on the
// daemon and on the metrics endpoint.
#pragma once

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <vector>

#include <gtest/gtest.h>

namespace primacy::test_support {

/// Lowers this process's soft descriptor limit to `headroom` above the
/// lowest free descriptor and fills every free slot below it with
/// /dev/null. Release() (or the destructor) closes the fillers and
/// restores the limit.
class DescriptorExhaustion {
 public:
  explicit DescriptorExhaustion(int headroom) {
    const int lowest_free = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    EXPECT_GE(lowest_free, 0);
    ::close(lowest_free);
    EXPECT_EQ(::getrlimit(RLIMIT_NOFILE, &saved_), 0);
    rlimit lowered = saved_;
    lowered.rlim_cur = static_cast<rlim_t>(lowest_free + headroom);
    lowered_ = ::setrlimit(RLIMIT_NOFILE, &lowered) == 0;
    if (!lowered_) {
      // Without the lowered limit the fill would run to the full table.
      ADD_FAILURE() << "setrlimit(RLIMIT_NOFILE) failed";
      return;
    }
    for (;;) {
      const int fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
      if (fd < 0) break;
      fillers_.push_back(fd);
    }
  }
  ~DescriptorExhaustion() { Release(); }

  DescriptorExhaustion(const DescriptorExhaustion&) = delete;
  DescriptorExhaustion& operator=(const DescriptorExhaustion&) = delete;

  /// Closes one filler, leaving exactly one free slot.
  void FreeOneSlot() {
    ASSERT_FALSE(fillers_.empty());
    ::close(fillers_.back());
    fillers_.pop_back();
  }

  void Release() {
    for (const int fd : fillers_) ::close(fd);
    fillers_.clear();
    if (lowered_) {
      EXPECT_EQ(::setrlimit(RLIMIT_NOFILE, &saved_), 0);
      lowered_ = false;
    }
  }

 private:
  rlimit saved_{};
  bool lowered_ = false;
  std::vector<int> fillers_;
};

}  // namespace primacy::test_support
