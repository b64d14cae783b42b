// Test helper: caps the size of any file this process writes, so a write
// fails partway through as it would on a full disk, with no failure seam
// in the code under test. Writes that would extend a file past the cap
// write up to it and then fail with EFBIG; SIGXFSZ is ignored while the
// cap is set, so the process is not killed. The cap applies to every file
// the process writes, so hold it only across the one call that must fail.
#ifndef CDSTORE_TESTS_FILE_SIZE_LIMIT_H_
#define CDSTORE_TESTS_FILE_SIZE_LIMIT_H_

#include <sys/resource.h>

#include <csignal>
#include <cstdint>

namespace cdstore {

class FileSizeLimit {
 public:
  explicit FileSizeLimit(uint64_t max_bytes) {
    old_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    ::getrlimit(RLIMIT_FSIZE, &old_limit_);
    rlimit capped = old_limit_;
    capped.rlim_cur = static_cast<rlim_t>(max_bytes);
    ::setrlimit(RLIMIT_FSIZE, &capped);
  }
  ~FileSizeLimit() {
    ::setrlimit(RLIMIT_FSIZE, &old_limit_);
    std::signal(SIGXFSZ, old_handler_);
  }
  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

 private:
  rlimit old_limit_{};
  void (*old_handler_)(int) = SIG_DFL;
};

}  // namespace cdstore

#endif  // CDSTORE_TESTS_FILE_SIZE_LIMIT_H_
