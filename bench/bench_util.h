// Shared helpers for the table/figure reproduction binaries.
#ifndef CDSTORE_BENCH_BENCH_UTIL_H_
#define CDSTORE_BENCH_BENCH_UTIL_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/util/bytes.h"
#include "src/util/rng.h"

namespace cdstore {

// Parses "--size_mb=64"-style flags from argv; returns fallback if absent.
// A value that is not, in full, a finite non-negative number prints the usage
// and exits 2: read as 0, it would silently turn a gate off or shrink a run
// to nothing.
inline double FlagValue(int argc, char** argv, const std::string& name, double fallback) {
  std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      const char* text = arg.c_str() + prefix.size();
      char* end = nullptr;
      double value = std::strtod(text, &end);
      if (end == text || *end != '\0' || !std::isfinite(value) || value < 0) {
        std::fprintf(stderr,
                     "usage: %s [--flag=value ...]\n"
                     "  --%s=%s: expected a finite, non-negative number\n",
                     argv[0], name.c_str(), text);
        std::exit(2);
      }
      return value;
    }
  }
  return fallback;
}

inline Bytes RandomData(size_t bytes, uint64_t seed = 42) {
  Rng rng(seed);
  return rng.RandomBytes(bytes);
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

}  // namespace cdstore

#endif  // CDSTORE_BENCH_BENCH_UTIL_H_
