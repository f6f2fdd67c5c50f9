// The op stream is a function of the seed alone: the same seed yields an
// identical stream (base store included) for every workload, and a
// different seed a different one.  Run with `ctest --test-dir <build dir>`.
#include <cstdio>

#include "stream.hpp"

int main() {
  int failures = 0;
  for (const perfbench::Workload& w : perfbench::workloads()) {
    const std::uint64_t a = perfbench::stream_digest(w, 7, 2000);
    const std::uint64_t b = perfbench::stream_digest(w, 7, 2000);
    const std::uint64_t c = perfbench::stream_digest(w, 8, 2000);
    if (a != b) {
      std::printf("FAIL %s: seed 7 gave two different streams\n", w.name.c_str());
      ++failures;
    }
    if (a == c) {
      std::printf("FAIL %s: seeds 7 and 8 gave the same stream\n", w.name.c_str());
      ++failures;
    }
    std::printf("%s: seed 7 -> %016llx, seed 8 -> %016llx\n", w.name.c_str(),
                static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(c));
  }
  return failures == 0 ? 0 : 1;
}
