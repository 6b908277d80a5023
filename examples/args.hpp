// Positional size arguments of the examples. Each must be a positive
// decimal integer that fits in 32 bits, consumed in full; anything else
// (a word, zero, a sign, trailing characters, too many arguments) prints
// the usage line and exits 2 before any simulation runs.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>

namespace axipack::examples {

[[noreturn]] inline void usage_exit(const char* prog, const char* usage) {
  std::fprintf(stderr, "usage: %s %s\n(sizes are positive integers)\n", prog,
               usage);
  std::exit(2);
}

/// Overwrites `*sizes[i]` with argv[i + 1] where given; a size left out
/// keeps its default. `usage` lists the arguments, e.g. "[rows] [nnz]".
inline void parse_sizes(int argc, char** argv, const char* usage,
                        std::initializer_list<std::uint32_t*> sizes) {
  if (argc - 1 > static_cast<int>(sizes.size())) usage_exit(argv[0], usage);
  int i = 1;
  for (std::uint32_t* size : sizes) {
    if (i >= argc) break;
    const char* text = argv[i++];
    if (*text < '0' || *text > '9') usage_exit(argv[0], usage);
    char* end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (*end != '\0' || errno != 0 || value == 0 || value > UINT32_MAX) {
      usage_exit(argv[0], usage);
    }
    *size = static_cast<std::uint32_t>(value);
  }
}

}  // namespace axipack::examples
