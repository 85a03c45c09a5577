// Build provenance stamped into BENCH_*.json files, so a committed baseline
// says which host and build it came from and a regression check can refuse
// to compare unlike hosts. TLC_BENCH_BUILD_TYPE and TLC_BENCH_GIT_SHA come
// from the tlc_bench_provenance CMake target, read at configure time.
#pragma once

#include <cstdio>

namespace tlc::bench {

#if defined(__clang__)
inline constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
inline constexpr const char* kCompiler = "gcc " __VERSION__;
#else
inline constexpr const char* kCompiler = "unknown";
#endif

inline constexpr const char* kBuildType = TLC_BENCH_BUILD_TYPE;
inline constexpr const char* kGitSha = TLC_BENCH_GIT_SHA;

/// Writes the `cpus`, `compiler`, `build_type` and `git_sha` members of a
/// JSON object, each on its own indented line ending in a comma.
inline void write_provenance_json(std::FILE* out, unsigned cpus) {
  std::fprintf(out,
               "  \"cpus\": %u,\n"
               "  \"compiler\": \"%s\",\n"
               "  \"build_type\": \"%s\",\n"
               "  \"git_sha\": \"%s\",\n",
               cpus, kCompiler, kBuildType, kGitSha);
}

}  // namespace tlc::bench
