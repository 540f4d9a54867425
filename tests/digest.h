// FNV-1a-64 digests for bit pins, and the toolchain line that decides
// whether a floating-point digest is comparable. Shared by the gallery
// table (gallery_digest_test) and the envelope kernel's pins
// (fem_skyline_test); both compare double-bit digests only when the build's
// toolchain equals the line recorded in tests/golden/gallery_digests.txt.
// Needs FEIO_GOLDEN_DIR.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace golden {

#define FEIO_DIGEST_STR2(x) #x
#define FEIO_DIGEST_STR(x) FEIO_DIGEST_STR2(x)

// Compiler, target and whether fused multiply-add may be contracted: the
// facts that decide the bits of a floating-point field.
inline std::string toolchain() {
  std::string s;
#if defined(__clang__)
  s = "clang-" FEIO_DIGEST_STR(__clang_major__) "." FEIO_DIGEST_STR(
      __clang_minor__) "." FEIO_DIGEST_STR(__clang_patchlevel__);
#elif defined(__GNUC__)
  s = "gcc-" FEIO_DIGEST_STR(__GNUC__) "." FEIO_DIGEST_STR(
      __GNUC_MINOR__) "." FEIO_DIGEST_STR(__GNUC_PATCHLEVEL__);
#else
  s = "unknown-compiler";
#endif
#if defined(__x86_64__)
  s += " x86_64";
#elif defined(__aarch64__)
  s += " aarch64";
#else
  s += " other-target";
#endif
#if defined(__FMA__)
  s += " fma";
#endif
  return s;
}

// The `toolchain ...` line of the committed gallery table ("" if missing).
inline std::string table_toolchain() {
  std::ifstream in(FEIO_GOLDEN_DIR "/gallery_digests.txt");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("toolchain ", 0) == 0) return line.substr(10);
  }
  return "";
}

class Fnv {
 public:
  Fnv& bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ull;
    }
    return *this;
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

inline std::string digest(const std::string& s) {
  return Fnv().bytes(s.data(), s.size()).hex();
}

inline std::string digest(const std::vector<double>& v) {
  return Fnv().bytes(v.data(), v.size() * sizeof(double)).hex();
}

}  // namespace golden
