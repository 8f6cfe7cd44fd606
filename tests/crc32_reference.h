// Test-only oracle for the wire CRC-32: the textbook bytewise table loop
// (IEEE 802.3, reflected, poly 0xEDB88320), table built bit by bit.  It
// shares no code with the kernels in src/util/simd.h, so the parity test
// (tests/kernel_differential_test.cc) and the frame-decoder fuzz target
// check those kernels against an independent spelling of the algorithm.
#ifndef PREFIXFILTER_TESTS_CRC32_REFERENCE_H_
#define PREFIXFILTER_TESTS_CRC32_REFERENCE_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace prefixfilter::testing_ref {

inline uint32_t Crc32Reference(const void* data, size_t len) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace prefixfilter::testing_ref

#endif  // PREFIXFILTER_TESTS_CRC32_REFERENCE_H_
