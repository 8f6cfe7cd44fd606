#include "src/util/aligned.h"

#include <cstdint>
#include <utility>

#include <gtest/gtest.h>

namespace prefixfilter {
namespace {

TEST(AlignedBuffer, CacheLineAligned) {
  AlignedBuffer<uint8_t> buf(100);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(buf.data()) % kCacheLineBytes, 0u);
}

TEST(AlignedBuffer, ZeroInitialized) {
  AlignedBuffer<uint64_t> buf(1000);
  for (size_t i = 0; i < buf.size(); ++i) EXPECT_EQ(buf[i], 0u);
}

TEST(AlignedBuffer, SizeBytesRoundsToCacheLine) {
  AlignedBuffer<uint8_t> buf(1);
  EXPECT_EQ(buf.SizeBytes(), kCacheLineBytes);
  AlignedBuffer<uint8_t> buf2(65);
  EXPECT_EQ(buf2.SizeBytes(), 2 * kCacheLineBytes);
}

TEST(AlignedBuffer, ReadWrite) {
  AlignedBuffer<uint32_t> buf(16);
  for (uint32_t i = 0; i < 16; ++i) buf[i] = i * i;
  for (uint32_t i = 0; i < 16; ++i) EXPECT_EQ(buf[i], i * i);
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer<uint32_t> a(8);
  a[3] = 42;
  const uint32_t* ptr = a.data();
  AlignedBuffer<uint32_t> b(std::move(a));
  EXPECT_EQ(b.data(), ptr);
  EXPECT_EQ(b[3], 42u);
  EXPECT_EQ(a.data(), nullptr);  // NOLINT(bugprone-use-after-move)
}

TEST(AlignedBuffer, MoveAssign) {
  AlignedBuffer<uint32_t> a(8);
  a[0] = 7;
  AlignedBuffer<uint32_t> b(4);
  b = std::move(a);
  EXPECT_EQ(b[0], 7u);
  EXPECT_EQ(b.size(), 8u);
}

// From kHugePageBytes up the buffer is 2 MiB-aligned (and asks for huge
// pages); it must still be zeroed and move and free like any other.
TEST(AlignedBuffer, LargeBufferIsHugePageAligned) {
  const size_t size = 2 * kHugePageBytes + 100;
  AlignedBuffer<uint8_t> a(size);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a.data()) % kHugePageBytes, 0u);
  EXPECT_EQ(a.SizeBytes(), 2 * kHugePageBytes + 2 * kCacheLineBytes);
  for (size_t i = 0; i < size; ++i) ASSERT_EQ(a[i], 0u) << "i=" << i;
  a[size - 1] = 9;

  const uint8_t* ptr = a.data();
  AlignedBuffer<uint8_t> b(std::move(a));
  EXPECT_EQ(b.data(), ptr);
  EXPECT_EQ(b[size - 1], 9u);
  EXPECT_EQ(a.data(), nullptr);  // NOLINT(bugprone-use-after-move)

  AlignedBuffer<uint8_t> c(kHugePageBytes);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(c.data()) % kHugePageBytes, 0u);
  c = std::move(b);  // frees c's own huge buffer
  EXPECT_EQ(c.data(), ptr);
  EXPECT_EQ(c.size(), size);
}

TEST(AlignedBuffer, BufferBelowHugePageSizeKeepsCacheLineAlignment) {
  AlignedBuffer<uint64_t> buf((kHugePageBytes - kCacheLineBytes) / 8);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(buf.data()) % kCacheLineBytes, 0u);
  EXPECT_EQ(buf.SizeBytes(), kHugePageBytes - kCacheLineBytes);
  for (size_t i = 0; i < buf.size(); ++i) ASSERT_EQ(buf[i], 0u);
}

}  // namespace
}  // namespace prefixfilter
