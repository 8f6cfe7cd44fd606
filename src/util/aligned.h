// Cache-line-aligned storage for filter tables.
//
// The paper's single-cache-miss guarantee (§5.2.1 constraint 1) requires the
// bin array to be laid out so no PD straddles a cache-line boundary: PD256s
// are packed two per 64-byte line, PD512s one per line.  AlignedBuffer
// provides zero-initialized, 64-byte-aligned arrays for that purpose.
//
// Tables of 2 MiB or more are 2 MiB-aligned and request transparent huge
// pages (madvise(MADV_HUGEPAGE)) before they are first touched.  A probe of
// a large table is a random access, and with 4 KiB pages nearly every one
// is a TLB miss on top of the cache miss.  If the kernel declines, the
// buffer simply stays on base pages.
#ifndef PREFIXFILTER_SRC_UTIL_ALIGNED_H_
#define PREFIXFILTER_SRC_UTIL_ALIGNED_H_

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>

#include <sys/mman.h>

namespace prefixfilter {

inline constexpr size_t kCacheLineBytes = 64;
inline constexpr size_t kHugePageBytes = size_t{2} << 20;

// A fixed-size, zero-initialized array of trivially constructible elements:
// 64-byte-aligned, or 2 MiB-aligned on huge pages from kHugePageBytes up.
// Move-only.
template <typename T>
class AlignedBuffer {
 public:
  AlignedBuffer() : data_(nullptr), size_(0) {}

  explicit AlignedBuffer(size_t size) : size_(size) {
    const size_t bytes = SizeBytes();
    const bool huge = bytes >= kHugePageBytes;
    // posix_memalign, unlike aligned_alloc, takes sizes that are not a
    // multiple of the alignment, so no tail is allocated past SizeBytes().
    const size_t alignment = huge ? kHugePageBytes : kCacheLineBytes;
    void* p = nullptr;
    if (posix_memalign(&p, alignment, bytes) != 0) throw std::bad_alloc();
    data_ = static_cast<T*>(p);
    // Before the zeroing below, so its first touch faults in huge pages.
    if (huge) (void)madvise(data_, bytes, MADV_HUGEPAGE);
    std::memset(static_cast<void*>(data_), 0, bytes);
  }

  AlignedBuffer(AlignedBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}

  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      Free();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }

  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  ~AlignedBuffer() { Free(); }

  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  T* data() { return data_; }
  const T* data() const { return data_; }
  size_t size() const { return size_; }
  size_t SizeBytes() const { return RoundUp(size_ * sizeof(T), kCacheLineBytes); }

 private:
  static size_t RoundUp(size_t v, size_t unit) {
    return (v + unit - 1) / unit * unit;
  }
  void Free() {
    std::free(data_);
    data_ = nullptr;
  }

  T* data_;
  size_t size_;
};

}  // namespace prefixfilter

#endif  // PREFIXFILTER_SRC_UTIL_ALIGNED_H_
