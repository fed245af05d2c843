/**
 * @file
 * Page-backed storage for large tables.
 *
 * An anonymous mapping comes zero-filled from the kernel and a page
 * becomes resident only once it is written, so a big table that is
 * mostly untouched costs address space, not memory. MADV_DONTNEED
 * hands the pages back and the range reads as zero again, which is
 * how a table is "reset" without a memset.
 *
 * Mappings of at least kHugePageSize bytes are 2 MiB-aligned and
 * hinted MADV_HUGEPAGE: with transparent huge pages in `madvise` mode,
 * random probes over them then miss the TLB per 2 MiB instead of per
 * 4 KiB. Smaller ones are plain page-granular mappings, unhinted.
 */

#ifndef PROTEUS_COMMON_PAGES_HPP
#define PROTEUS_COMMON_PAGES_HPP

#include <sys/mman.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>

namespace proteus {

/** Size (bytes) of one x86-64 transparent huge page. */
inline constexpr std::size_t kHugePageSize = std::size_t{2} << 20;

/** Bytes actually mapped for a request of `bytes`. */
inline std::size_t
mappedLength(std::size_t bytes)
{
    if (bytes < kHugePageSize)
        return bytes; // the kernel rounds to its page size
    return (bytes + kHugePageSize - 1) & ~(kHugePageSize - 1);
}

/**
 * A private zero-filled anonymous mapping of at least `bytes`; throws
 * std::bad_alloc when the kernel refuses. Release it with unmapPages.
 */
inline void *
mapZeroedPages(std::size_t bytes)
{
    constexpr int kProt = PROT_READ | PROT_WRITE;
    constexpr int kFlags = MAP_PRIVATE | MAP_ANONYMOUS;
    const std::size_t len = mappedLength(bytes);
    if (bytes < kHugePageSize) {
        void *p = ::mmap(nullptr, len, kProt, kFlags, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        return p;
    }
    // Over-map by one huge page, then trim both ends to alignment.
    const std::size_t span = len + kHugePageSize;
    void *raw = ::mmap(nullptr, span, kProt, kFlags, -1, 0);
    if (raw == MAP_FAILED)
        throw std::bad_alloc();
    const auto base = reinterpret_cast<std::uintptr_t>(raw);
    const std::uintptr_t aligned =
        (base + kHugePageSize - 1) & ~(kHugePageSize - 1);
    const std::size_t head = aligned - base;
    if (head != 0)
        ::munmap(raw, head);
    if (span - head - len != 0)
        ::munmap(reinterpret_cast<void *>(aligned + len), span - head - len);
    auto *p = reinterpret_cast<void *>(aligned);
    // Only a hint: kernels without THP refuse it and keep 4 KiB pages.
    ::madvise(p, len, MADV_HUGEPAGE);
    return p;
}

/** Unmap a mapZeroedPages(bytes) result. */
inline void
unmapPages(void *p, std::size_t bytes)
{
    ::munmap(p, mappedLength(bytes));
}

/**
 * Drop every resident page of a mapZeroedPages(bytes) result; the
 * range reads as zero afterwards. Callers must exclude concurrent
 * access themselves.
 */
inline void
discardPages(void *p, std::size_t bytes)
{
    ::madvise(p, mappedLength(bytes), MADV_DONTNEED);
}

/**
 * Fixed-size array in its own zero-filled mapping (see the file
 * comment). T must be valid as all-zero bytes without a constructor
 * running, so the element types are implicit-lifetime ones: integers
 * and trivially copyable aggregates of them.
 */
template <typename T>
class PageArray
{
    static_assert(std::is_trivially_copyable_v<T> &&
                  std::is_trivially_destructible_v<T>);
    static_assert(alignof(T) <= 4096, "mappings are page-aligned");

  public:
    /** `n` (> 0) zero elements; no page is touched. */
    explicit PageArray(std::size_t n)
        : size_(n), data_(static_cast<T *>(mapZeroedPages(bytes())))
    {}

    /** `n` copies of `fill`; a zero fill touches no page either. */
    PageArray(std::size_t n, T fill)
        requires std::is_integral_v<T>
        : PageArray(n)
    {
        if (fill != 0)
            std::fill_n(data_, n, fill);
    }

    ~PageArray() { unmapPages(data_, bytes()); }

    PageArray(const PageArray &) = delete;
    PageArray &operator=(const PageArray &) = delete;

    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }
    std::size_t size() const { return size_; }

    /** Zero every element by handing the pages back (callers exclude
     *  concurrent access). */
    void discard() { discardPages(data_, bytes()); }

  private:
    std::size_t bytes() const { return size_ * sizeof(T); }

    std::size_t size_;
    T *data_;
};

} // namespace proteus

#endif // PROTEUS_COMMON_PAGES_HPP
