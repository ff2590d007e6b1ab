/**
 * @file
 * A fixed-size scratch array that lives on the stack for small sizes
 * and falls back to the heap beyond them, so hot per-point code can
 * build short lists without touching the allocator.
 */

#ifndef PCCS_COMMON_INLINE_BUFFER_HH
#define PCCS_COMMON_INLINE_BUFFER_HH

#include <array>
#include <cstddef>
#include <memory>
#include <span>

namespace pccs {

/**
 * `size` value-initialized elements of T: inline when size <= N, one
 * heap block otherwise. Not copyable (the span would dangle).
 */
template <class T, std::size_t N>
class InlineBuffer
{
  public:
    explicit InlineBuffer(std::size_t size)
        : heap_(size > N ? std::make_unique<T[]>(size) : nullptr),
          data_(heap_ ? heap_.get() : inline_.data(), size)
    {
    }

    InlineBuffer(const InlineBuffer &) = delete;
    InlineBuffer &operator=(const InlineBuffer &) = delete;

    std::span<T> span() { return data_; }

  private:
    std::array<T, N> inline_{};
    std::unique_ptr<T[]> heap_;
    std::span<T> data_;
};

} // namespace pccs

#endif // PCCS_COMMON_INLINE_BUFFER_HH
