#include "sfi/linear_memory.h"

namespace hfi::sfi
{

LinearMemory::LinearMemory(std::uint64_t initial_pages,
                           std::uint64_t max_pages)
    : sizePages(initial_pages), maxPages_(max_pages)
{
    bytes.resize(sizePages * kWasmPageSize, 0);
}

std::int64_t
LinearMemory::grow(std::uint64_t delta_pages)
{
    // Compare against the headroom: sizePages + delta_pages can wrap.
    if (sizePages > maxPages_ || delta_pages > maxPages_ - sizePages)
        return -1;
    const std::int64_t prev = static_cast<std::int64_t>(sizePages);
    sizePages += delta_pages;
    bytes.resize(sizePages * kWasmPageSize, 0);
    return prev;
}

void
LinearMemory::writeBytes(std::uint64_t offset, const void *src,
                         std::uint64_t len)
{
    std::memcpy(bytes.data() + offset, src, len);
}

void
LinearMemory::readBytes(std::uint64_t offset, void *dst,
                        std::uint64_t len) const
{
    std::memcpy(dst, bytes.data() + offset, len);
}

} // namespace hfi::sfi
