#include "vm/address_space.h"

#include <algorithm>

namespace hfi::vm
{

namespace
{

/** First range of @p ranges starting above @p addr. */
template <typename Ranges>
auto
firstAbove(Ranges &ranges, VAddr addr)
{
    return std::upper_bound(
        ranges.begin(), ranges.end(), addr,
        [](VAddr a, const auto &range) { return a < range.start; });
}

/** The range of @p ranges starting exactly at @p addr, or end(). */
template <typename Ranges>
auto
findExact(Ranges &ranges, VAddr addr)
{
    auto it = std::lower_bound(
        ranges.begin(), ranges.end(), addr,
        [](const auto &range, VAddr a) { return range.start < a; });
    return it != ranges.end() && it->start == addr ? it : ranges.end();
}

} // namespace

AddressSpace::AddressSpace(unsigned va_bits)
    : bits(va_bits),
      base(1ULL << 20),
      limit(1ULL << va_bits)
{
}

std::optional<VAddr>
AddressSpace::reserve(std::uint64_t size, std::uint64_t align)
{
    if (size == 0)
        return std::nullopt;
    size = alignUp(size, kPageSize);

    VAddr candidate = alignUp(base, align);
    Range *at = ranges.end();
    if (!hasHoles) {
        // Fast path: nothing was ever released below the high-water
        // mark, so first fit is the bump allocator.
        candidate = alignUp(std::max(base, highWater), align);
    } else {
        for (Range *r = ranges.begin(); r != ranges.end(); ++r) {
            if (candidate + size <= r->start) {
                at = r;
                break;
            }
            if (r->start + r->size > candidate)
                candidate = alignUp(r->start + r->size, align);
        }
        if (candidate >= highWater)
            hasHoles = false; // the scan found no usable hole
    }
    if (candidate + size > limit || candidate + size < candidate)
        return std::nullopt;

    ranges.insert(at, Range{candidate, size});
    reserved_ += size;
    highWater = std::max(highWater, candidate + size);
    return candidate;
}

bool
AddressSpace::reserveFixed(VAddr addr, std::uint64_t size)
{
    if (size == 0 || addr != alignDown(addr, kPageSize))
        return false;
    size = alignUp(size, kPageSize);
    if (addr < base || addr + size > limit || addr + size < addr)
        return false;

    // Find the first range starting after addr and check for overlap.
    Range *it = firstAbove(ranges, addr);
    if (it != ranges.begin()) {
        const Range &prev = it[-1];
        if (prev.start + prev.size > addr)
            return false;
    }
    if (it != ranges.end() && it->start < addr + size)
        return false;

    ranges.insert(it, Range{addr, size});
    reserved_ += size;
    highWater = std::max(highWater, addr + size);
    // A fixed mapping below other reservations does not open holes, but
    // the gap in front of it might now be unreachable by the bump path;
    // force a scan next time to stay first-fit correct.
    hasHoles = true;
    return true;
}

bool
AddressSpace::release(VAddr addr)
{
    Range *it = findExact(ranges, addr);
    if (it == ranges.end())
        return false;
    reserved_ -= it->size;
    ranges.erase(it, it + 1);
    hasHoles = true;
    return true;
}

std::optional<std::uint64_t>
AddressSpace::rangeAt(VAddr base) const
{
    const Range *it = findExact(ranges, base);
    if (it == ranges.end())
        return std::nullopt;
    return it->size;
}

bool
AddressSpace::isReserved(VAddr addr) const
{
    const Range *it = firstAbove(ranges, addr);
    if (it == ranges.begin())
        return false;
    const Range &prev = it[-1];
    return addr >= prev.start && addr < prev.start + prev.size;
}

} // namespace hfi::vm
