#include "vm/page_table.h"

#include <algorithm>

namespace hfi::vm
{

namespace
{

/** First VMA of @p vmas ending after @p addr. */
template <typename Vmas>
auto
firstEndingAfter(Vmas &vmas, VAddr addr)
{
    return std::partition_point(
        vmas.begin(), vmas.end(),
        [addr](const auto &vma) { return vma.end <= addr; });
}

/** First VMA in [from, to) starting at or after @p addr. */
template <typename Vma>
Vma *
firstStartingAt(Vma *from, Vma *to, VAddr addr)
{
    return std::partition_point(
        from, to, [addr](const Vma &vma) { return vma.start < addr; });
}

} // namespace

void
PageTable::carve(VAddr start, VAddr end, const Vma *fill)
{
    if (start >= end)
        return;
    // The VMAs overlapping [start, end) form the run [first, last); only
    // its ends can stick out of the range.
    Vma *first = firstEndingAfter(vmas, start);
    Vma *last = firstStartingAt(first, vmas.end(), end);

    Vma pieces[3] = {};
    std::size_t n = 0;
    if (first != last && first->start < start)
        pieces[n++] = Vma{first->start, start, first->prot};
    if (fill)
        pieces[n++] = *fill;
    if (first != last && last[-1].end > end)
        pieces[n++] = Vma{end, last[-1].end, last[-1].prot};

    // Overwrite the run in place, then insert what does not fit or erase
    // what is left over in one bulk move.
    const std::size_t at = static_cast<std::size_t>(first - vmas.begin());
    const std::size_t run = static_cast<std::size_t>(last - first);
    const std::size_t kept = std::min(n, run);
    std::copy(pieces, pieces + kept, first);
    for (std::size_t i = kept; i < n; ++i)
        vmas.insert(vmas.begin() + at + i, pieces[i]);
    vmas.erase(vmas.begin() + at + kept, vmas.begin() + at + run);
}

void
PageTable::map(VAddr addr, std::uint64_t size, PageProt prot)
{
    const VAddr start = alignDown(addr, kPageSize);
    const VAddr end = alignUp(addr + size, kPageSize);
    const Vma fill{start, end, prot};
    carve(start, end, &fill);
    // Fresh mappings start non-resident (lazy zero pages).
    discard(start, end - start);
}

void
PageTable::unmap(VAddr addr, std::uint64_t size)
{
    const VAddr start = alignDown(addr, kPageSize);
    const VAddr end = alignUp(addr + size, kPageSize);
    carve(start, end, nullptr);
    discard(start, end - start);
}

void
PageTable::protect(VAddr addr, std::uint64_t size, PageProt prot)
{
    const VAddr start = alignDown(addr, kPageSize);
    const VAddr end = alignUp(addr + size, kPageSize);
    if (start >= end)
        return;

    // Split the VMAs straddling either end of the range.
    std::size_t i = static_cast<std::size_t>(
        firstEndingAfter(vmas, start) - vmas.begin());
    if (i < vmas.size() && vmas.begin()[i].start < start) {
        Vma &straddle = vmas.begin()[i];
        const Vma left{straddle.start, start, straddle.prot};
        straddle.start = start;
        vmas.insert(vmas.begin() + i, left);
        ++i;
    }
    Vma *last = firstStartingAt(vmas.begin() + i, vmas.end(), end);
    if (last != vmas.begin() + i && last[-1].end > end) {
        const Vma right{end, last[-1].end, last[-1].prot};
        last[-1].end = end;
        last = vmas.insert(last, right);
    }

    // Every VMA in [first, last) now lies inside the range; each
    // contiguous run of them becomes one VMA with the new protection.
    Vma *const first = vmas.begin() + i;
    Vma *out = first;
    for (const Vma *vma = first; vma != last; ++vma) {
        if (out != first && out[-1].end == vma->start)
            out[-1].end = vma->end;
        else
            *out++ = Vma{vma->start, vma->end, prot};
    }
    vmas.erase(out, last);
}

std::uint64_t
PageTable::discard(VAddr addr, std::uint64_t size)
{
    VAddr *first = std::lower_bound(resident.begin(), resident.end(),
                                    alignDown(addr, kPageSize) / kPageSize);
    VAddr *last = std::lower_bound(
        first, resident.end(), alignUp(addr + size, kPageSize) / kPageSize);
    const auto count = static_cast<std::uint64_t>(last - first);
    resident.erase(first, last);
    return count;
}

const PageTable::Vma *
PageTable::find(VAddr addr) const
{
    const Vma *it = std::upper_bound(
        vmas.begin(), vmas.end(), addr,
        [](VAddr a, const Vma &vma) { return a < vma.start; });
    if (it == vmas.begin() || addr >= it[-1].end)
        return nullptr;
    return it - 1;
}

PageProt
PageTable::protectionAt(VAddr addr) const
{
    const Vma *vma = find(addr);
    return vma ? vma->prot : PageProt::None;
}

bool
PageTable::isMapped(VAddr addr) const
{
    return find(addr) != nullptr;
}

bool
PageTable::isResident(VAddr addr) const
{
    return std::binary_search(resident.begin(), resident.end(),
                              addr / kPageSize);
}

bool
PageTable::touch(VAddr addr)
{
    const VAddr page = addr / kPageSize;
    VAddr *it = std::lower_bound(resident.begin(), resident.end(), page);
    if (it != resident.end() && *it == page)
        return false;
    resident.insert(it, page);
    return true;
}

} // namespace hfi::vm
