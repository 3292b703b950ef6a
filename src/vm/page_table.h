/**
 * @file
 * VMA-style page permission tracking with a sparse resident-page set.
 *
 * Mapped memory is tracked as ranges (like the kernel's VMA tree), so an
 * 8 GiB guard-page reservation costs one entry rather than two million.
 * Residency (physical backing) is tracked per touched page, since our
 * workloads only touch a small fraction of the reserved space — exactly
 * the situation §2 of the paper describes. madvise(MADV_DONTNEED), the
 * operation HFI-Wasmtime batches in §5.1/§6.3.1, discards residency.
 * Both live in sorted flat arrays (FlatSeq): lookups binary-search, and
 * a range operation moves each overlapping run with one bulk erase.
 */

#ifndef HFI_VM_PAGE_TABLE_H
#define HFI_VM_PAGE_TABLE_H

#include <cstdint>

#include "vm/address_space.h"
#include "vm/flat_seq.h"

namespace hfi::vm
{

/** Page protection bits, matching PROT_READ/WRITE/EXEC. */
enum class PageProt : std::uint8_t
{
    None = 0,
    Read = 1,
    Write = 2,
    ReadWrite = 3,
    Exec = 4,
    ReadExec = 5,
};

/** True if @p prot includes read permission. */
constexpr bool
protReadable(PageProt prot)
{
    return (static_cast<std::uint8_t>(prot) & 1) != 0;
}

/** True if @p prot includes write permission. */
constexpr bool
protWritable(PageProt prot)
{
    return (static_cast<std::uint8_t>(prot) & 2) != 0;
}

/** True if @p prot includes execute permission. */
constexpr bool
protExecutable(PageProt prot)
{
    return (static_cast<std::uint8_t>(prot) & 4) != 0;
}

/**
 * Range-based page permissions plus per-page residency.
 *
 * All addresses and sizes are page aligned by the caller (the Mmu);
 * methods assert nothing and simply operate on page-rounded ranges.
 */
class PageTable
{
  public:
    /** Map [addr, addr+size) with protection @p prot, overwriting. */
    void map(VAddr addr, std::uint64_t size, PageProt prot);

    /** Unmap [addr, addr+size); also drops residency in the range. */
    void unmap(VAddr addr, std::uint64_t size);

    /**
     * Change protection over [addr, addr+size) where mapped; holes in
     * the range stay unmapped. Each contiguous mapped run inside the
     * range becomes one VMA; VMAs straddling its ends are split.
     */
    void protect(VAddr addr, std::uint64_t size, PageProt prot);

    /**
     * Discard residency (madvise(MADV_DONTNEED)) over [addr, addr+size).
     * @return number of pages that were resident and got discarded.
     */
    std::uint64_t discard(VAddr addr, std::uint64_t size);

    /**
     * Protection covering @p addr.
     * @return the protection, or PageProt::None when unmapped.
     */
    PageProt protectionAt(VAddr addr) const;

    /** True if any mapping (even PROT_NONE) covers @p addr. */
    bool isMapped(VAddr addr) const;

    /** True if the page containing @p addr is resident. */
    bool isResident(VAddr addr) const;

    /**
     * Mark the page containing @p addr resident.
     * @return true if it was not resident before (a first touch).
     */
    bool touch(VAddr addr);

    /** Number of distinct mapped ranges (VMAs). */
    std::size_t vmaCount() const { return vmas.size(); }

    /** Number of resident pages. */
    std::uint64_t residentPages() const { return resident.size(); }

  private:
    struct Vma
    {
        VAddr start;
        VAddr end; ///< one past the last byte
        PageProt prot;
    };

    /**
     * Replace all mapping state in [start, end) with @p fill (or with
     * nothing when null), splitting VMAs that straddle the boundary.
     * Used by map/unmap.
     */
    void carve(VAddr start, VAddr end, const Vma *fill);

    /** The VMA covering @p addr, or nullptr. */
    const Vma *find(VAddr addr) const;

    /** VMAs sorted by start; ranges are disjoint. */
    FlatSeq<Vma> vmas;
    /** Sorted page numbers of resident pages. */
    FlatSeq<VAddr> resident;
};

} // namespace hfi::vm

#endif // HFI_VM_PAGE_TABLE_H
