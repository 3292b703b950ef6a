/**
 * @file
 * Reference VM bookkeeping for differential tests: the node-based
 * implementation src/vm used before its tables became flat arrays.
 *
 * Reservations live in a std::map keyed by start, VMAs in a std::map
 * keyed by start, resident pages in a std::set, and every lookup is the
 * obvious tree search. It reuses src/vm's cost parameters and result
 * types, so a test can compare returned bases, protections, VMA and
 * resident-page counts, MmuStats and the clock one operation at a time.
 *
 * One deliberate difference from the old code: protect() changes only
 * the mapped pieces of its range (each contiguous mapped run becomes one
 * VMA) instead of mapping the whole range, matching PageTable::protect's
 * documented contract.
 */

#ifndef HFI_TESTS_VM_ORACLE_H
#define HFI_TESTS_VM_ORACLE_H

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "vm/mmu.h"

namespace hfi::vm::oracle
{

class AddressSpace
{
  public:
    explicit AddressSpace(unsigned va_bits = 47)
        : base(1ULL << 20), limit(1ULL << va_bits)
    {
    }

    std::optional<VAddr>
    reserve(std::uint64_t size, std::uint64_t align = kPageSize)
    {
        if (size == 0)
            return std::nullopt;
        size = alignUp(size, kPageSize);

        VAddr candidate = alignUp(base, align);
        if (!hasHoles) {
            candidate = alignUp(std::max(base, highWater), align);
        } else {
            for (const auto &[start, len] : ranges) {
                if (candidate + size <= start)
                    break;
                if (start + len > candidate)
                    candidate = alignUp(start + len, align);
            }
            if (candidate >= highWater)
                hasHoles = false;
        }
        if (candidate + size > limit || candidate + size < candidate)
            return std::nullopt;

        ranges.emplace(candidate, size);
        reserved_ += size;
        highWater = std::max(highWater, candidate + size);
        return candidate;
    }

    bool
    reserveFixed(VAddr addr, std::uint64_t size)
    {
        if (size == 0 || addr != alignDown(addr, kPageSize))
            return false;
        size = alignUp(size, kPageSize);
        if (addr < base || addr + size > limit || addr + size < addr)
            return false;
        auto it = ranges.upper_bound(addr);
        if (it != ranges.begin()) {
            auto prev = std::prev(it);
            if (prev->first + prev->second > addr)
                return false;
        }
        if (it != ranges.end() && it->first < addr + size)
            return false;
        ranges.emplace(addr, size);
        reserved_ += size;
        highWater = std::max(highWater, addr + size);
        hasHoles = true;
        return true;
    }

    bool
    release(VAddr addr)
    {
        auto it = ranges.find(addr);
        if (it == ranges.end())
            return false;
        reserved_ -= it->second;
        ranges.erase(it);
        hasHoles = true;
        return true;
    }

    std::optional<std::uint64_t>
    rangeAt(VAddr start) const
    {
        auto it = ranges.find(start);
        if (it == ranges.end())
            return std::nullopt;
        return it->second;
    }

    bool
    isReserved(VAddr addr) const
    {
        auto it = ranges.upper_bound(addr);
        if (it == ranges.begin())
            return false;
        auto prev = std::prev(it);
        return addr >= prev->first && addr < prev->first + prev->second;
    }

    std::uint64_t reservedBytes() const { return reserved_; }
    std::size_t reservationCount() const { return ranges.size(); }

  private:
    VAddr base;
    VAddr limit;
    std::map<VAddr, std::uint64_t> ranges;
    std::uint64_t reserved_ = 0;
    VAddr highWater = 0;
    bool hasHoles = false;
};

class PageTable
{
  public:
    void
    map(VAddr addr, std::uint64_t size, PageProt prot)
    {
        const VAddr start = alignDown(addr, kPageSize);
        const VAddr end = alignUp(addr + size, kPageSize);
        carve(start, end);
        vmas.emplace(start, Vma{end, prot});
        discard(start, end - start);
    }

    void
    unmap(VAddr addr, std::uint64_t size)
    {
        const VAddr start = alignDown(addr, kPageSize);
        const VAddr end = alignUp(addr + size, kPageSize);
        carve(start, end);
        discard(start, end - start);
    }

    void
    protect(VAddr addr, std::uint64_t size, PageProt prot)
    {
        const VAddr start = alignDown(addr, kPageSize);
        const VAddr end = alignUp(addr + size, kPageSize);
        // The mapped pieces of [start, end), adjacent ones joined.
        std::vector<std::pair<VAddr, VAddr>> runs;
        for (auto it = firstOverlap(start);
             it != vmas.end() && it->first < end; ++it) {
            const VAddr lo = std::max(it->first, start);
            const VAddr hi = std::min(it->second.end, end);
            if (lo >= hi)
                continue;
            if (!runs.empty() && runs.back().second == lo)
                runs.back().second = hi;
            else
                runs.emplace_back(lo, hi);
        }
        for (const auto &[lo, hi] : runs) {
            carve(lo, hi);
            vmas.emplace(lo, Vma{hi, prot});
        }
    }

    std::uint64_t
    discard(VAddr addr, std::uint64_t size)
    {
        const VAddr start = alignDown(addr, kPageSize) / kPageSize;
        const VAddr end = alignUp(addr + size, kPageSize) / kPageSize;
        auto first = resident.lower_bound(start);
        auto last = resident.lower_bound(end);
        const auto count =
            static_cast<std::uint64_t>(std::distance(first, last));
        resident.erase(first, last);
        return count;
    }

    PageProt
    protectionAt(VAddr addr) const
    {
        auto it = vmas.upper_bound(addr);
        if (it == vmas.begin())
            return PageProt::None;
        --it;
        if (addr >= it->second.end)
            return PageProt::None;
        return it->second.prot;
    }

    bool
    isMapped(VAddr addr) const
    {
        auto it = vmas.upper_bound(addr);
        if (it == vmas.begin())
            return false;
        --it;
        return addr < it->second.end;
    }

    bool
    isResident(VAddr addr) const
    {
        return resident.count(addr / kPageSize) != 0;
    }

    void touch(VAddr addr) { resident.insert(addr / kPageSize); }

    std::size_t vmaCount() const { return vmas.size(); }
    std::uint64_t residentPages() const { return resident.size(); }

  private:
    struct Vma
    {
        VAddr end;
        PageProt prot;
    };

    std::map<VAddr, Vma>::iterator
    firstOverlap(VAddr start)
    {
        auto it = vmas.upper_bound(start);
        if (it != vmas.begin())
            --it;
        return it;
    }

    void
    carve(VAddr start, VAddr end)
    {
        auto it = firstOverlap(start);
        while (it != vmas.end() && it->first < end) {
            const VAddr vma_start = it->first;
            const VAddr vma_end = it->second.end;
            const PageProt prot = it->second.prot;
            if (vma_end <= start) {
                ++it;
                continue;
            }
            it = vmas.erase(it);
            if (vma_start < start)
                vmas.emplace(vma_start, Vma{start, prot});
            if (vma_end > end)
                it = vmas.emplace(end, Vma{vma_end, prot}).first;
        }
    }

    std::map<VAddr, Vma> vmas;
    std::set<VAddr> resident;
};

class Mmu
{
  public:
    Mmu(VirtualClock &clock, unsigned va_bits = 47,
        MmuCostParams params = {})
        : clock_(clock), space(va_bits), params_(params)
    {
    }

    std::optional<VAddr>
    mmapReserve(std::uint64_t size, std::uint64_t align = kPageSize)
    {
        ++stats_.mmapCalls;
        charge(params_.syscallFixedNs + params_.mmapReserveNs);
        auto start = space.reserve(size, align);
        if (start)
            table.map(*start, alignUp(size, kPageSize), PageProt::None);
        return start;
    }

    bool
    mmapFixed(VAddr addr, std::uint64_t size, PageProt prot)
    {
        ++stats_.mmapCalls;
        charge(params_.syscallFixedNs + params_.mmapReserveNs);
        size = alignUp(size, kPageSize);
        if (!space.reserveFixed(addr, size))
            return false;
        table.map(addr, size, prot);
        return true;
    }

    std::optional<VAddr>
    mmap(std::uint64_t size, PageProt prot, std::uint64_t align = kPageSize)
    {
        ++stats_.mmapCalls;
        charge(params_.syscallFixedNs + params_.mmapReserveNs);
        size = alignUp(size, kPageSize);
        auto start = space.reserve(size, align);
        if (start)
            table.map(*start, size, prot);
        return start;
    }

    bool
    munmap(VAddr addr)
    {
        ++stats_.munmapCalls;
        charge(params_.syscallFixedNs + params_.munmapFixedNs +
               params_.munmapShootdownNs);
        auto size = space.rangeAt(addr);
        if (!size || !space.release(addr))
            return false;
        table.unmap(addr, *size);
        return true;
    }

    void
    mprotect(VAddr addr, std::uint64_t size, PageProt prot)
    {
        ++stats_.mprotectCalls;
        const std::uint64_t pages =
            (alignUp(addr + size, kPageSize) - alignDown(addr, kPageSize)) /
            kPageSize;
        charge(params_.syscallFixedNs + params_.mprotectFixedNs +
               params_.mprotectShootdownNs +
               params_.mprotectPerPageNs * static_cast<double>(pages));
        table.protect(alignDown(addr, kPageSize), pages * kPageSize, prot);
    }

    void
    madviseDontneed(VAddr addr, std::uint64_t size)
    {
        ++stats_.madviseCalls;
        const VAddr start = alignDown(addr, kPageSize);
        const VAddr end = alignUp(addr + size, kPageSize);
        constexpr std::uint64_t pmd_size = 2 * 1024 * 1024;
        const std::uint64_t pmds =
            (alignUp(end, pmd_size) - alignDown(start, pmd_size)) / pmd_size;
        const std::uint64_t discarded = table.discard(start, end - start);
        stats_.pagesDiscarded += discarded;
        charge(params_.syscallFixedNs + params_.madviseFixedNs +
               params_.madvisePerResidentPageNs *
                   static_cast<double>(discarded) +
               params_.madvisePerWalkedPmdNs * static_cast<double>(pmds));
    }

    AccessResult
    access(VAddr addr, std::uint64_t size, bool write)
    {
        for (VAddr probe : {addr, addr + size - 1}) {
            const PageProt prot = table.protectionAt(probe);
            if (prot == PageProt::None)
                return AccessResult::NotMapped;
            if (write ? !protWritable(prot) : !protReadable(prot))
                return AccessResult::BadPermission;
            if (!table.isResident(probe)) {
                ++stats_.pageFaults;
                charge(params_.pageFaultNs);
                table.touch(probe);
            }
            if (addr / kPageSize == (addr + size - 1) / kPageSize)
                break;
        }
        return AccessResult::Ok;
    }

    AccessResult
    fetch(VAddr addr)
    {
        const PageProt prot = table.protectionAt(addr);
        if (prot == PageProt::None)
            return AccessResult::NotMapped;
        if (!protExecutable(prot))
            return AccessResult::BadPermission;
        if (!table.isResident(addr)) {
            ++stats_.pageFaults;
            charge(params_.pageFaultNs);
            table.touch(addr);
        }
        return AccessResult::Ok;
    }

    const MmuStats &stats() const { return stats_; }
    AddressSpace &addressSpace() { return space; }
    PageTable &pageTable() { return table; }

  private:
    void charge(double ns) { clock_.tick(clock_.nsToCycles(ns)); }

    VirtualClock &clock_;
    AddressSpace space;
    PageTable table;
    MmuCostParams params_;
    MmuStats stats_;
};

} // namespace hfi::vm::oracle

#endif // HFI_TESTS_VM_ORACLE_H
