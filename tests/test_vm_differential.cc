/**
 * @file
 * Differential test of the flat VM bookkeeping (AddressSpace, PageTable,
 * Mmu) against the node-based reference in vm_oracle.h.
 *
 * Each seed drives both implementations through the same random sequence
 * of reserve / reserveFixed / release / mmap / mmapReserve / mmapFixed /
 * munmap / mprotect / madvise / access / fetch and direct page-table
 * operations, with mixed sizes and alignments in a small (4 GiB)
 * address space so first-fit holes, exhaustion and overlapping ranges
 * are common. After every operation it compares the returned values,
 * protection and residency at probe addresses, reservation, VMA and
 * resident-page counts, MmuStats and the virtual clock.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "vm/flat_seq.h"
#include "vm/mmu.h"
#include "vm_oracle.h"

namespace
{

using namespace hfi::vm;

constexpr unsigned kVaBits = 32;
constexpr VAddr kLow = 1ULL << 20;
constexpr VAddr kHigh = 1ULL << kVaBits;

class VmDifferential : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    std::uint64_t
    below(std::uint64_t n)
    {
        return std::uniform_int_distribution<std::uint64_t>(0, n - 1)(rng);
    }

    /** Mostly small sizes, some large, a few unaligned. */
    std::uint64_t
    randomSize()
    {
        switch (below(8)) {
          case 0: return 1 + below(3 * kPageSize);
          case 1: return (1 + below(2048)) * kPageSize;
          case 2: return (1 + below(64)) << 20;
          default: return (1 + below(32)) * kPageSize;
        }
    }

    std::uint64_t
    randomAlign()
    {
        static const std::uint64_t aligns[] = {kPageSize, 1ULL << 16,
                                               1ULL << 21, 1ULL << 24};
        return aligns[below(4)];
    }

    PageProt
    randomProt()
    {
        static const PageProt prots[] = {
            PageProt::None, PageProt::Read, PageProt::Write,
            PageProt::ReadWrite, PageProt::Exec, PageProt::ReadExec};
        return prots[below(6)];
    }

    /** An address near a live base (often exact), or anywhere. */
    VAddr
    randomAddr()
    {
        if (bases.empty() || below(5) == 0)
            return kLow + below(kHigh - kLow);
        const VAddr b = bases[below(bases.size())];
        switch (below(4)) {
          case 0: return b;
          case 1: return b + below(1ULL << 22);
          case 2: return b >= kPageSize ? b - kPageSize * below(4) : b;
          default: return b + below(64) * kPageSize;
        }
    }

    /** Half the time exactly a live base, else randomAddr(). */
    VAddr
    liveBaseOrRandom()
    {
        if (!bases.empty() && below(2) != 0)
            return bases[below(bases.size())];
        return randomAddr();
    }

    void
    remember(const std::optional<VAddr> &base)
    {
        if (base)
            bases.push_back(*base);
    }

    void
    step()
    {
        AddressSpace &as = mmu.addressSpace();
        oracle::AddressSpace &oas = ref.addressSpace();
        static const char *const kOps[] = {
            "reserve", "reserveFixed", "release", "mmap", "mmapReserve",
            "mmapFixed", "munmap", "mprotect", "madviseDontneed", "access",
            "access", "fetch", "map/unmap", "discard"};
        const std::uint64_t op = below(14);
        op_name = kOps[op];
        switch (op) {
          case 0: {
            const std::uint64_t size = randomSize();
            const std::uint64_t align = randomAlign();
            const auto got = as.reserve(size, align);
            ASSERT_EQ(got, oas.reserve(size, align));
            remember(got);
            break;
          }
          case 1: {
            const VAddr addr = alignDown(randomAddr(), below(2) ? kPageSize
                                                                : 1);
            const std::uint64_t size = randomSize();
            const bool got = as.reserveFixed(addr, size);
            ASSERT_EQ(got, oas.reserveFixed(addr, size));
            if (got)
                bases.push_back(addr);
            break;
          }
          case 2: {
            const VAddr addr = randomAddr();
            const bool got = as.release(addr);
            ASSERT_EQ(got, oas.release(addr));
            releases += got;
            break;
          }
          case 3: {
            const std::uint64_t size = randomSize();
            const PageProt prot = randomProt();
            const std::uint64_t align = randomAlign();
            const auto got = mmu.mmap(size, prot, align);
            ASSERT_EQ(got, ref.mmap(size, prot, align));
            remember(got);
            break;
          }
          case 4: {
            const std::uint64_t size = randomSize();
            const std::uint64_t align = randomAlign();
            const auto got = mmu.mmapReserve(size, align);
            ASSERT_EQ(got, ref.mmapReserve(size, align));
            remember(got);
            break;
          }
          case 5: {
            const VAddr addr = alignDown(randomAddr(), kPageSize);
            const std::uint64_t size = randomSize();
            const PageProt prot = randomProt();
            const bool got = mmu.mmapFixed(addr, size, prot);
            ASSERT_EQ(got, ref.mmapFixed(addr, size, prot));
            if (got)
                bases.push_back(addr);
            break;
          }
          case 6: {
            const VAddr addr = randomAddr();
            const bool got = mmu.munmap(addr);
            ASSERT_EQ(got, ref.munmap(addr));
            releases += got;
            break;
          }
          case 7: {
            const VAddr addr = randomAddr();
            const std::uint64_t size = randomSize();
            const PageProt prot = randomProt();
            mmu.mprotect(addr, size, prot);
            ref.mprotect(addr, size, prot);
            break;
          }
          case 8: {
            // Often from a live base over up to 2 MiB, where the
            // accesses leave resident pages to discard.
            const VAddr addr = liveBaseOrRandom();
            const std::uint64_t size = below(2) ? (1 + below(512)) * kPageSize
                                                : randomSize();
            mmu.madviseDontneed(addr, size);
            ref.madviseDontneed(addr, size);
            break;
          }
          case 9:
          case 10: {
            // Touch a run of accesses so residency builds up, some
            // straddling a page boundary.
            const VAddr addr = liveBaseOrRandom();
            const bool write = below(2) != 0;
            for (int i = 0; i < 8; ++i) {
                const VAddr a = addr + below(16) * kPageSize - below(8);
                const std::uint64_t width = 1ULL << below(4);
                ASSERT_EQ(mmu.access(a, width, write),
                          ref.access(a, width, write));
            }
            break;
          }
          case 11: {
            const VAddr addr = randomAddr();
            ASSERT_EQ(mmu.fetch(addr), ref.fetch(addr));
            break;
          }
          case 12: {
            // Direct page-table map/unmap over ranges that need not
            // match any reservation: overlaps split VMAs arbitrarily.
            const VAddr addr = randomAddr();
            const std::uint64_t size = randomSize();
            if (below(2)) {
                const PageProt prot = randomProt();
                mmu.pageTable().map(addr, size, prot);
                ref.pageTable().map(addr, size, prot);
            } else {
                mmu.pageTable().unmap(addr, size);
                ref.pageTable().unmap(addr, size);
            }
            break;
          }
          default: {
            const VAddr addr = randomAddr();
            const std::uint64_t size = randomSize();
            ASSERT_EQ(mmu.pageTable().discard(addr, size),
                      ref.pageTable().discard(addr, size));
            break;
          }
        }
    }

    void
    compare()
    {
        const AddressSpace &as = mmu.addressSpace();
        oracle::AddressSpace &oas = ref.addressSpace();
        const PageTable &pt = mmu.pageTable();
        const oracle::PageTable &opt = ref.pageTable();
        ASSERT_EQ(as.reservationCount(), oas.reservationCount());
        ASSERT_EQ(as.reservedBytes(), oas.reservedBytes());
        ASSERT_EQ(pt.vmaCount(), opt.vmaCount());
        ASSERT_EQ(pt.residentPages(), opt.residentPages());

        const MmuStats &s = mmu.stats();
        const MmuStats &o = ref.stats();
        ASSERT_EQ(s.mmapCalls, o.mmapCalls);
        ASSERT_EQ(s.munmapCalls, o.munmapCalls);
        ASSERT_EQ(s.mprotectCalls, o.mprotectCalls);
        ASSERT_EQ(s.madviseCalls, o.madviseCalls);
        ASSERT_EQ(s.pageFaults, o.pageFaults);
        ASSERT_EQ(s.pagesDiscarded, o.pagesDiscarded);
        ASSERT_EQ(clock.now(), refClock.now());

        std::vector<VAddr> probes;
        for (int i = 0; i < 24; ++i)
            probes.push_back(randomAddr());
        for (std::size_t i = 0; i < bases.size() && i < 32; ++i) {
            const VAddr b = bases[bases.size() - 1 - i];
            for (VAddr p : {b - 1, b, b + kPageSize - 1, b + kPageSize})
                probes.push_back(p);
        }
        for (VAddr p : probes) {
            SCOPED_TRACE("probe 0x" + std::to_string(p));
            ASSERT_EQ(pt.isMapped(p), opt.isMapped(p));
            ASSERT_EQ(pt.protectionAt(p), opt.protectionAt(p));
            ASSERT_EQ(pt.isResident(p), opt.isResident(p));
            ASSERT_EQ(as.isReserved(p), oas.isReserved(p));
            ASSERT_EQ(as.rangeAt(p), oas.rangeAt(p));
        }
    }

    std::mt19937_64 rng{GetParam()};
    VirtualClock clock;
    VirtualClock refClock;
    Mmu mmu{clock, kVaBits};
    oracle::Mmu ref{refClock, kVaBits};
    std::vector<VAddr> bases;
    std::string op_name;
    /** Successful release/munmap calls: holes for first fit to find. */
    std::uint64_t releases = 0;
};

TEST_P(VmDifferential, MatchesNodeBasedOracle)
{
    for (int i = 0; i < 600; ++i) {
        step();
        if (HasFatalFailure()) {
            ADD_FAILURE() << "seed " << GetParam() << ", operation " << i
                          << " (" << op_name << ")";
            return;
        }
        compare();
        if (HasFatalFailure()) {
            ADD_FAILURE() << "seed " << GetParam() << ", state after "
                          << "operation " << i << " (" << op_name << ")";
            return;
        }
    }
    // The sequences must reach the interesting states, not idle in an
    // empty table.
    EXPECT_GT(releases, 0u);
    EXPECT_GT(mmu.stats().pageFaults, 0u);
    EXPECT_GT(mmu.stats().pagesDiscarded, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VmDifferential,
                         ::testing::Range<std::uint64_t>(1, 41));

TEST(FlatSeq, MatchesVectorUnderRandomEdits)
{
    // Inserts and erases at the front, the back and in between, in
    // bursts, so the headroom, compaction and shorter-side moves all run.
    std::mt19937_64 rng(7);
    FlatSeq<std::uint64_t> seq;
    std::vector<std::uint64_t> want;
    std::uint64_t serial = 0;
    for (int round = 0; round < 4000; ++round) {
        const std::uint64_t n = want.size();
        const std::uint64_t where = rng() % 4;
        std::uint64_t at = 0;
        if (where == 1)
            at = n;
        else if (where >= 2)
            at = n ? rng() % (n + 1) : 0;
        if (rng() % 5 < 3) {
            for (int k = 0; k < 1 + static_cast<int>(rng() % 8); ++k) {
                const auto *pos = seq.insert(seq.begin() + at, ++serial);
                ASSERT_EQ(*pos, serial);
                want.insert(want.begin() + static_cast<std::ptrdiff_t>(at),
                            serial);
            }
        } else if (n) {
            at = std::min(at, n - 1);
            const std::uint64_t count = 1 + rng() % std::min<std::uint64_t>(
                                                    n - at, 16);
            seq.erase(seq.begin() + at, seq.begin() + at + count);
            want.erase(want.begin() + static_cast<std::ptrdiff_t>(at),
                       want.begin() +
                           static_cast<std::ptrdiff_t>(at + count));
        }
        ASSERT_EQ(seq.size(), want.size());
        ASSERT_TRUE(std::equal(want.begin(), want.end(), seq.begin(),
                               seq.end()))
            << "round " << round;
    }
}

} // namespace
