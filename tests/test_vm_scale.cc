/**
 * @file
 * Scale regression for the VM bookkeeping: the two table shapes the
 * paper benches drive hardest must stay linear. Registered as one ctest
 * with a TIMEOUT, so an O(n^2) container regression fails instead of
 * hanging the suite.
 *
 *  - §6.3.2 (faas_scalability): 256k reservations created in ascending
 *    address order, then released front to back.
 *  - §6.1 (heap_growth): 65,535 one-Wasm-page mprotect splits of one
 *    reservation, then a single munmap of all 65,536 VMAs.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "vm/mmu.h"

namespace
{

using namespace hfi::vm;

constexpr std::uint64_t kWasmPage = 1ULL << 16;

TEST(VmScale, AscendingReservationsAndWasmPageSplitsStayLinear)
{
    VirtualClock clock;
    Mmu mmu(clock);

    constexpr std::size_t kSandboxes = 256 * 1024;
    std::vector<VAddr> bases;
    bases.reserve(kSandboxes);
    for (std::size_t i = 0; i < kSandboxes; ++i) {
        auto base = mmu.mmap(kWasmPage, PageProt::ReadWrite, kWasmPage);
        ASSERT_TRUE(base);
        ASSERT_TRUE(bases.empty() || *base > bases.back());
        bases.push_back(*base);
        mmu.access(*base, 8, true);
    }
    EXPECT_EQ(mmu.addressSpace().reservationCount(), kSandboxes);
    EXPECT_EQ(mmu.pageTable().vmaCount(), kSandboxes);
    EXPECT_EQ(mmu.pageTable().residentPages(), kSandboxes);
    for (VAddr base : bases)
        ASSERT_TRUE(mmu.munmap(base));
    EXPECT_EQ(mmu.addressSpace().reservationCount(), 0u);
    EXPECT_EQ(mmu.pageTable().vmaCount(), 0u);
    EXPECT_EQ(mmu.pageTable().residentPages(), 0u);

    constexpr std::uint64_t kPages = 65536;
    auto heap = mmu.mmapReserve(kPages * kWasmPage, kWasmPage);
    ASSERT_TRUE(heap);
    for (std::uint64_t page = 0; page + 1 < kPages; ++page) {
        mmu.mprotect(*heap + page * kWasmPage, kWasmPage,
                     PageProt::ReadWrite);
        mmu.access(*heap + page * kWasmPage, 8, true);
    }
    // No merging: one VMA per grown page plus the PROT_NONE tail.
    EXPECT_EQ(mmu.pageTable().vmaCount(), kPages);
    EXPECT_EQ(mmu.pageTable().protectionAt(*heap + (kPages - 1) * kWasmPage),
              PageProt::None);
    ASSERT_TRUE(mmu.munmap(*heap));
    EXPECT_EQ(mmu.pageTable().vmaCount(), 0u);
    EXPECT_EQ(mmu.pageTable().residentPages(), 0u);
}

} // namespace
