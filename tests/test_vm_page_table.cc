/**
 * @file
 * Tests for the VMA-style page table: mapping, protection, splitting,
 * residency, and the madvise discard path that §6.3.1's teardown
 * experiments rely on.
 */

#include <gtest/gtest.h>

#include "vm/page_table.h"

namespace
{

using namespace hfi::vm;

TEST(PageProt, BitHelpers)
{
    EXPECT_TRUE(protReadable(PageProt::Read));
    EXPECT_TRUE(protReadable(PageProt::ReadWrite));
    EXPECT_FALSE(protReadable(PageProt::None));
    EXPECT_TRUE(protWritable(PageProt::ReadWrite));
    EXPECT_FALSE(protWritable(PageProt::Read));
    EXPECT_TRUE(protExecutable(PageProt::ReadExec));
    EXPECT_FALSE(protExecutable(PageProt::ReadWrite));
}

TEST(PageTable, UnmappedByDefault)
{
    PageTable table;
    EXPECT_FALSE(table.isMapped(0x1000));
    EXPECT_EQ(table.protectionAt(0x1000), PageProt::None);
    EXPECT_EQ(table.vmaCount(), 0u);
}

TEST(PageTable, MapAndQuery)
{
    PageTable table;
    table.map(0x10000, 0x4000, PageProt::ReadWrite);
    EXPECT_TRUE(table.isMapped(0x10000));
    EXPECT_TRUE(table.isMapped(0x13fff));
    EXPECT_FALSE(table.isMapped(0x14000));
    EXPECT_EQ(table.protectionAt(0x12000), PageProt::ReadWrite);
    EXPECT_EQ(table.vmaCount(), 1u);
}

TEST(PageTable, ProtNoneMappingIsStillMapped)
{
    // Guard regions are mmap(PROT_NONE): mapped (reserved) but with no
    // access — protectionAt reports None yet isMapped is true.
    PageTable table;
    table.map(0x10000, 0x1000, PageProt::None);
    EXPECT_TRUE(table.isMapped(0x10000));
    EXPECT_EQ(table.protectionAt(0x10000), PageProt::None);
}

TEST(PageTable, ProtectSplitsVma)
{
    PageTable table;
    table.map(0x10000, 0x10000, PageProt::None);
    table.protect(0x14000, 0x4000, PageProt::ReadWrite);
    EXPECT_EQ(table.vmaCount(), 3u);
    EXPECT_EQ(table.protectionAt(0x13fff), PageProt::None);
    EXPECT_EQ(table.protectionAt(0x14000), PageProt::ReadWrite);
    EXPECT_EQ(table.protectionAt(0x17fff), PageProt::ReadWrite);
    EXPECT_EQ(table.protectionAt(0x18000), PageProt::None);
}

TEST(PageTable, ProtectAtFrontAndBack)
{
    PageTable table;
    table.map(0x10000, 0x3000, PageProt::None);
    table.protect(0x10000, 0x1000, PageProt::Read);
    table.protect(0x12000, 0x1000, PageProt::ReadWrite);
    EXPECT_EQ(table.protectionAt(0x10000), PageProt::Read);
    EXPECT_EQ(table.protectionAt(0x11000), PageProt::None);
    EXPECT_EQ(table.protectionAt(0x12000), PageProt::ReadWrite);
}

TEST(PageTable, ProtectLeavesHolesUnmapped)
{
    // mprotect across a gap changes the mapped pieces only; it must not
    // map the gap.
    PageTable table;
    table.map(0x10000, 0x2000, PageProt::None);
    table.map(0x14000, 0x2000, PageProt::None);
    table.protect(0x11000, 0x4000, PageProt::ReadWrite);
    EXPECT_FALSE(table.isMapped(0x12000));
    EXPECT_FALSE(table.isMapped(0x13fff));
    EXPECT_EQ(table.protectionAt(0x12000), PageProt::None);
    EXPECT_EQ(table.protectionAt(0x10000), PageProt::None);
    EXPECT_EQ(table.protectionAt(0x11000), PageProt::ReadWrite);
    EXPECT_EQ(table.protectionAt(0x14000), PageProt::ReadWrite);
    EXPECT_EQ(table.protectionAt(0x15000), PageProt::None);
    EXPECT_EQ(table.vmaCount(), 4u);

    // A range with nothing mapped in it stays unmapped.
    table.protect(0x20000, 0x4000, PageProt::ReadWrite);
    EXPECT_FALSE(table.isMapped(0x20000));
    EXPECT_EQ(table.vmaCount(), 4u);
}

TEST(PageTable, ProtectJoinsContiguousVmasInRange)
{
    // Adjacent mapped VMAs inside the range become one VMA, as a single
    // mprotect over a fully mapped range always did.
    PageTable table;
    table.map(0x10000, 0x1000, PageProt::None);
    table.map(0x11000, 0x1000, PageProt::Read);
    table.map(0x12000, 0x1000, PageProt::ReadExec);
    ASSERT_EQ(table.vmaCount(), 3u);
    table.protect(0x10000, 0x3000, PageProt::ReadWrite);
    EXPECT_EQ(table.vmaCount(), 1u);
    EXPECT_EQ(table.protectionAt(0x12fff), PageProt::ReadWrite);
}

TEST(PageTable, EmptyRangesAreNoOps)
{
    PageTable table;
    table.map(0x10000, 0x4000, PageProt::Read);
    table.map(0x12000, 0, PageProt::ReadWrite);
    table.protect(0x12000, 0, PageProt::ReadWrite);
    table.unmap(0x12000, 0);
    EXPECT_EQ(table.vmaCount(), 1u);
    EXPECT_EQ(table.protectionAt(0x12000), PageProt::Read);
}

TEST(PageTable, UnmapRemovesRangeAndResidency)
{
    PageTable table;
    table.map(0x10000, 0x4000, PageProt::ReadWrite);
    table.touch(0x11000);
    EXPECT_TRUE(table.isResident(0x11000));
    table.unmap(0x10000, 0x4000);
    EXPECT_FALSE(table.isMapped(0x11000));
    EXPECT_FALSE(table.isResident(0x11000));
    EXPECT_EQ(table.vmaCount(), 0u);
}

TEST(PageTable, UnmapMiddleSplits)
{
    PageTable table;
    table.map(0x10000, 0x6000, PageProt::ReadWrite);
    table.unmap(0x12000, 0x2000);
    EXPECT_TRUE(table.isMapped(0x11fff));
    EXPECT_FALSE(table.isMapped(0x12000));
    EXPECT_FALSE(table.isMapped(0x13fff));
    EXPECT_TRUE(table.isMapped(0x14000));
    EXPECT_EQ(table.vmaCount(), 2u);
}

TEST(PageTable, TouchTracksResidencyPerPage)
{
    PageTable table;
    table.map(0x10000, 0x4000, PageProt::ReadWrite);
    table.touch(0x10000);
    table.touch(0x10800); // same page
    table.touch(0x11000);
    EXPECT_EQ(table.residentPages(), 2u);
    EXPECT_TRUE(table.isResident(0x10fff));
    EXPECT_FALSE(table.isResident(0x12000));
}

TEST(PageTable, DiscardDropsResidencyNotMapping)
{
    PageTable table;
    table.map(0x10000, 0x8000, PageProt::ReadWrite);
    for (VAddr a = 0x10000; a < 0x14000; a += kPageSize)
        table.touch(a);
    EXPECT_EQ(table.residentPages(), 4u);

    const std::uint64_t discarded = table.discard(0x10000, 0x8000);
    EXPECT_EQ(discarded, 4u);
    EXPECT_EQ(table.residentPages(), 0u);
    EXPECT_TRUE(table.isMapped(0x10000)); // madvise keeps the mapping
    EXPECT_EQ(table.protectionAt(0x10000), PageProt::ReadWrite);
}

TEST(PageTable, DiscardCountsOnlyResidentInRange)
{
    PageTable table;
    table.map(0x10000, 0x8000, PageProt::ReadWrite);
    table.touch(0x10000);
    table.touch(0x16000);
    EXPECT_EQ(table.discard(0x10000, 0x2000), 1u);
    EXPECT_TRUE(table.isResident(0x16000));
}

TEST(PageTable, RemapOverwritesProtection)
{
    PageTable table;
    table.map(0x10000, 0x4000, PageProt::None);
    table.map(0x11000, 0x1000, PageProt::ReadExec);
    EXPECT_EQ(table.protectionAt(0x11000), PageProt::ReadExec);
    EXPECT_EQ(table.protectionAt(0x10000), PageProt::None);
    EXPECT_EQ(table.protectionAt(0x12000), PageProt::None);
}

} // namespace
