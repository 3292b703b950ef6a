/**
 * @file
 * Tests for the four isolation backends: enforcement semantics (precise
 * traps vs silent wrapping), address-space footprints, growth costs,
 * and steady-state cost tables — the behavioural contrasts of §2/Fig 3.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "sfi/bounds_check_backend.h"
#include "sfi/guard_page_backend.h"
#include "sfi/hfi_backend.h"
#include "sfi/linear_memory.h"
#include "sfi/mask_backend.h"
#include "vm/mmu.h"

namespace
{

using namespace hfi;
using namespace hfi::sfi;

class BackendTest : public ::testing::Test
{
  protected:
    std::unique_ptr<IsolationBackend>
    make(BackendKind kind)
    {
        switch (kind) {
          case BackendKind::GuardPages:
            return std::make_unique<GuardPageBackend>(mmu);
          case BackendKind::BoundsCheck:
            return std::make_unique<BoundsCheckBackend>(mmu);
          case BackendKind::Mask:
            return std::make_unique<MaskBackend>(mmu);
          case BackendKind::Hfi:
            return std::make_unique<HfiBackend>(mmu, ctx);
        }
        return nullptr;
    }

    vm::VirtualClock clock;
    vm::Mmu mmu{clock};
    core::HfiContext ctx{clock};
};

/** Enforcement semantics shared by the trapping backends. */
class TrappingBackendTest
    : public BackendTest,
      public ::testing::WithParamInterface<BackendKind>
{
};

TEST_P(TrappingBackendTest, InBoundsPassesOutOfBoundsTraps)
{
    auto backend = make(GetParam());
    ASSERT_TRUE(backend->create(2, 16));
    LinearMemory mem(2, 16);

    EXPECT_EQ(backend->checkAccess(0, 8, false, mem).outcome,
              AccessOutcome::Ok);
    EXPECT_EQ(backend->checkAccess(2 * kWasmPageSize - 8, 8, true, mem)
                  .outcome,
              AccessOutcome::Ok);
    // One byte past the accessible size: precise trap.
    EXPECT_EQ(backend->checkAccess(2 * kWasmPageSize - 7, 8, false, mem)
                  .outcome,
              AccessOutcome::Trap);
    EXPECT_EQ(backend->checkAccess(2 * kWasmPageSize, 1, false, mem)
                  .outcome,
              AccessOutcome::Trap);
    // Far out of bounds.
    EXPECT_EQ(backend->checkAccess(1ULL << 33, 8, true, mem).outcome,
              AccessOutcome::Trap);
}

TEST_P(TrappingBackendTest, OffsetsNearTwoTo64TrapInsteadOfWrapping)
{
    // offset + width wraps past 2^64 for these offsets; a compare on the
    // sum would admit them and the Sandbox would then read ~2^64 bytes
    // past the linear memory.
    auto backend = make(GetParam());
    ASSERT_TRUE(backend->create(1, 16));
    LinearMemory mem(1, 16);
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    for (std::uint32_t width : {1u, 2u, 4u, 8u}) {
        for (std::uint64_t offset : {kMax - 3, kMax - width + 1, kMax}) {
            for (bool write : {false, true}) {
                EXPECT_EQ(backend->checkAccess(offset, width, write, mem)
                              .outcome,
                          AccessOutcome::Trap)
                    << "offset=" << offset << " width=" << width;
            }
        }
    }
}

TEST_P(TrappingBackendTest, GrowExtendsTheAccessibleRange)
{
    auto backend = make(GetParam());
    ASSERT_TRUE(backend->create(1, 16));
    LinearMemory mem(1, 16);
    EXPECT_EQ(backend->checkAccess(kWasmPageSize, 8, false, mem).outcome,
              AccessOutcome::Trap);
    mem.grow(1);
    backend->grow(1, 2);
    EXPECT_EQ(backend->checkAccess(kWasmPageSize, 8, false, mem).outcome,
              AccessOutcome::Ok);
}

INSTANTIATE_TEST_SUITE_P(Kinds, TrappingBackendTest,
                         ::testing::Values(BackendKind::GuardPages,
                                           BackendKind::BoundsCheck,
                                           BackendKind::Hfi),
                         [](const auto &info) {
                             return std::string(
                                 backendKindName(info.param)) == "guard-pages"
                                        ? "GuardPages"
                                    : info.param == BackendKind::BoundsCheck
                                        ? "BoundsCheck"
                                        : "Hfi";
                         });

TEST_F(BackendTest, GuardPagesReserve8GiB)
{
    // §2: 4 GiB linear memory + 4 GiB guard, reserved even for a tiny
    // heap.
    GuardPageBackend backend(mmu);
    ASSERT_TRUE(backend.create(1, 65536));
    EXPECT_EQ(backend.reservedVaBytes(), 8ULL << 30);
    EXPECT_EQ(mmu.addressSpace().reservedBytes(), 8ULL << 30);
}

TEST_F(BackendTest, BoundsAndHfiReserveOnlyTheHeap)
{
    BoundsCheckBackend bounds(mmu);
    ASSERT_TRUE(bounds.create(1, 65536));
    EXPECT_EQ(bounds.reservedVaBytes(), 4ULL << 30);

    HfiBackend hfi_backend(mmu, ctx);
    ASSERT_TRUE(hfi_backend.create(1, 16384)); // 1 GiB max
    EXPECT_EQ(hfi_backend.reservedVaBytes(), 1ULL << 30);
}

TEST_F(BackendTest, GuardPageGrowPaysMprotect)
{
    GuardPageBackend backend(mmu);
    ASSERT_TRUE(backend.create(1, 65536));
    const auto calls = mmu.stats().mprotectCalls;
    const double t0 = clock.nowNs();
    backend.grow(1, 2);
    EXPECT_EQ(mmu.stats().mprotectCalls, calls + 1);
    // §6.1: ~166 µs per 64 KiB grow.
    EXPECT_GT(clock.nowNs() - t0, 100'000.0);
}

TEST_F(BackendTest, HfiGrowIsRegisterUpdate)
{
    HfiBackend backend(mmu, ctx);
    ASSERT_TRUE(backend.create(1, 65536));
    const auto mprotects = mmu.stats().mprotectCalls;
    const double t0 = clock.nowNs();
    backend.grow(1, 2);
    EXPECT_EQ(mmu.stats().mprotectCalls, mprotects); // no syscall at all
    // §6.1: "HFI can just update a region's bound registers".
    EXPECT_LT(clock.nowNs() - t0, 100.0);
}

TEST_F(BackendTest, HfiTrapReasonIsBoundsViolation)
{
    HfiBackend backend(mmu, ctx);
    ASSERT_TRUE(backend.create(1, 16));
    LinearMemory mem(1, 16);
    ASSERT_EQ(backend.checkAccess(kWasmPageSize + 5, 4, false, mem).outcome,
              AccessOutcome::Trap);
    EXPECT_EQ(backend.lastTrapReason(),
              core::ExitReason::HmovBoundsViolation);
}

TEST_F(BackendTest, HfiEnforcementMatchesRegionRegister)
{
    HfiBackend backend(mmu, ctx);
    ASSERT_TRUE(backend.create(2, 16));
    const auto &region = std::get<core::ExplicitDataRegion>(
        ctx.region(core::kFirstExplicitRegion));
    EXPECT_EQ(region.baseAddress, backend.baseAddress());
    EXPECT_EQ(region.bound, 2 * kWasmPageSize);
    EXPECT_TRUE(region.isLargeRegion);
}

TEST_F(BackendTest, MaskWrapsInsteadOfTrapping)
{
    // §2: masking converts out-of-bounds accesses into silent
    // corruption — the precise-trap defect the paper rules it out for.
    MaskBackend backend(mmu);
    ASSERT_TRUE(backend.create(4, 16));
    LinearMemory mem(4, 16);

    auto ok = backend.checkAccess(100, 8, false, mem);
    EXPECT_EQ(ok.outcome, AccessOutcome::Ok);
    EXPECT_EQ(ok.offset, 100u);

    auto wrapped =
        backend.checkAccess(4 * kWasmPageSize + 100, 8, true, mem);
    EXPECT_EQ(wrapped.outcome, AccessOutcome::Wrapped);
    EXPECT_LT(wrapped.offset + 8, mem.size());
}

TEST_F(BackendTest, MaskWrapsStayWhollyInsideTheMemory)
{
    // Every wrapped access, all of its bytes, must land inside the
    // accessible size: 0x1fffc + 8 on a one-page memory used to wrap to
    // 0xfffc and run 4 bytes past the end of the backing store.
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    for (std::uint64_t pages : {1ULL, 3ULL}) {
        MaskBackend backend(mmu);
        ASSERT_TRUE(backend.create(pages, 16));
        LinearMemory mem(pages, 16);
        const std::uint64_t size = mem.size();
        std::uint64_t wrapped_seen = 0;
        for (std::uint32_t width : {1u, 2u, 4u, 8u}) {
            std::vector<std::uint64_t> offsets = {
                kMax - width + 1, kMax - 3, kMax, 1ULL << 32, 1ULL << 33,
                0x1fffc, 0x1fffd, 0x1ffff};
            for (std::uint64_t base :
                 std::vector<std::uint64_t>{size, 2 * size, 1ULL << 16,
                                            1ULL << 17, 1ULL << 18})
                for (std::uint64_t d = 0; d < 16; ++d)
                    offsets.push_back(base - 8 + d);
            for (std::uint64_t offset : offsets) {
                const AccessCheck check =
                    backend.checkAccess(offset, width, true, mem);
                ASSERT_NE(check.outcome, AccessOutcome::Trap);
                if (check.outcome == AccessOutcome::Ok) {
                    EXPECT_EQ(check.offset, offset);
                    EXPECT_TRUE(mem.inBounds(offset, width));
                    continue;
                }
                ++wrapped_seen;
                EXPECT_TRUE(mem.inBounds(check.offset, width))
                    << "pages=" << pages << " offset=0x" << std::hex
                    << offset << " width=" << std::dec << width
                    << " wrapped to 0x" << std::hex << check.offset;
            }
        }
        EXPECT_GT(wrapped_seen, 0u);
    }
}

TEST_F(BackendTest, MaskTrapsOnlyWhenThereIsNothingToWrapInto)
{
    MaskBackend backend(mmu);
    ASSERT_TRUE(backend.create(0, 16));
    LinearMemory mem(0, 16);
    EXPECT_EQ(backend.checkAccess(0, 1, false, mem).outcome,
              AccessOutcome::Trap);
}

TEST_F(BackendTest, SteadyStateCostTables)
{
    GuardPageBackend guard(mmu);
    BoundsCheckBackend bounds(mmu);
    HfiBackend hfi_backend(mmu, ctx);

    // Guard pages: no per-access check, one pinned register (§6.1's
    // 2.25%). Bounds: compare+branch per access, two pinned registers
    // (2.40%). HFI: neither.
    EXPECT_EQ(guard.steadyStateCosts().loadExtraMilli, 0u);
    EXPECT_GT(guard.steadyStateCosts().opPressureMilli, 0u);
    EXPECT_GT(bounds.steadyStateCosts().loadExtraMilli, 0u);
    EXPECT_GT(bounds.steadyStateCosts().opPressureMilli,
              guard.steadyStateCosts().opPressureMilli);
    EXPECT_EQ(hfi_backend.steadyStateCosts().loadExtraMilli, 0u);
    EXPECT_EQ(hfi_backend.steadyStateCosts().opPressureMilli, 0u);
    EXPECT_GT(hfi_backend.steadyStateCosts().icacheMilliPerAccess, 0u);
}

TEST_F(BackendTest, HfiTransitionsDriveContext)
{
    HfiBackend backend(mmu, ctx);
    ASSERT_TRUE(backend.create(1, 16));
    EXPECT_FALSE(ctx.enabled());
    backend.enterSandbox();
    EXPECT_TRUE(ctx.enabled());
    EXPECT_TRUE(ctx.config().isHybrid);
    EXPECT_TRUE(ctx.config().isSerialized);
    backend.exitSandbox();
    EXPECT_FALSE(ctx.enabled());
}

TEST_F(BackendTest, HfiSwitchOnExitConfig)
{
    HfiBackendConfig config;
    config.switchOnExit = true;
    HfiBackend backend(mmu, ctx, config);
    ASSERT_TRUE(backend.create(1, 16));

    // The runtime sandbox wraps the child (§3.4).
    core::SandboxConfig runtime_cfg;
    runtime_cfg.isHybrid = true;
    runtime_cfg.isSerialized = true;
    ctx.enter(runtime_cfg);

    backend.enterSandbox();
    EXPECT_TRUE(ctx.config().switchOnExit);
    backend.exitSandbox();
    EXPECT_TRUE(ctx.enabled()); // back in the runtime sandbox
    EXPECT_TRUE(ctx.lastExitSwitched());
}

TEST_F(BackendTest, CreateFailsWhenAddressSpaceExhausted)
{
    vm::VirtualClock small_clock;
    vm::Mmu small_mmu(small_clock, 32); // 4 GiB space
    GuardPageBackend backend(small_mmu);
    EXPECT_FALSE(backend.create(1, 65536)); // needs 8 GiB
}

TEST_F(BackendTest, DestroyReleasesAddressSpace)
{
    {
        GuardPageBackend backend(mmu);
        ASSERT_TRUE(backend.create(1, 65536));
        EXPECT_GT(mmu.addressSpace().reservedBytes(), 0u);
        backend.destroy();
        EXPECT_EQ(mmu.addressSpace().reservedBytes(), 0u);
    }
    {
        // Destructor path.
        HfiBackend backend(mmu, ctx);
        ASSERT_TRUE(backend.create(1, 65536));
    }
    EXPECT_EQ(mmu.addressSpace().reservedBytes(), 0u);
}

TEST_F(BackendTest, BackendKindNames)
{
    EXPECT_STREQ(backendKindName(BackendKind::GuardPages), "guard-pages");
    EXPECT_STREQ(backendKindName(BackendKind::BoundsCheck), "bounds-check");
    EXPECT_STREQ(backendKindName(BackendKind::Mask), "mask");
    EXPECT_STREQ(backendKindName(BackendKind::Hfi), "hfi");
}

} // namespace
