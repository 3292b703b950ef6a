/**
 * @file
 * Tests for HfiContext: the sandbox lifecycle (§3.3), register locking,
 * syscall interposition (§4.4), the exit-reason MSR, OS save/restore
 * (§3.3.3), the switch-on-exit extension (§4.5), and the cycle costs of
 * each instruction.
 */

#include <gtest/gtest.h>

#include "core/checker.h"
#include "core/context.h"

namespace
{

using namespace hfi::core;
using hfi::vm::VirtualClock;

class ContextTest : public ::testing::Test
{
  protected:
    ImplicitDataRegion
    dataRegion(std::uint64_t base, std::uint64_t mask, bool rd = true,
               bool wr = true)
    {
        ImplicitDataRegion r;
        r.basePrefix = base;
        r.lsbMask = mask;
        r.permRead = rd;
        r.permWrite = wr;
        return r;
    }

    ExplicitDataRegion
    heapRegion(std::uint64_t base, std::uint64_t bound)
    {
        ExplicitDataRegion r;
        r.baseAddress = base;
        r.bound = bound;
        r.permRead = true;
        r.permWrite = true;
        r.isLargeRegion = true;
        return r;
    }

    VirtualClock clock;
    HfiContext ctx{clock};
};

TEST_F(ContextTest, StartsDisabled)
{
    EXPECT_FALSE(ctx.enabled());
    EXPECT_EQ(ctx.exitReason(), ExitReason::None);
}

TEST_F(ContextTest, EnterEnablesExitDisables)
{
    SandboxConfig cfg;
    EXPECT_EQ(ctx.enter(cfg), HfiResult::Ok);
    EXPECT_TRUE(ctx.enabled());
    ctx.exit();
    EXPECT_FALSE(ctx.enabled());
    EXPECT_EQ(ctx.exitReason(), ExitReason::HfiExit);
}

TEST_F(ContextTest, SetRegionValidatesSlotClass)
{
    // A data region in a code slot must trap, and vice versa.
    EXPECT_EQ(ctx.setRegion(0, Region{dataRegion(0x1000, 0xfff)}),
              HfiResult::Trap);
    ImplicitCodeRegion code;
    code.basePrefix = 0x400000;
    code.lsbMask = 0xffff;
    code.permExec = true;
    EXPECT_EQ(ctx.setRegion(2, Region{code}), HfiResult::Trap);
    EXPECT_EQ(ctx.setRegion(0, Region{code}), HfiResult::Ok);
    EXPECT_EQ(ctx.setRegion(2, Region{dataRegion(0x1000, 0xfff)}),
              HfiResult::Ok);
    EXPECT_EQ(ctx.setRegion(6, Region{heapRegion(0, 1 << 16)}),
              HfiResult::Ok);
}

TEST_F(ContextTest, SetRegionRejectsIllFormed)
{
    EXPECT_EQ(ctx.setRegion(2, Region{dataRegion(0x1800, 0xfff)}),
              HfiResult::Trap);
    ExplicitDataRegion bad = heapRegion(1, 1 << 16); // unaligned large
    EXPECT_EQ(ctx.setRegion(6, Region{bad}), HfiResult::Trap);
    EXPECT_EQ(ctx.exitReason(), ExitReason::IllegalRegionUpdate);
}

TEST_F(ContextTest, SetRegionOutOfRangeTraps)
{
    EXPECT_EQ(ctx.setRegion(kNumRegions, Region{EmptyRegion{}}),
              HfiResult::Trap);
}

TEST_F(ContextTest, NativeSandboxLocksRegions)
{
    // §3.3.1: the native sandbox locks all region registers from
    // hfi_enter until exit.
    ASSERT_EQ(ctx.setRegion(2, Region{dataRegion(0x1000, 0xfff)}),
              HfiResult::Ok);
    SandboxConfig cfg;
    cfg.isHybrid = false;
    ctx.enter(cfg);
    EXPECT_EQ(ctx.setRegion(3, Region{dataRegion(0x2000, 0xfff)}),
              HfiResult::Trap);
    EXPECT_EQ(ctx.clearRegion(2), HfiResult::Trap);
    EXPECT_EQ(ctx.clearAllRegions(), HfiResult::Trap);
    EXPECT_FALSE(ctx.getRegion(2).has_value());
    ctx.exit();
    EXPECT_EQ(ctx.setRegion(3, Region{dataRegion(0x2000, 0xfff)}),
              HfiResult::Ok);
}

TEST_F(ContextTest, HybridSandboxKeepsRegionsWritable)
{
    SandboxConfig cfg;
    cfg.isHybrid = true;
    ctx.enter(cfg);
    EXPECT_EQ(ctx.setRegion(6, Region{heapRegion(0, 1 << 16)}),
              HfiResult::Ok);
    auto got = ctx.getRegion(6);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(std::get<ExplicitDataRegion>(*got).bound, 1u << 16);
}

TEST_F(ContextTest, HybridRegionUpdateSerializes)
{
    // §4.3: region updates inside a hybrid sandbox serialize; outside
    // they do not.
    const auto outside0 = ctx.stats().serializations;
    ctx.setRegion(6, Region{heapRegion(0, 1 << 16)});
    EXPECT_EQ(ctx.stats().serializations, outside0);

    SandboxConfig cfg;
    cfg.isHybrid = true;
    ctx.enter(cfg);
    ctx.setRegion(6, Region{heapRegion(0, 2 << 16)});
    EXPECT_EQ(ctx.stats().serializations, outside0 + 1);
}

TEST_F(ContextTest, SerializedEnterChargesSerialization)
{
    SandboxConfig cfg;
    cfg.isSerialized = true;
    const auto t0 = clock.now();
    ctx.enter(cfg);
    EXPECT_GE(clock.now() - t0,
              ctx.costs().serializeCycles + ctx.costs().enterCycles);
    EXPECT_EQ(ctx.stats().serializations, 1u);
    ctx.exit();
    EXPECT_EQ(ctx.stats().serializations, 2u);
}

TEST_F(ContextTest, UnserializedEnterIsFunctionCallCheap)
{
    SandboxConfig cfg;
    const auto t0 = clock.now();
    ctx.enter(cfg);
    ctx.exit();
    // §1: context switches "on the same order as a function call" —
    // low tens of cycles for the pair.
    EXPECT_LE(clock.now() - t0, 40u);
}

TEST_F(ContextTest, NativeExitGoesToHandler)
{
    SandboxConfig cfg;
    cfg.isHybrid = false;
    cfg.exitHandler = 0xcafe0000;
    ctx.enter(cfg);
    EXPECT_EQ(ctx.exit(), 0xcafe0000u);
}

TEST_F(ContextTest, HybridExitFallsThroughWithoutHandler)
{
    SandboxConfig cfg;
    cfg.isHybrid = true;
    ctx.enter(cfg);
    EXPECT_EQ(ctx.exit(), 0u);
}

TEST_F(ContextTest, SyscallPassesThroughWhenDisabledOrHybrid)
{
    EXPECT_FALSE(ctx.onSyscall().has_value());
    SandboxConfig cfg;
    cfg.isHybrid = true;
    ctx.enter(cfg);
    // §3.3.1: the hybrid runtime "can make any system calls it needs to
    // directly".
    EXPECT_FALSE(ctx.onSyscall().has_value());
    EXPECT_TRUE(ctx.enabled());
}

TEST_F(ContextTest, SyscallRedirectsInNativeSandbox)
{
    SandboxConfig cfg;
    cfg.isHybrid = false;
    cfg.exitHandler = 0xbeef0000;
    ctx.enter(cfg);
    auto handler = ctx.onSyscall();
    ASSERT_TRUE(handler.has_value());
    EXPECT_EQ(*handler, 0xbeef0000u);
    EXPECT_FALSE(ctx.enabled()); // disabled atomically with the redirect
    EXPECT_EQ(ctx.exitReason(), ExitReason::Syscall);
    EXPECT_EQ(ctx.stats().syscallRedirects, 1u);
}

TEST_F(ContextTest, ReenterRestoresLastSandbox)
{
    SandboxConfig cfg;
    cfg.isHybrid = false;
    cfg.exitHandler = 0xbeef0000;
    ctx.enter(cfg);
    ctx.onSyscall(); // kicked out
    EXPECT_FALSE(ctx.enabled());
    EXPECT_EQ(ctx.reenter(), HfiResult::Ok);
    EXPECT_TRUE(ctx.enabled());
    EXPECT_FALSE(ctx.config().isHybrid);
    EXPECT_EQ(ctx.config().exitHandler, 0xbeef0000u);
}

TEST_F(ContextTest, ReenterWhileEnabledTraps)
{
    ctx.enter(SandboxConfig{});
    EXPECT_EQ(ctx.reenter(), HfiResult::Trap);
}

TEST_F(ContextTest, FaultDisablesAndRecordsMsr)
{
    ctx.enter(SandboxConfig{});
    ctx.onFault(ExitReason::DataBoundsViolation);
    EXPECT_FALSE(ctx.enabled());
    EXPECT_EQ(ctx.readExitReasonMsr(), ExitReason::DataBoundsViolation);
    EXPECT_EQ(ctx.stats().faults, 1u);
}

TEST_F(ContextTest, XsaveXrstorRoundTrip)
{
    ctx.setRegion(2, Region{dataRegion(0x1000, 0xfff)});
    const HfiRegisterFile saved = ctx.xsave();
    ctx.clearAllRegions();
    EXPECT_TRUE(
        std::holds_alternative<EmptyRegion>(ctx.region(2)));
    EXPECT_EQ(ctx.xrstor(saved), HfiResult::Ok);
    EXPECT_TRUE(
        std::holds_alternative<ImplicitDataRegion>(ctx.region(2)));
}

TEST_F(ContextTest, XrstorInNativeSandboxTraps)
{
    // §3.3.3: xrstor with save-hfi-regs inside a native sandbox would
    // break isolation, so it traps.
    const HfiRegisterFile saved = ctx.xsave();
    SandboxConfig cfg;
    cfg.isHybrid = false;
    ctx.enter(cfg);
    EXPECT_EQ(ctx.xrstor(saved), HfiResult::Trap);
    EXPECT_EQ(ctx.exitReason(), ExitReason::IllegalXrstor);
    EXPECT_FALSE(ctx.enabled()); // the trap exits the sandbox
}

TEST_F(ContextTest, XrstorInHybridAllowed)
{
    const HfiRegisterFile saved = ctx.xsave();
    SandboxConfig cfg;
    cfg.isHybrid = true;
    ctx.enter(cfg);
    EXPECT_EQ(ctx.xrstor(saved), HfiResult::Ok);
}

TEST_F(ContextTest, SwitchOnExitRestoresRuntimeBank)
{
    // §4.5: the runtime's own regions are preserved across a
    // switch-on-exit child, and hfi_exit stays in HFI mode.
    ctx.setRegion(2, Region{dataRegion(0x1000, 0xfff)});
    SandboxConfig runtime_cfg;
    runtime_cfg.isHybrid = true;
    runtime_cfg.isSerialized = true;
    ctx.enter(runtime_cfg);

    SandboxConfig child;
    child.isHybrid = true; // leave regions writable so we can mutate
    child.switchOnExit = true;
    ctx.enter(child);
    ctx.setRegion(2, Region{dataRegion(0x2000, 0xfff)});
    ASSERT_TRUE(std::holds_alternative<ImplicitDataRegion>(ctx.region(2)));
    EXPECT_EQ(std::get<ImplicitDataRegion>(ctx.region(2)).basePrefix,
              0x2000u);

    ctx.exit();
    EXPECT_TRUE(ctx.enabled()); // still sandboxed — in the runtime's bank
    EXPECT_TRUE(ctx.lastExitSwitched());
    EXPECT_EQ(std::get<ImplicitDataRegion>(ctx.region(2)).basePrefix,
              0x1000u);
    EXPECT_EQ(ctx.stats().bankSwitches, 2u);

    // The runtime's own exit is serialized and actually leaves HFI.
    ctx.exit();
    EXPECT_FALSE(ctx.enabled());
}

TEST_F(ContextTest, SwitchOnExitAvoidsSerialization)
{
    SandboxConfig runtime_cfg;
    runtime_cfg.isHybrid = true;
    runtime_cfg.isSerialized = true;
    ctx.enter(runtime_cfg);
    const auto serializations = ctx.stats().serializations;

    SandboxConfig child;
    child.switchOnExit = true;
    ctx.enter(child);
    ctx.exit();
    // Neither the child's entry nor its exit serialized (§4.5).
    EXPECT_EQ(ctx.stats().serializations, serializations);
}

TEST_F(ContextTest, StatsCountLifecycle)
{
    ctx.enter(SandboxConfig{});
    ctx.exit();
    ctx.enter(SandboxConfig{});
    ctx.exit();
    EXPECT_EQ(ctx.stats().enters, 2u);
    EXPECT_EQ(ctx.stats().exits, 2u);
}

TEST_F(ContextTest, RegionEpochCountsEveryBankWrite)
{
    // Every write to the active bank moves the epoch; nothing else does.
    // It is not part of the saved image, so restoring an old image still
    // moves it forward.
    std::uint64_t epoch = ctx.regionEpoch();
    auto moved = [&] {
        const bool m = ctx.regionEpoch() > epoch;
        epoch = ctx.regionEpoch();
        return m;
    };
    const HfiRegisterFile old_image = ctx.xsave();
    EXPECT_FALSE(moved());
    ctx.setRegion(6, Region{heapRegion(0x10000, 0x10000)});
    EXPECT_TRUE(moved());
    ctx.clearRegion(6);
    EXPECT_TRUE(moved());
    ctx.clearAllRegions();
    EXPECT_TRUE(moved());
    EXPECT_EQ(ctx.xrstor(old_image), HfiResult::Ok);
    EXPECT_TRUE(moved());
    ctx.kernelXrstor(old_image);
    EXPECT_TRUE(moved());

    // Failed writes, reads, enter, exit and faults leave it alone.
    EXPECT_EQ(ctx.setRegion(0, Region{heapRegion(0x10000, 0x10000)}),
              HfiResult::Trap);
    ctx.getRegion(6);
    ctx.xsave();
    SandboxConfig hybrid;
    hybrid.isHybrid = true;
    ctx.enter(hybrid);
    ctx.exit();
    ctx.onFault(ExitReason::HardwareFault);
    EXPECT_FALSE(moved());

    // Switch-on-exit swaps the whole bank back on hfi_exit.
    ctx.enter(hybrid);
    SandboxConfig child;
    child.isHybrid = true;
    child.switchOnExit = true;
    ctx.enter(child);
    EXPECT_FALSE(moved());
    ctx.exit();
    EXPECT_TRUE(ctx.lastExitSwitched());
    EXPECT_TRUE(moved());
}

TEST(ExitReasonNames, AllDistinctAndNamed)
{
    for (int i = 0; i <= static_cast<int>(ExitReason::IllegalXrstor); ++i) {
        const char *name = toString(static_cast<ExitReason>(i));
        EXPECT_STRNE(name, "unknown");
    }
}

} // namespace
