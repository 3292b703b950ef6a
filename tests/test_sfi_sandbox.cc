/**
 * @file
 * Tests for the Sandbox execution surface: real data movement, traps
 * as exceptions, memory_grow, cost metering, and first-touch paging.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <variant>
#include <string>
#include <vector>

#include "sfi/hfi_backend.h"
#include "sfi/runtime.h"
#include "sfi/sandbox.h"

namespace
{

using namespace hfi;
using namespace hfi::sfi;

class SandboxTest : public ::testing::Test
{
  protected:
    std::unique_ptr<Sandbox>
    make(BackendKind kind, SandboxOptions opts = {})
    {
        RuntimeConfig config;
        config.backend = kind;
        Runtime runtime(mmu, ctx, config);
        return runtime.createSandbox(opts);
    }

    vm::VirtualClock clock;
    vm::Mmu mmu{clock};
    core::HfiContext ctx{clock};
};

class SandboxAllBackends
    : public SandboxTest,
      public ::testing::WithParamInterface<BackendKind>
{
};

TEST_P(SandboxAllBackends, LoadStoreRoundTrip)
{
    auto sandbox = make(GetParam());
    ASSERT_TRUE(sandbox);
    sandbox->store<std::uint64_t>(64, 0xfeedface12345678ULL);
    sandbox->store<std::uint8_t>(72, 0x7f);
    EXPECT_EQ(sandbox->load<std::uint64_t>(64), 0xfeedface12345678ULL);
    EXPECT_EQ(sandbox->load<std::uint8_t>(72), 0x7f);
    EXPECT_EQ(sandbox->stats().loads, 2u);
    EXPECT_EQ(sandbox->stats().stores, 2u);
}

TEST_P(SandboxAllBackends, MemoryGrowSemantics)
{
    auto sandbox = make(GetParam(), {1, 8});
    ASSERT_TRUE(sandbox);
    EXPECT_EQ(sandbox->memoryGrow(3), 1);
    EXPECT_EQ(sandbox->memoryGrow(10), -1);
    EXPECT_EQ(sandbox->memory().pages(), 4u);
    EXPECT_EQ(sandbox->stats().growCalls, 2u);
}

TEST_P(SandboxAllBackends, HugeGrowDeltaChangesNothing)
{
    // size + delta wraps past 2^64. The grow must fail and leave the
    // size, the HFI region bound and the first-touch map as they were.
    auto sandbox = make(GetParam(), {2, 65536});
    ASSERT_TRUE(sandbox);
    sandbox->store<std::uint64_t>(8, 0x0123456789abcdefULL);
    const auto faults0 = mmu.stats().pageFaults;
    for (const std::uint64_t delta : {~0ULL, ~0ULL - 1, 1ULL << 63}) {
        EXPECT_EQ(sandbox->memoryGrow(delta), -1) << delta;
        EXPECT_EQ(sandbox->memory().pages(), 2u);
        EXPECT_EQ(sandbox->memory().size(), 2 * kWasmPageSize);
    }
    if (GetParam() == BackendKind::Hfi) {
        const unsigned slot =
            static_cast<HfiBackend &>(sandbox->backend()).config().explicitSlot;
        const core::Region &region =
            ctx.region(core::kFirstExplicitRegion + slot);
        ASSERT_TRUE(std::holds_alternative<core::ExplicitDataRegion>(region));
        EXPECT_EQ(std::get<core::ExplicitDataRegion>(region).bound,
                  2 * kWasmPageSize);
    }
    // The touched page takes no new fault; the last page takes its first.
    EXPECT_EQ(sandbox->load<std::uint64_t>(8), 0x0123456789abcdefULL);
    EXPECT_EQ(mmu.stats().pageFaults, faults0);
    sandbox->store<std::uint8_t>(2 * kWasmPageSize - 1, 1);
    EXPECT_EQ(mmu.stats().pageFaults, faults0 + 1);
    if (GetParam() != BackendKind::Mask) {
        EXPECT_THROW(sandbox->load<std::uint8_t>(2 * kWasmPageSize),
                     SandboxTrap);
    }
}

INSTANTIATE_TEST_SUITE_P(Kinds, SandboxAllBackends,
                         ::testing::Values(BackendKind::GuardPages,
                                           BackendKind::BoundsCheck,
                                           BackendKind::Mask,
                                           BackendKind::Hfi));

/**
 * Differential check of Sandbox::load/store (inline fast path + out-of-
 * line slow path) against the virtual checkAccess oracle.
 *
 * Two identical worlds replay the same accesses. In the first, every
 * access goes through Sandbox::load/store. In the second, a reference
 * built only from the public surface — backend().checkAccess, a first-
 * touch Mmu access per 4 KiB page, the backend's cost table — performs
 * it. After each access both worlds flush their sub-cycle charge and
 * must agree on value or trap, trap reason, wrap count, Mmu page faults
 * and the clock.
 */
class SandboxOracleTest
    : public ::testing::TestWithParam<BackendKind>
{
  protected:
    static constexpr unsigned kIcacheSensitivity = 37;

    struct World
    {
        explicit World(BackendKind kind)
        {
            config.backend = kind;
            sandbox = create();
        }

        std::unique_ptr<Sandbox>
        create()
        {
            Runtime runtime(mmu, ctx, config);
            return runtime.createSandbox({1, 8, kIcacheSensitivity});
        }

        vm::VirtualClock clock;
        vm::Mmu mmu{clock};
        core::HfiContext ctx{clock};
        RuntimeConfig config;
        std::unique_ptr<Sandbox> sandbox;
    };

    /** The reference's own state in the oracle world. */
    struct Reference
    {
        std::set<std::uint64_t> touched;
        std::uint64_t pendingMilli = 0;
        std::uint64_t wrapped = 0;
    };

    SandboxOracleTest() : fast(GetParam()), oracle(GetParam()) {}

    core::ExitReason
    lastTrapReason(World &w) const
    {
        if (GetParam() != BackendKind::Hfi)
            return core::ExitReason::None;
        return static_cast<HfiBackend &>(w.sandbox->backend())
            .lastTrapReason();
    }

    /** Oracle access; returns false on a trap, else the value moved. */
    template <typename T>
    bool
    referenceAccess(std::uint64_t offset, bool write, T value, T *out)
    {
        Sandbox &s = *oracle.sandbox;
        const AccessCheck check =
            s.backend().checkAccess(offset, sizeof(T), write, s.memory());
        if (check.outcome == AccessOutcome::Trap)
            return false;
        if (check.outcome == AccessOutcome::Wrapped)
            ++ref.wrapped;
        const std::uint64_t page = check.offset / vm::kPageSize;
        if (page < s.memory().maxPages() * (kWasmPageSize / vm::kPageSize) &&
            ref.touched.insert(page).second)
            oracle.mmu.access(s.backend().baseAddress() + check.offset,
                              sizeof(T), write);
        const SteadyStateCosts c = s.backend().steadyStateCosts();
        ref.pendingMilli += 1000 + c.icacheMilliPerAccess * kIcacheSensitivity +
                            c.opPressureMilli +
                            (write ? c.storeExtraMilli : c.loadExtraMilli);
        oracle.clock.tick(ref.pendingMilli / 1000);
        ref.pendingMilli %= 1000;
        if (write)
            s.memory().store<T>(check.offset, value);
        else
            *out = s.memory().load<T>(check.offset);
        return true;
    }

    template <typename T>
    void
    compareAccess(std::uint64_t offset, bool write, const std::string &phase)
    {
        const T value = static_cast<T>(offset * 0x9e3779b97f4a7c15ULL +
                                       ++serial);
        T want = 0;
        const bool want_ok = referenceAccess<T>(offset, write, value, &want);

        T got = 0;
        bool got_ok = true;
        try {
            if (write)
                fast.sandbox->store<T>(offset, value);
            else
                got = fast.sandbox->load<T>(offset);
        } catch (const SandboxTrap &) {
            got_ok = false;
        }
        fast.sandbox->flushCharge();

        SCOPED_TRACE(phase + ": " + (write ? "store" : "load") + " width " +
                     std::to_string(sizeof(T)) + " at offset " +
                     std::to_string(offset));
        ASSERT_EQ(got_ok, want_ok);
        EXPECT_EQ(got, want);
        EXPECT_EQ(lastTrapReason(fast), lastTrapReason(oracle));
        EXPECT_EQ(fast.sandbox->stats().wrappedAccesses, ref.wrapped);
        EXPECT_EQ(fast.mmu.stats().pageFaults, oracle.mmu.stats().pageFaults);
        EXPECT_EQ(fast.clock.now(), oracle.clock.now());
    }

    template <typename T>
    void
    sweepWidth(const std::string &phase)
    {
        constexpr std::uint64_t w = sizeof(T);
        const std::uint64_t size = fast.sandbox->memory().size();
        const std::vector<std::uint64_t> offsets = {
            0, vm::kPageSize + 3, size - w, size - w + 1, size,
            1ULL << 32, 1ULL << 33,
            std::numeric_limits<std::uint64_t>::max() - w + 1};
        // Twice: the first pass takes first touches on the slow path,
        // the second finds the pages touched and runs on the fast path.
        for (int pass = 0; pass < 2; ++pass)
            for (std::uint64_t offset : offsets)
                for (bool write : {true, false})
                    compareAccess<T>(offset, write, phase);
    }

    void
    sweep(const std::string &phase)
    {
        sweepWidth<std::uint8_t>(phase);
        sweepWidth<std::uint16_t>(phase);
        sweepWidth<std::uint32_t>(phase);
        sweepWidth<std::uint64_t>(phase);
    }

    World fast;
    World oracle;
    Reference ref;
    std::uint64_t serial = 0;
};

TEST_P(SandboxOracleTest, FastPathMatchesCheckAccessOracle)
{
    ASSERT_TRUE(fast.sandbox && oracle.sandbox);
    sweep("initial");

    ASSERT_EQ(fast.sandbox->memoryGrow(1), 1);
    ASSERT_EQ(oracle.sandbox->memoryGrow(1), 1);
    sweep("after memoryGrow");

    // A second sandbox on the same HfiContext reprograms explicit slot 0
    // with its own one-page region (under HFI the first sandbox's
    // accesses are now checked against it), then clears it on
    // destruction. The other backends must not notice.
    auto fast_other = fast.create();
    auto oracle_other = oracle.create();
    ASSERT_TRUE(fast_other && oracle_other);
    sweep("slot reprogrammed by another sandbox");
    fast_other.reset();
    oracle_other.reset();
    sweep("slot cleared by another sandbox");
}

INSTANTIATE_TEST_SUITE_P(Kinds, SandboxOracleTest,
                         ::testing::Values(BackendKind::GuardPages,
                                           BackendKind::BoundsCheck,
                                           BackendKind::Mask,
                                           BackendKind::Hfi),
                         [](const auto &info) {
                             switch (info.param) {
                               case BackendKind::GuardPages:
                                 return "GuardPages";
                               case BackendKind::BoundsCheck:
                                 return "BoundsCheck";
                               case BackendKind::Mask: return "Mask";
                               case BackendKind::Hfi: return "Hfi";
                             }
                             return "Unknown";
                         });

TEST_F(SandboxTest, OutOfBoundsLoadThrows)
{
    auto sandbox = make(BackendKind::Hfi, {1, 8});
    ASSERT_TRUE(sandbox);
    EXPECT_THROW(sandbox->load<std::uint64_t>(kWasmPageSize),
                 SandboxTrap);
    try {
        sandbox->store<std::uint32_t>(kWasmPageSize + 12, 1);
        FAIL() << "expected trap";
    } catch (const SandboxTrap &trap) {
        EXPECT_EQ(trap.offset(), kWasmPageSize + 12);
        EXPECT_EQ(trap.width(), 4u);
        EXPECT_TRUE(trap.isWrite());
    }
}

TEST_F(SandboxTest, GrowThenAccessNoLongerTraps)
{
    auto sandbox = make(BackendKind::GuardPages, {1, 8});
    ASSERT_TRUE(sandbox);
    EXPECT_THROW(sandbox->load<std::uint8_t>(kWasmPageSize), SandboxTrap);
    EXPECT_EQ(sandbox->memoryGrow(1), 1);
    EXPECT_EQ(sandbox->load<std::uint8_t>(kWasmPageSize), 0);
}

TEST_F(SandboxTest, MaskSandboxNeverThrows)
{
    auto sandbox = make(BackendKind::Mask, {1, 8});
    ASSERT_TRUE(sandbox);
    // The wrapped store silently lands on in-bounds data (§2's
    // corruption hazard, demonstrated).
    sandbox->store<std::uint64_t>(8, 0x1111111111111111ULL);
    EXPECT_NO_THROW(sandbox->store<std::uint64_t>(
        kWasmPageSize + 8, 0x2222222222222222ULL));
    EXPECT_EQ(sandbox->stats().wrappedAccesses, 1u);
    // The wrap corrupted offset 8.
    EXPECT_EQ(sandbox->load<std::uint64_t>(8), 0x2222222222222222ULL);
}

TEST_F(SandboxTest, InvokeCatchesTraps)
{
    auto sandbox = make(BackendKind::Hfi, {1, 8});
    ASSERT_TRUE(sandbox);
    EXPECT_TRUE(sandbox->invoke([](Sandbox &s) {
        s.store<std::uint32_t>(0, 42);
    }));
    EXPECT_FALSE(sandbox->invoke([](Sandbox &s) {
        s.load<std::uint8_t>(1ULL << 30);
    }));
    EXPECT_EQ(sandbox->stats().traps, 1u);
    EXPECT_EQ(sandbox->stats().invocations, 2u);
    EXPECT_FALSE(ctx.enabled()); // exit ran despite the trap
}

TEST_F(SandboxTest, ComputeChargesVirtualTime)
{
    auto sandbox = make(BackendKind::BoundsCheck);
    ASSERT_TRUE(sandbox);
    const auto t0 = clock.now();
    sandbox->chargeOps(100'000);
    sandbox->flushCharge();
    // 100k ops at >= 1 cycle each, plus the 2.4% pressure tax.
    EXPECT_GE(clock.now() - t0, 100'000u);
    EXPECT_LE(clock.now() - t0, 110'000u);
}

TEST_F(SandboxTest, BoundsBackendChargesPerAccess)
{
    auto bounds = make(BackendKind::BoundsCheck);
    auto hfi_sandbox = make(BackendKind::Hfi);
    ASSERT_TRUE(bounds && hfi_sandbox);

    const auto t0 = clock.now();
    for (int i = 0; i < 10'000; ++i)
        bounds->load<std::uint64_t>(static_cast<std::uint64_t>(i) * 8 %
                                    4096);
    bounds->flushCharge();
    const auto bounds_cost = clock.now() - t0;

    const auto t1 = clock.now();
    for (int i = 0; i < 10'000; ++i)
        hfi_sandbox->load<std::uint64_t>(static_cast<std::uint64_t>(i) * 8 %
                                         4096);
    hfi_sandbox->flushCharge();
    const auto hfi_cost = clock.now() - t1;

    // Fig 3's mechanism: the compare+branch makes bounds-checked loads
    // measurably dearer than HFI's checks-in-parallel loads.
    EXPECT_GT(bounds_cost, hfi_cost + 10'000);
}

TEST_F(SandboxTest, FirstTouchChargesPageFaultsOnce)
{
    auto sandbox = make(BackendKind::GuardPages, {4, 16});
    ASSERT_TRUE(sandbox);
    const auto faults0 = mmu.stats().pageFaults;
    sandbox->store<std::uint64_t>(0, 1);
    sandbox->store<std::uint64_t>(8, 2); // same 4 KiB page
    EXPECT_EQ(mmu.stats().pageFaults, faults0 + 1);
    sandbox->store<std::uint64_t>(vm::kPageSize, 3);
    EXPECT_EQ(mmu.stats().pageFaults, faults0 + 2);
}

TEST_F(SandboxTest, LargerForeignHfiRegionTrapsPastOwnMemory)
{
    // Two HFI sandboxes share one HfiContext and explicit slot 0. The
    // second one's creation programs its four-page region there, so the
    // first one's hmov checks now admit offsets up to 256 KiB, past its
    // own one-page linear memory. Those accesses must trap, not run off
    // the backing store; accesses inside its memory still work.
    auto small = make(BackendKind::Hfi, {1, 8});
    ASSERT_TRUE(small);
    small->store<std::uint64_t>(kWasmPageSize - 8, 0x1122334455667788ULL);
    auto large = make(BackendKind::Hfi, {4, 8});
    ASSERT_TRUE(large);

    const auto faults0 = mmu.stats().pageFaults;
    EXPECT_THROW(small->load<std::uint32_t>(2 * kWasmPageSize), SandboxTrap);
    EXPECT_THROW(small->store<std::uint8_t>(kWasmPageSize, 1), SandboxTrap);
    // Straddles the end of the memory from an already-touched page.
    EXPECT_THROW(small->load<std::uint64_t>(kWasmPageSize - 4), SandboxTrap);
    EXPECT_EQ(mmu.stats().pageFaults, faults0);
    EXPECT_EQ(small->load<std::uint64_t>(kWasmPageSize - 8),
              0x1122334455667788ULL);

    // Growing the memory makes its second page reachable; the page past
    // it still traps.
    ASSERT_EQ(small->memoryGrow(1), 1);
    large->rebindRegions(); // grow reprogrammed the slot; restore it
    small->store<std::uint8_t>(kWasmPageSize, 7);
    EXPECT_EQ(small->load<std::uint8_t>(kWasmPageSize), 7);
    EXPECT_THROW(small->load<std::uint8_t>(2 * kWasmPageSize), SandboxTrap);
}

TEST_F(SandboxTest, IcacheSensitivityTaxesHfiAccesses)
{
    // §6.1's gobmk effect: a big-code workload pays for hmov's longer
    // encodings under HFI.
    auto plain = make(BackendKind::Hfi, {1, 8, /*icache*/ 0});
    auto bigcode = make(BackendKind::Hfi, {1, 8, /*icache*/ 80});
    ASSERT_TRUE(plain && bigcode);

    const auto t0 = clock.now();
    for (int i = 0; i < 10'000; ++i)
        plain->load<std::uint32_t>(0);
    plain->flushCharge();
    const auto plain_cost = clock.now() - t0;

    const auto t1 = clock.now();
    for (int i = 0; i < 10'000; ++i)
        bigcode->load<std::uint32_t>(0);
    bigcode->flushCharge();
    const auto bigcode_cost = clock.now() - t1;

    EXPECT_GT(bigcode_cost, plain_cost);
}

TEST_F(SandboxTest, GrowCostGapMatchesSection61)
{
    // The 30x grow gap in miniature: 16 grows under guard pages vs HFI.
    auto guard = make(BackendKind::GuardPages, {1, 65536});
    ASSERT_TRUE(guard);
    const double g0 = clock.nowNs();
    for (int i = 0; i < 16; ++i)
        guard->memoryGrow(1);
    const double guard_ns = clock.nowNs() - g0;

    auto hfi_sandbox = make(BackendKind::Hfi, {1, 65536});
    ASSERT_TRUE(hfi_sandbox);
    const double h0 = clock.nowNs();
    for (int i = 0; i < 16; ++i)
        hfi_sandbox->memoryGrow(1);
    const double hfi_ns = clock.nowNs() - h0;

    EXPECT_GT(guard_ns / hfi_ns, 20.0);
    EXPECT_LT(guard_ns / hfi_ns, 40.0);
}

} // namespace
