/**
 * @file
 * Differential test of Sandbox::Span against Sandbox::load/store.
 *
 * Two identical worlds replay one seeded script. In the first, element
 * accesses go through a Span; in the twin, the same accesses go through
 * Sandbox::load/store at offset + i * sizeof(T). Everything else in the
 * script runs identically in both: pre-touching pages, accesses behind
 * the span's back, memoryGrow, compute charges and explicit flushes,
 * and under HFI another sandbox reprogramming then clearing the slot,
 * a read-only view of the slot, a rebind, and xsave/xrstor pairs (including restores of an image
 * saved before a grow). After every step the worlds must agree on the
 * value or trap, SandboxStats, the clock before and after a flush,
 * MmuStats and the HFI trap reason; at the end, on every memory byte.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <variant>

#include "sfi/hfi_backend.h"
#include "sfi/runtime.h"
#include "sfi/sandbox.h"

namespace
{

using namespace hfi;
using namespace hfi::sfi;

struct World
{
    World(BackendKind kind, SandboxOptions opts)
    {
        config.backend = kind;
        sandbox = create(opts);
    }

    std::unique_ptr<Sandbox>
    create(SandboxOptions opts)
    {
        Runtime runtime(mmu, ctx, config);
        return runtime.createSandbox(opts);
    }

    vm::VirtualClock clock;
    vm::Mmu mmu{clock};
    core::HfiContext ctx{clock};
    RuntimeConfig config;
    std::unique_ptr<Sandbox> sandbox;
    /** A second sandbox on the same HfiContext (same explicit slot). */
    std::unique_ptr<Sandbox> other;
    std::optional<core::HfiRegisterFile> saved;
};

/** What one access did. */
struct Outcome
{
    bool trapped = false;
    std::uint64_t value = 0;
    std::uint64_t trapOffset = 0;
    std::uint32_t trapWidth = 0;
    bool trapWrite = false;

    bool operator==(const Outcome &) const = default;
};

template <typename F>
Outcome
capture(F &&access)
{
    Outcome out;
    try {
        out.value = access();
    } catch (const SandboxTrap &trap) {
        out.trapped = true;
        out.trapOffset = trap.offset();
        out.trapWidth = trap.width();
        out.trapWrite = trap.isWrite();
    }
    return out;
}

class SpanDifferential : public ::testing::TestWithParam<BackendKind>
{
  protected:
    static constexpr int kSeeds = 160;
    static constexpr int kSteps = 600;

    bool hfi() const { return GetParam() == BackendKind::Hfi; }

    core::ExitReason
    lastTrapReason(World &w) const
    {
        if (!hfi())
            return core::ExitReason::None;
        return static_cast<HfiBackend &>(w.sandbox->backend())
            .lastTrapReason();
    }

    void
    expectSame(World &a, World &b, const std::string &what)
    {
        SCOPED_TRACE(what);
        const SandboxStats &sa = a.sandbox->stats();
        const SandboxStats &sb = b.sandbox->stats();
        EXPECT_EQ(sa.loads, sb.loads);
        EXPECT_EQ(sa.stores, sb.stores);
        EXPECT_EQ(sa.ops, sb.ops);
        EXPECT_EQ(sa.growCalls, sb.growCalls);
        EXPECT_EQ(sa.traps, sb.traps);
        EXPECT_EQ(sa.wrappedAccesses, sb.wrappedAccesses);
        EXPECT_EQ(sa.invocations, sb.invocations);
        EXPECT_EQ(a.clock.now(), b.clock.now());
        const vm::MmuStats &ma = a.mmu.stats();
        const vm::MmuStats &mb = b.mmu.stats();
        EXPECT_EQ(ma.mmapCalls, mb.mmapCalls);
        EXPECT_EQ(ma.munmapCalls, mb.munmapCalls);
        EXPECT_EQ(ma.mprotectCalls, mb.mprotectCalls);
        EXPECT_EQ(ma.madviseCalls, mb.madviseCalls);
        EXPECT_EQ(ma.pageFaults, mb.pageFaults);
        EXPECT_EQ(ma.pagesDiscarded, mb.pagesDiscarded);
        EXPECT_EQ(lastTrapReason(a), lastTrapReason(b));
    }

    /** A store that does not go through the span. */
    static Outcome
    directStore(Sandbox &s, std::uint64_t at)
    {
        return capture([&]() -> std::uint64_t {
            s.store<std::uint8_t>(at, 1);
            return 0;
        });
    }

    /** Replace the HFI slot with a read-only copy of what it holds. */
    static void
    makeReadOnly(World &w)
    {
        const unsigned n =
            core::kFirstExplicitRegion + w.config.hfi.explicitSlot;
        if (const auto *e =
                std::get_if<core::ExplicitDataRegion>(&w.ctx.region(n))) {
            core::ExplicitDataRegion view = *e;
            view.permWrite = false;
            w.ctx.setRegion(n, view);
        }
    }

    /** Run one seeded script with a Span<T>. */
    template <typename T>
    void
    run(std::uint64_t seed)
    {
        std::mt19937_64 rng(seed);
        const SandboxOptions opts{1 + rng() % 3, 8, 37};
        World a(GetParam(), opts);
        World b(GetParam(), opts);
        ASSERT_TRUE(a.sandbox && b.sandbox);

        // Under HFI, some spans start over a slot with a history: an
        // image saved before a grow (a later xrstor brings the smaller
        // region back), or a slot another sandbox programmed (its
        // destruction later clears it).
        if (hfi()) {
            switch (rng() % 4) {
              case 0:
                a.saved = a.ctx.xsave();
                b.saved = b.ctx.xsave();
                ASSERT_EQ(a.sandbox->memoryGrow(1), b.sandbox->memoryGrow(1));
                break;
              case 1:
                a.other = a.create({1, 8});
                b.other = b.create({1, 8});
                break;
              default: break;
            }
        }

        // Touch a random half of the pages, so spans start with holes.
        const std::uint64_t pages = a.sandbox->memory().size() /
                                    vm::kPageSize;
        for (std::uint64_t p = 0; p < pages; ++p) {
            if (rng() % 2 == 0)
                continue;
            const std::uint64_t at = p * vm::kPageSize + rng() % vm::kPageSize;
            ASSERT_EQ(directStore(*a.sandbox, at), directStore(*b.sandbox, at));
        }

        // Place the span across page and memory-end boundaries, or end it
        // just short of a Wasm page (the HFI bound's granularity) so the
        // elements right past it trap in the twin.
        const std::uint64_t size = a.sandbox->memory().size();
        std::uint64_t offset = 0;
        std::uint64_t count = 0;
        switch (rng() % 8) {
          case 0: count = 0; break;
          case 1: count = std::numeric_limits<std::uint64_t>::max() / 2; break;
          default: count = 1 + rng() % (3 * vm::kPageSize / sizeof(T)); break;
        }
        switch (rng() % 5) {
          case 0: offset = rng() % size; break;
          case 1: offset = (1 + rng() % pages) * vm::kPageSize - rng() % 16; break;
          case 2: offset = size - rng() % 256; break;
          case 3: offset = size + rng() % 64; break;
          default:
            count = 1 + rng() % (2 * vm::kPageSize / sizeof(T));
            offset = (1 + rng() % a.sandbox->memory().pages()) *
                         kWasmPageSize -
                     count * sizeof(T) - rng() % sizeof(T);
            break;
        }

        SCOPED_TRACE("seed " + std::to_string(seed) + ", width " +
                     std::to_string(sizeof(T)) + ", offset " +
                     std::to_string(offset) + ", count " +
                     std::to_string(count));
        if (hfi() && rng() % 8 == 0) {
            makeReadOnly(a);
            makeReadOnly(b);
        }
        auto span = a.sandbox->template span<T>(offset, count);
        expectSame(a, b, "after span creation");

        // Sweeps run through the span in order, as the handlers do, and
        // so hit every page and span boundary exactly.
        const std::uint64_t sweep_end =
            std::min<std::uint64_t>(count, 1 << 14) + 8;
        std::uint64_t cursor = 0;
        for (int step = 0; step < kSteps; ++step) {
            const unsigned r = static_cast<unsigned>(rng() % 100);
            std::string what = "step " + std::to_string(step);
            if (r < 80) {
                std::uint64_t i = 0;
                switch (rng() % 8) {
                  case 0: i = count + rng() % 64; break;
                  case 1:
                    i = std::numeric_limits<std::uint64_t>::max() - rng() % 64;
                    break;
                  case 2: i = rng(); break;
                  case 3:
                    // Restart the sweep a few elements before a page
                    // boundary.
                    cursor = ((offset / vm::kPageSize + 1 + rng() % 3) *
                                  vm::kPageSize -
                              offset) /
                             sizeof(T);
                    cursor -= std::min<std::uint64_t>(cursor, rng() % 3);
                    [[fallthrough]];
                  case 4:
                  case 5:
                    i = cursor;
                    cursor = cursor + 1 < sweep_end ? cursor + 1 : 0;
                    break;
                  default:
                    i = rng() % (count ? std::min<std::uint64_t>(count, 1 << 14)
                                       : 64);
                    break;
                }
                const bool write = rng() % 2;
                const T value = static_cast<T>(rng());
                const std::uint64_t at = offset + i * sizeof(T);
                what += (write ? ": store " : ": load ") + std::to_string(i);
                const vm::Cycles before = a.clock.now();
                const std::uint64_t faults = a.mmu.stats().pageFaults;
                const Outcome got = capture([&]() -> std::uint64_t {
                    if (write) {
                        span.store(i, value);
                        return 0;
                    }
                    return span.load(i);
                });
                const Outcome want = capture([&]() -> std::uint64_t {
                    if (write) {
                        b.sandbox->store<T>(at, value);
                        return 0;
                    }
                    return b.sandbox->load<T>(at);
                });
                if (a.clock.now() != before &&
                    a.mmu.stats().pageFaults == faults)
                    ++flushesInAccess;
                if (!got.trapped)
                    ++completedAccesses;
                ASSERT_EQ(got, want) << what;
            } else if (r < 84) {
                const std::uint64_t delta = rng() % 3;
                what += ": memoryGrow";
                ASSERT_EQ(a.sandbox->memoryGrow(delta),
                          b.sandbox->memoryGrow(delta));
            } else if (r < 88) {
                const std::uint64_t n = rng() % 5000;
                a.sandbox->chargeOps(n);
                b.sandbox->chargeOps(n);
            } else if (r < 91) {
                a.sandbox->flushCharge();
                b.sandbox->flushCharge();
                what += ": flushCharge";
            } else if (r < 94 || !hfi()) {
                // An access behind the span's back may touch a page the
                // span covers.
                const std::uint64_t at =
                    rng() % a.sandbox->memory().size();
                what += ": direct store";
                ASSERT_EQ(directStore(*a.sandbox, at),
                          directStore(*b.sandbox, at))
                    << what;
            } else if (r < 95) {
                // Another sandbox on the core programs its own one-page
                // region into the shared slot.
                if (!a.other) {
                    a.other = a.create({1, 8});
                    b.other = b.create({1, 8});
                    ++slotEvents;
                }
                what += ": slot reprogrammed";
            } else if (r < 96) {
                // ... and destroying it clears the slot.
                a.other.reset();
                b.other.reset();
                ++slotEvents;
                what += ": slot cleared";
            } else if (r < 97 && rng() % 2) {
                a.sandbox->rebindRegions();
                b.sandbox->rebindRegions();
                what += ": rebind";
            } else if (r < 97) {
                // Loads stay admitted, stores trap.
                makeReadOnly(a);
                makeReadOnly(b);
                ++slotEvents;
                what += ": slot made read-only";
            } else if (r < 98) {
                a.saved = a.ctx.xsave();
                b.saved = b.ctx.xsave();
                what += ": xsave";
            } else if (a.saved) {
                // Restores may bring back a smaller region saved before
                // a grow, or one saved while the slot was foreign.
                if (rng() % 2) {
                    ASSERT_EQ(a.ctx.xrstor(*a.saved), b.ctx.xrstor(*b.saved));
                } else {
                    a.ctx.kernelXrstor(*a.saved);
                    b.ctx.kernelXrstor(*b.saved);
                }
                ++slotEvents;
                what += ": xrstor";
            }
            expectSame(a, b, what);
            if (rng() % 16 == 0) {
                a.sandbox->flushCharge();
                b.sandbox->flushCharge();
                expectSame(a, b, what + ", then flushCharge");
            }
            if (HasFatalFailure() || HasNonfatalFailure())
                return;
        }

        a.sandbox->flushCharge();
        b.sandbox->flushCharge();
        expectSame(a, b, "end");
        const LinearMemory &ma = a.sandbox->memory();
        const LinearMemory &mb = b.sandbox->memory();
        ASSERT_EQ(ma.size(), mb.size());
        EXPECT_TRUE(std::equal(ma.data(), ma.data() + ma.size(), mb.data()));
    }

    std::uint64_t flushesInAccess = 0;
    std::uint64_t completedAccesses = 0;
    std::uint64_t slotEvents = 0;
};

TEST_P(SpanDifferential, MatchesLoadStoreTwin)
{
    for (int seed = 1; seed <= kSeeds; ++seed) {
        switch (seed % 4) {
          case 0: run<std::uint8_t>(seed); break;
          case 1: run<std::uint16_t>(seed); break;
          case 2: run<std::uint32_t>(seed); break;
          default: run<std::uint64_t>(seed); break;
        }
        if (HasFailure())
            return;
    }
    // The scripts reached the cases they exist for.
    EXPECT_GT(completedAccesses, 1000u);
    EXPECT_GT(flushesInAccess, 0u); // threshold flushes inside span accesses
    if (hfi()) {
        EXPECT_GT(slotEvents, 0u);
    }
}

/**
 * Each kind of write to the active bank, made while a span is live,
 * shrinks the HFI region under it. The span's next accesses must trap
 * exactly as Sandbox::load/store do, whatever the write was.
 */
class SpanRegionWrites : public ::testing::Test
{
  protected:
    /**
     * Make a span over bytes in the second Wasm page and check one load
     * succeeds, run @p shrink, then expect the span to trap.
     */
    template <typename F>
    void
    expectTrapAfter(World &w, F &&shrink)
    {
        ASSERT_EQ(w.sandbox->memory().pages(), 2u);
        w.sandbox->store<std::uint8_t>(kWasmPageSize, 7);
        auto span = w.sandbox->span<std::uint8_t>(kWasmPageSize, 16);
        EXPECT_EQ(span.load(0), 7);
        shrink();
        EXPECT_THROW(w.sandbox->load<std::uint8_t>(kWasmPageSize),
                     SandboxTrap);
        EXPECT_THROW(span.load(0), SandboxTrap);
        EXPECT_THROW(span.store(1, 1), SandboxTrap);
    }

    World w{BackendKind::Hfi, {1, 8}};
};

TEST_F(SpanRegionWrites, XrstorOfAnImageSavedBeforeAGrow)
{
    const core::HfiRegisterFile saved = w.ctx.xsave();
    ASSERT_EQ(w.sandbox->memoryGrow(1), 1);
    expectTrapAfter(w, [&] {
        ASSERT_EQ(w.ctx.xrstor(saved), core::HfiResult::Ok);
    });
}

TEST_F(SpanRegionWrites, KernelXrstorOfAnImageSavedBeforeAGrow)
{
    const core::HfiRegisterFile saved = w.ctx.xsave();
    ASSERT_EQ(w.sandbox->memoryGrow(1), 1);
    expectTrapAfter(w, [&] { w.ctx.kernelXrstor(saved); });
}

TEST_F(SpanRegionWrites, AnotherSandboxProgramsThenClearsTheSlot)
{
    ASSERT_EQ(w.sandbox->memoryGrow(1), 1);
    expectTrapAfter(w, [&] { w.other = w.create({1, 8}); });
    w.sandbox->rebindRegions();
    expectTrapAfter(w, [&] { w.other.reset(); });
}

TEST_F(SpanRegionWrites, ClearAllRegions)
{
    ASSERT_EQ(w.sandbox->memoryGrow(1), 1);
    expectTrapAfter(w, [&] { w.ctx.clearAllRegions(); });
}

TEST_F(SpanRegionWrites, SwitchOnExitRestoresTheRuntimeBank)
{
    // The runtime's bank holds the one-page region; a switch-on-exit
    // child grows it, and hfi_exit swaps the runtime's bank back.
    core::SandboxConfig runtime;
    runtime.isHybrid = true;
    w.ctx.enter(runtime);
    core::SandboxConfig child;
    child.isHybrid = true;
    child.switchOnExit = true;
    w.ctx.enter(child);
    ASSERT_EQ(w.sandbox->memoryGrow(1), 1);
    expectTrapAfter(w, [&] { w.ctx.exit(); });
    EXPECT_TRUE(w.ctx.lastExitSwitched());
}

INSTANTIATE_TEST_SUITE_P(Kinds, SpanDifferential,
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

} // namespace
