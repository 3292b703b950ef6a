/**
 * @file
 * A sandbox instance: one linear memory + one isolation backend + the
 * metered execution surface that workloads run against.
 *
 * Workloads perform *real* computation — loads and stores move genuine
 * bytes through LinearMemory so functional results are testable — while
 * every access is (a) checked by the configured isolation backend and
 * (b) charged to the virtual clock with the backend's steady-state cost
 * structure. This is the same separation the paper's compiler-based
 * emulation makes (§5.2): real work, modeled isolation costs.
 */

#ifndef HFI_SFI_SANDBOX_H
#define HFI_SFI_SANDBOX_H

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/checker.h"
#include "sfi/backend.h"
#include "sfi/linear_memory.h"
#include "vm/mmu.h"

namespace hfi::sfi
{

/**
 * Thrown when a sandboxed access traps (guard-page SIGSEGV, bounds-check
 * trap stub, or HFI fault). Mask backends wrap instead of throwing —
 * that is their documented defect — and trap only when the memory has
 * no byte to wrap into.
 */
class SandboxTrap : public std::runtime_error
{
  public:
    SandboxTrap(std::uint64_t offset, std::uint32_t width, bool write);

    std::uint64_t offset() const { return offset_; }
    std::uint32_t width() const { return width_; }
    bool isWrite() const { return write_; }

  private:
    std::uint64_t offset_;
    std::uint32_t width_;
    bool write_;
};

/** Per-sandbox construction parameters. */
struct SandboxOptions
{
    std::uint64_t initialPages = 1;
    std::uint64_t maxPages = 65536; ///< 4 GiB, the Wasm limit
    /**
     * How sensitive this workload's code footprint is to instruction-
     * cache pressure (0..100). Big-code workloads (445.gobmk) suffer
     * from hmov's longer encodings (§6.1); small kernels do not.
     */
    unsigned icacheSensitivity = 0;
    /**
     * Runtime bookkeeping charged per memory_grow call in nanoseconds
     * (instance table updates, libcall trampoline). Calibrated so the
     * §6.1 grow microbenchmark lands on the paper's 370 ms HFI total.
     */
    double growRuntimeNs = 5640.0;
};

/** Execution counters for one sandbox. */
struct SandboxStats
{
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t ops = 0;
    std::uint64_t growCalls = 0;
    std::uint64_t traps = 0;
    std::uint64_t wrappedAccesses = 0;
    std::uint64_t invocations = 0;
};

/**
 * One sandbox instance.
 *
 * Thin, fast hot path: load/store perform the backend check, charge the
 * cached milli-cycle cost, page in newly touched 4 KiB pages through the
 * Mmu (first touch only), and move real bytes.
 *
 * The check is split in two. The header-inline fast path decides the
 * common case — an access the backend admits unchanged, on a page
 * already touched — from the FastAccessPath resolved at construction:
 * one inline hmov check on the live HFI register file, or one overflow-
 * safe bounds compare, and no call. Everything else (traps, mask wraps,
 * first touches) takes the out-of-line checkedOffset, which asks the
 * virtual IsolationBackend::checkAccess. Both paths charge the same
 * cost, so the split is invisible to the virtual clock.
 */
class Sandbox
{
  public:
    /**
     * Create a sandbox over @p backend. The backend's create() runs
     * immediately; failure (address space exhausted) leaves valid()
     * false — the §6.3.2 scaling limit.
     */
    Sandbox(std::unique_ptr<IsolationBackend> backend, vm::Mmu &mmu,
            SandboxOptions opts = {});
    ~Sandbox();

    Sandbox(const Sandbox &) = delete;
    Sandbox &operator=(const Sandbox &) = delete;

    /** True when the backend's address-space footprint was created. */
    bool valid() const { return valid_; }

    /** Re-install per-core enforcement state on warm dispatch. */
    void rebindRegions() { backend_->rebindRegions(); }

    /** Enter sandboxed execution (springboard / hfi_enter). */
    void enter();

    /** Leave sandboxed execution (trampoline / hfi_exit). */
    void exit();

    /**
     * Run @p fn between enter() and exit(), converting a SandboxTrap
     * into a false return. The normal way workloads are invoked.
     */
    template <typename F>
    bool
    invoke(F &&fn)
    {
        ++stats_.invocations;
        enter();
        bool ok = true;
        try {
            fn(*this);
        } catch (const SandboxTrap &) {
            ++stats_.traps;
            ok = false;
        }
        exit();
        return ok;
    }

    /** memory_grow: add @p delta_pages. @return prior size or -1. */
    std::int64_t memoryGrow(std::uint64_t delta_pages);

    /** Typed load at @p offset; throws SandboxTrap on a violation. */
    template <typename T>
    T
    load(std::uint64_t offset)
    {
        return loadAt<T>(fastPathAdmits(offset, sizeof(T), false)
                             ? offset
                             : checkedOffset(offset, sizeof(T), false));
    }

    /** Typed store at @p offset; throws SandboxTrap on a violation. */
    template <typename T>
    void
    store(std::uint64_t offset, T value)
    {
        storeAt<T>(fastPathAdmits(offset, sizeof(T), true)
                       ? offset
                       : checkedOffset(offset, sizeof(T), true),
                   value);
    }

    /**
     * The untyped state of a Span: the element range, how much of it the
     * range check admitted, and how far its touched prefix reaches.
     */
    class SpanWindow
    {
      protected:
        SpanWindow(Sandbox &sandbox, std::uint64_t offset,
                   std::uint64_t count, std::uint64_t elem_size);

        /**
         * Extend the touched prefix past pages touched since it was last
         * measured (by a delegated access or anything else).
         */
        void refresh();

        Sandbox &sandbox_;
        std::uint64_t offset_;
        /** Elements i < limit_ take the fast path. */
        std::uint64_t limit_ = 0;
        const std::uint64_t *epoch_;
        std::uint64_t epoch0_;

      private:
        /** Elements the range check admitted: the count, or 0. */
        std::uint64_t admitted_ = 0;
        std::uint64_t elemSize_;
        /** Pages of the range before nextPage_ are known touched. */
        std::uint64_t nextPage_;
        std::uint64_t lastPage_ = 0;
    };

    /**
     * A range-checked view of an array of T in the linear memory, for
     * loops that sweep a known range. Element i is exactly the access
     * Sandbox::load/store makes at offset + i * sizeof(T): same value or
     * trap, same counters and charge in the same order, so every clock
     * flush lands where it would without the span.
     *
     * The range check is done once, when the span is made: the whole
     * byte range must lie in the linear memory and, under HFI, pass one
     * hmov check of the range's width for loads and one for stores (the
     * region check is monotone, so that admits every element). An
     * element access then skips the per-access check when i is inside
     * the admitted range, the 4 KiB pages up to its first byte are
     * already touched, and — under HFI — the context's region-write
     * epoch has not moved since the check (a grow, an xrstor or another
     * sandbox on the core may have rewritten the slot). Anything else
     * goes through Sandbox::load/store, the one slow path, so traps,
     * wraps, first touches and trap reasons stay exact; after such an
     * access the span extends its touched prefix. Making a span touches
     * no page. Other backends need no epoch: their admitted set is the
     * linear memory, which never shrinks.
     *
     * A span borrows its sandbox and must not outlive it.
     */
    template <typename T>
    class Span : private SpanWindow
    {
      public:
        T
        load(std::uint64_t i)
        {
            const std::uint64_t at = offset_ + i * sizeof(T);
            if (i < limit_ && *epoch_ == epoch0_)
                return sandbox_.loadAt<T>(at);
            const T value = sandbox_.load<T>(at);
            refresh();
            return value;
        }

        void
        store(std::uint64_t i, T value)
        {
            const std::uint64_t at = offset_ + i * sizeof(T);
            if (i < limit_ && *epoch_ == epoch0_) {
                sandbox_.storeAt<T>(at, value);
                return;
            }
            sandbox_.store<T>(at, value);
            refresh();
        }

      private:
        friend class Sandbox;

        Span(Sandbox &sandbox, std::uint64_t offset, std::uint64_t count)
            : SpanWindow(sandbox, offset, count, sizeof(T))
        {
        }
    };

    /** A Span over @p count elements of T at byte @p offset. */
    template <typename T>
    Span<T>
    span(std::uint64_t offset, std::uint64_t count)
    {
        return Span<T>(*this, offset, count);
    }

    /**
     * Charge @p n ALU/control operations of compute. One op is one
     * cycle at the model's IPC=1 baseline, plus the backend's register-
     * pressure tax.
     */
    void
    chargeOps(std::uint64_t n)
    {
        stats_.ops += n;
        chargeMilli(n * (1000 + opMilli));
    }

    LinearMemory &memory() { return memory_; }
    const LinearMemory &memory() const { return memory_; }
    IsolationBackend &backend() { return *backend_; }
    const SandboxStats &stats() const { return stats_; }
    vm::Mmu &mmu() { return mmu_; }

    /** Flush accumulated sub-cycle charge to the clock (done on exit). */
    void flushCharge();

  private:
    /**
     * True when the access proceeds at @p offset with no side effect
     * beyond the data movement and the charge: the backend admits it
     * unchanged, it ends inside the linear memory, and its 4 KiB page
     * is already touched. The last-byte test matters only under HFI,
     * where another sandbox may have programmed a larger region into
     * this one's slot; such accesses go to checkedOffset and trap.
     */
    bool
    fastPathAdmits(std::uint64_t offset, std::uint32_t width,
                   bool write) const
    {
        core::HmovOperands ops;
        ops.index = static_cast<std::int64_t>(offset);
        ops.width = width;
        const bool ok = fast_.bank
                            ? core::AccessChecker::checkHmov(
                                  *fast_.bank, fast_.explicitSlot, ops, write)
                                  .ok
                            : memory_.inBounds(offset, width);
        return ok && (offset + width - 1) / vm::kPageSize < touched.size() &&
               touched[offset / vm::kPageSize];
    }

    /** Backend check + first-touch paging; returns the final offset. */
    std::uint64_t checkedOffset(std::uint64_t offset, std::uint32_t width,
                                bool write);

    /**
     * True when every load and store inside [offset, offset + bytes)
     * passes the fast path's check (not its touch test); false for an
     * empty range.
     */
    bool rangeAdmits(std::uint64_t offset, std::uint64_t bytes) const;

    /** The counted, charged data movement of an admitted load. */
    template <typename T>
    T
    loadAt(std::uint64_t at)
    {
        ++stats_.loads;
        chargeMilli(1000 + loadMilli);
        return memory_.load<T>(at);
    }

    /** The counted, charged data movement of an admitted store. */
    template <typename T>
    void
    storeAt(std::uint64_t at, T value)
    {
        ++stats_.stores;
        chargeMilli(1000 + storeMilli);
        memory_.store<T>(at, value);
    }

    void
    chargeMilli(std::uint64_t milli)
    {
        pendingMilli += milli;
        if (pendingMilli >= kFlushThresholdMilli)
            flushCharge();
    }

    /**
     * Flush granularity: accumulated sub-cycle charge is pushed to the
     * clock once it reaches ~1000 cycles, so no observer (queueing
     * models in particular) ever sees a large deferred burst.
     */
    static constexpr std::uint64_t kFlushThresholdMilli = 1'000'000;

    /** Widest range one span admits: an hmov width is 32 bits. */
    static constexpr std::uint64_t kMaxSpanBytes = 0xffffffffULL;

    /** The epoch of backends whose admitted set never shrinks. */
    static constexpr std::uint64_t kNoRegionEpoch = 0;

    std::unique_ptr<IsolationBackend> backend_;
    FastAccessPath fast_;
    vm::Mmu &mmu_;
    LinearMemory memory_;
    SandboxOptions opts;
    bool valid_ = false;

    /** Cached per-access costs (backend table + icache sensitivity). */
    std::uint64_t loadMilli = 0;
    std::uint64_t storeMilli = 0;
    std::uint64_t opMilli = 0;

    std::uint64_t pendingMilli = 0;
    /**
     * First-touch flag per 4 KiB page of the accessible linear memory
     * (one byte each, grown with it). Separate from the Mmu's resident
     * set on purpose: Runtime::reclaim discards residency but a warm
     * instance's pages stay touched here, so they take no new fault.
     */
    std::vector<std::uint8_t> touched;

    SandboxStats stats_;
};

} // namespace hfi::sfi

#endif // HFI_SFI_SANDBOX_H
