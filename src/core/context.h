/**
 * @file
 * The per-core HFI register state and instruction semantics (§3, §4.4).
 *
 * HfiContext models one CPU core's HFI extension: the ten region
 * registers, the exit-handler register, the configuration register, the
 * exit-reason MSR, and — when the switch-on-exit extension is in use — a
 * shadow bank holding the trusted runtime's registers (§4.5).
 *
 * Every architectural rule from the paper is enforced here:
 *  - region registers are locked between hfi_enter and exit for *native*
 *    sandboxes, writable from inside *hybrid* sandboxes (§3.3.1);
 *  - syscalls in native sandboxes are converted into a jump to the exit
 *    handler (§4.4); in hybrid sandboxes they pass through;
 *  - hfi_exit under switch-on-exit atomically restores the runtime's
 *    register bank instead of disabling HFI (§3.4, §4.5);
 *  - xrstor with save-hfi-regs traps inside a native sandbox (§3.3.3).
 *
 * All instruction costs are charged to the VirtualClock through
 * HfiCostParams so experiments see the paper's transition-cost structure.
 */

#ifndef HFI_CORE_CONTEXT_H
#define HFI_CORE_CONTEXT_H

#include <array>
#include <cstdint>
#include <optional>

#include "core/cost_model.h"
#include "core/region.h"
#include "obs/trace.h"
#include "vm/virtual_clock.h"

namespace hfi::core
{

/**
 * Why the core last left HFI mode (or why an HFI operation trapped).
 * Recorded in the exit-reason MSR (§3.3.2) and readable by the trusted
 * runtime's exit handler or SIGSEGV handler.
 */
enum class ExitReason : std::uint8_t
{
    None = 0,
    HfiExit,            ///< sandbox executed hfi_exit
    Syscall,            ///< native sandbox attempted a system call
    DataBoundsViolation,///< load/store missed all implicit data regions
    CodeBoundsViolation,///< instruction fetch missed all code regions
    PermissionViolation,///< first-match region lacked the permission
    HmovBoundsViolation,///< hmov effective address out of region bounds
    HmovNegativeOperand,///< hmov used a negative index/displacement
    HmovOverflow,       ///< hmov effective-address computation overflowed
    HmovEmptyRegion,    ///< hmov through a cleared/ill-typed region
    HardwareFault,      ///< non-HFI trap (e.g. page fault) in sandbox
    IllegalRegionUpdate,///< region write attempted in a native sandbox
    IllegalXrstor,      ///< xrstor(save-hfi-regs) inside a native sandbox
};

/** Number of ExitReason values (for per-reason accounting arrays). */
constexpr unsigned kNumExitReasons =
    static_cast<unsigned>(ExitReason::IllegalXrstor) + 1;

/**
 * Parameters of hfi_enter — the paper's sandbox_t (appendix A.1).
 */
struct SandboxConfig
{
    bool isHybrid = false;     ///< hybrid (trusted-compiler) sandbox
    bool isSerialized = false; ///< serialize enter/exit (§3.4)
    bool switchOnExit = false; ///< use the switch-on-exit extension
    /** Exit-handler address; 0 means no handler installed. */
    VAddr exitHandler = 0;
};

/** Outcome of an HFI instruction that can trap. */
enum class HfiResult
{
    Ok,
    Trap, ///< the operation trapped; the MSR holds the reason
};

/**
 * A snapshot of the HFI register file, as saved/restored by the OS with
 * xsave/xrstor (§3.3.3) or swapped by switch-on-exit (§4.5).
 *
 * Region registers are written through setRegion(), which also keeps a
 * flattened (discriminant + packed fields) shadow of every slot. The
 * per-access checks (AccessChecker::checkData/checkFetch/checkHmov) read
 * only the flattened bank, so the hot path is a compare-and-branch over
 * PODs rather than std::variant probing; the variant view stays
 * authoritative for everything cold (validation, tests, logs).
 */
struct HfiRegisterFile
{
    SandboxConfig config{};
    bool enabled = false;

    /** Region register @p n (variant view). */
    const Region &region(unsigned n) const { return regions_[n]; }

    /** All region registers (variant view). */
    const std::array<Region, kNumRegions> &regions() const
    {
        return regions_;
    }

    /** Write region register @p n, reflattening its slot. */
    void
    setRegion(unsigned n, const Region &region)
    {
        regions_[n] = region;
        flat_[n] = flattenRegion(region);
    }

    /** Flattened slot @p n — what the per-access checks read. */
    const FlatRegionSlot &flat(unsigned n) const { return flat_[n]; }

  private:
    std::array<Region, kNumRegions> regions_{};
    std::array<FlatRegionSlot, kNumRegions> flat_{};
};

/**
 * One core's HFI extension state and instruction implementations.
 *
 * The trusted runtime drives this object exactly like software drives the
 * real instructions: configure regions, hfi_enter, let sandboxed code's
 * accesses be checked (see AccessChecker), and handle exits.
 */
class HfiContext
{
  public:
    explicit HfiContext(vm::VirtualClock &clock, HfiCostParams costs = {});

    /**
     * hfi_set_region: write @p region into register @p n.
     *
     * Traps (IllegalRegionUpdate) when executed inside a native sandbox,
     * when the region value is ill-formed, or when the region type does
     * not match the register class (0-1 code, 2-5 implicit data, 6-9
     * explicit). Serializes when executed inside a hybrid sandbox (§4.3).
     */
    HfiResult setRegion(unsigned n, const Region &region);

    /** hfi_get_region: read register @p n. Traps in a native sandbox. */
    std::optional<Region> getRegion(unsigned n);

    /** hfi_clear_region. Traps inside a native sandbox. */
    HfiResult clearRegion(unsigned n);

    /** hfi_clear_all_regions. Traps inside a native sandbox. */
    HfiResult clearAllRegions();

    /**
     * hfi_enter: enable HFI mode with @p config.
     *
     * With switch-on-exit set, the current register file (the trusted
     * runtime's own hybrid-sandbox state) is preserved in the shadow bank
     * and restored by the matching hfi_exit (§4.5). Charges
     * serialization when config.isSerialized.
     */
    HfiResult enter(const SandboxConfig &config);

    /**
     * hfi_exit: leave the current sandbox.
     *
     * For a switch-on-exit sandbox this atomically restores the shadow
     * bank and *stays in HFI mode* (inside the runtime's sandbox); for
     * all others it disables HFI, records ExitReason::HfiExit, and
     * returns the exit-handler address to jump to (0 = fall through).
     *
     * @return the handler address control is transferred to, or 0.
     */
    VAddr exit();

    /**
     * hfi_reenter: re-enter the sandbox that was just exited, restoring
     * the configuration from before the last exit.
     */
    HfiResult reenter();

    /**
     * A syscall instruction was decoded while this core runs sandboxed
     * code (§4.4).
     *
     * @retval std::nullopt the syscall may proceed (HFI off, or hybrid).
     * @retval handler address the syscall was converted into a jump to
     *         the exit handler; HFI is disabled and the MSR records
     *         ExitReason::Syscall.
     */
    std::optional<VAddr> onSyscall();

    /**
     * A hardware trap or HFI bounds violation occurred while sandboxed
     * (§3.3.2): disable HFI and record the reason. The OS then delivers
     * a signal to the trusted runtime.
     */
    void onFault(ExitReason reason);

    /** Read the exit-reason MSR. */
    ExitReason readExitReasonMsr();

    /** Exit-reason MSR value without charging a read (for tests/stats). */
    ExitReason exitReason() const { return msrExitReason; }

    /**
     * xsave with save-hfi-regs: snapshot the register file (§3.3.3).
     * Used by the modeled OS on process context switch.
     */
    HfiRegisterFile xsave();

    /**
     * xrstor with save-hfi-regs. Traps (and exits the sandbox) when
     * executed inside a native sandbox, since it could break isolation.
     */
    HfiResult xrstor(const HfiRegisterFile &file);

    /**
     * Ring-0 xrstor with save-hfi-regs, as executed by the OS on a
     * context switch (§3.3.3). The kernel itself runs with HFI
     * disabled, so — unlike the user-mode instruction above — this
     * restore cannot trap even when the *saved* image being replaced
     * belongs to a process preempted inside a native sandbox; it
     * unconditionally installs @p file and charges the same xrstor
     * cost. The switch-on-exit shadow bank is per-core state that the
     * kernel leaves in place (the switched-in process either does not
     * use it or re-arms it with its own hfi_enter).
     */
    void kernelXrstor(const HfiRegisterFile &file);

    /** True while HFI mode is enabled. */
    bool enabled() const { return bank.enabled; }

    /** Active sandbox configuration (meaningful while enabled). */
    const SandboxConfig &config() const { return bank.config; }

    /** Current value of region register @p n (no cost; for the checker). */
    const Region &region(unsigned n) const { return bank.region(n); }

    /** All region registers (no cost; for the checker). */
    const std::array<Region, kNumRegions> &regions() const
    {
        return bank.regions();
    }

    /** The full active register bank (no cost; for the checker). */
    const HfiRegisterFile &registerFile() const { return bank; }

    /**
     * Region-write epoch: bumped by every write to the active bank's
     * region registers — setRegion, clearRegion, clearAllRegions,
     * xrstor, kernelXrstor and the switch-on-exit swap. It lives here,
     * not in the HfiRegisterFile that xsave copies, so restoring an old
     * image can never bring back an old epoch. An unchanged epoch means
     * every hmov check against the bank still has its earlier outcome
     * (Sandbox spans rely on this).
     */
    const std::uint64_t &regionEpoch() const { return regionEpoch_; }

    /** True if the last exit used the switch-on-exit path (for tests). */
    bool lastExitSwitched() const { return lastExitSwitched_; }

    const HfiCostParams &costs() const { return costs_; }
    vm::VirtualClock &clock() { return clock_; }

    /** Cumulative instruction counts, for reporting. */
    struct Stats
    {
        std::uint64_t enters = 0;
        std::uint64_t exits = 0;
        std::uint64_t serializations = 0;
        std::uint64_t regionUpdates = 0;
        std::uint64_t syscallRedirects = 0;
        std::uint64_t faults = 0;
        std::uint64_t bankSwitches = 0;
    };

    const Stats &stats() const { return stats_; }

    /**
     * Attach this core's trace ring (nullptr detaches). Instruction
     * implementations record HfiEnter/HfiExit/HfiFault/SyscallRedirect/
     * KernelXrstor and region-update events stamped on the core's
     * VirtualClock; compiled out entirely under HFI_OBS=OFF.
     */
    void setTrace(obs::TraceBuffer *trace) { trace_ = trace; }
    obs::TraceBuffer *trace() const { return trace_; }

  private:
    /** True when region registers are locked (native sandbox active). */
    bool regionsLocked() const { return bank.enabled && !bank.config.isHybrid; }

    void charge(std::uint64_t cycles) { clock_.tick(cycles); }
    void serialize();

    vm::VirtualClock &clock_;
    HfiCostParams costs_;

    /** The active register bank. */
    HfiRegisterFile bank;
    /** Shadow bank for the switch-on-exit extension (§4.5). */
    HfiRegisterFile shadow;
    bool shadowValid = false;

    /** Saved configuration for hfi_reenter. */
    SandboxConfig lastConfig{};
    bool lastConfigValid = false;

    ExitReason msrExitReason = ExitReason::None;
    bool lastExitSwitched_ = false;
    std::uint64_t regionEpoch_ = 0;

    obs::TraceBuffer *trace_ = nullptr;

    Stats stats_;
};

} // namespace hfi::core

#endif // HFI_CORE_CONTEXT_H
