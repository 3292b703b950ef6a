#include "sfi/sandbox.h"

#include <algorithm>
#include <sstream>

namespace hfi::sfi
{

SandboxTrap::SandboxTrap(std::uint64_t offset, std::uint32_t width,
                         bool write)
    : std::runtime_error([&] {
          std::ostringstream os;
          os << "sandbox trap: " << (write ? "store" : "load") << " of "
             << width << " bytes at offset 0x" << std::hex << offset;
          return os.str();
      }()),
      offset_(offset), width_(width), write_(write)
{
}

Sandbox::Sandbox(std::unique_ptr<IsolationBackend> backend, vm::Mmu &mmu,
                 SandboxOptions opts)
    : backend_(std::move(backend)), fast_(backend_->fastAccessPath()),
      mmu_(mmu),
      memory_(opts.initialPages, opts.maxPages), opts(opts)
{
    valid_ = backend_->create(opts.initialPages, opts.maxPages);
    if (!valid_)
        return;

    const SteadyStateCosts costs = backend_->steadyStateCosts();
    const std::uint64_t icache =
        costs.icacheMilliPerAccess * opts.icacheSensitivity;
    // Register-pressure spill cost is smeared over *every* instruction,
    // memory operations included (§6.1's whole-program 2.25%/2.40%).
    loadMilli = costs.loadExtraMilli + icache + costs.opPressureMilli;
    storeMilli = costs.storeExtraMilli + icache + costs.opPressureMilli;
    opMilli = costs.opPressureMilli;

    touched.resize(memory_.size() / vm::kPageSize);
}

Sandbox::~Sandbox()
{
    if (valid_)
        backend_->destroy();
}

void
Sandbox::enter()
{
    backend_->enterSandbox();
}

void
Sandbox::exit()
{
    flushCharge();
    backend_->exitSandbox();
}

std::int64_t
Sandbox::memoryGrow(std::uint64_t delta_pages)
{
    ++stats_.growCalls;
    auto &clock = mmu_.clock();
    clock.tick(clock.nsToCycles(opts.growRuntimeNs));

    const std::uint64_t old_pages = memory_.pages();
    const std::int64_t prev = memory_.grow(delta_pages);
    if (prev < 0)
        return -1;
    backend_->grow(old_pages, memory_.pages());
    touched.resize(memory_.size() / vm::kPageSize);
    return prev;
}

void
Sandbox::flushCharge()
{
    mmu_.clock().tick(pendingMilli / 1000);
    pendingMilli %= 1000;
}

bool
Sandbox::rangeAdmits(std::uint64_t offset, std::uint64_t bytes) const
{
    if (bytes == 0 || !memory_.inBounds(offset, bytes))
        return false;
    if (!fast_.bank)
        return true;
    core::HmovOperands ops;
    ops.index = static_cast<std::int64_t>(offset);
    ops.width = static_cast<std::uint32_t>(bytes);
    for (const bool write : {false, true}) {
        if (!core::AccessChecker::checkHmov(*fast_.bank, fast_.explicitSlot,
                                            ops, write)
                 .ok)
            return false;
    }
    return true;
}

Sandbox::SpanWindow::SpanWindow(Sandbox &sandbox, std::uint64_t offset,
                                std::uint64_t count, std::uint64_t elem_size)
    : sandbox_(sandbox), offset_(offset),
      epoch_(sandbox.fast_.regionEpoch ? sandbox.fast_.regionEpoch
                                       : &kNoRegionEpoch),
      epoch0_(*epoch_), elemSize_(elem_size),
      nextPage_(offset / vm::kPageSize)
{
    const std::uint64_t bytes =
        count <= kMaxSpanBytes / elem_size ? count * elem_size : 0;
    if (!sandbox.rangeAdmits(offset, bytes))
        return;
    admitted_ = count;
    lastPage_ = (offset + bytes - 1) / vm::kPageSize;
    refresh();
}

void
Sandbox::SpanWindow::refresh()
{
    if (!admitted_)
        return;
    // An admitted range lies in the linear memory, which never shrinks,
    // so its pages stay inside the touched map.
    while (nextPage_ <= lastPage_ && sandbox_.touched[nextPage_])
        ++nextPage_;
    const std::uint64_t touched_end = nextPage_ * vm::kPageSize;
    if (touched_end > offset_)
        limit_ = std::min(
            admitted_, (touched_end - offset_ + elemSize_ - 1) / elemSize_);
}

// The slow path behind fastPathAdmits: every trap, wrap and first touch
// lands here, so trap reasons, wrap counts and Mmu faults stay exact.
std::uint64_t
Sandbox::checkedOffset(std::uint64_t offset, std::uint32_t width, bool write)
{
    const AccessCheck check =
        backend_->checkAccess(offset, width, write, memory_);
    // An HFI slot reprogrammed by another sandbox with a larger region
    // admits offsets past this memory; trap rather than run off the
    // backing store.
    if (check.outcome == AccessOutcome::Trap ||
        !memory_.inBounds(check.offset, width))
        throw SandboxTrap(offset, width, write);
    if (check.outcome == AccessOutcome::Wrapped)
        ++stats_.wrappedAccesses;

    // First touch of a 4 KiB page takes a minor fault through the Mmu
    // (allocation + page-table fill); later accesses are free.
    const std::uint64_t page = check.offset / vm::kPageSize;
    if (!touched[page]) {
        touched[page] = 1;
        // Access the backing virtual address so the Mmu charges the
        // fault and marks residency for the teardown experiments.
        mmu_.access(backend_->baseAddress() + check.offset, width, write);
    }
    return check.offset;
}

} // namespace hfi::sfi
