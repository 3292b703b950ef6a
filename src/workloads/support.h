/**
 * @file
 * Shared workload plumbing: an in-sandbox bump allocator, a deterministic
 * RNG, and the Workload descriptor used by benches and tests.
 *
 * Workloads are real algorithms whose data lives in sandbox linear
 * memory — every byte moves through Sandbox::load/store (directly or
 * through a Sandbox::Span, which makes the same accesses) so the
 * isolation backend checks and charges each access — and whose ALU work
 * is metered with Sandbox::chargeOps. Each kernel returns a checksum so
 * functional correctness is testable independently of the backend.
 */

#ifndef HFI_WORKLOADS_SUPPORT_H
#define HFI_WORKLOADS_SUPPORT_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sfi/sandbox.h"

namespace hfi::workloads
{

/** xorshift64* — deterministic, seedable, fast. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state(seed ? seed : 0x9e3779b9) {}

    std::uint64_t
    next()
    {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        return state * 0x2545f4914f6cdd1dULL;
    }

    /** Uniform in [0, n). */
    std::uint64_t nextBelow(std::uint64_t n) { return next() % n; }

  private:
    std::uint64_t state;
};

/**
 * Bump allocator over a sandbox's linear memory. Grows the memory in
 * 64 KiB Wasm pages on demand — exactly how dlmalloc-on-Wasm drives
 * memory_grow, which is what makes allocation-heavy workloads (image
 * decoding, §6.2) sensitive to the backend's growth cost.
 */
class Arena
{
  public:
    explicit Arena(sfi::Sandbox &sandbox, std::uint64_t start = 64)
        : sandbox(sandbox), top(start)
    {
    }

    /** Allocate @p bytes (8-byte aligned); grows memory as needed.
     *  Growth requests are rounded up to 8 Wasm pages (512 KiB), the
     *  chunked memory_grow pattern dlmalloc-on-Wasm produces. */
    std::uint64_t
    alloc(std::uint64_t bytes)
    {
        const std::uint64_t addr = (top + 7) & ~7ULL;
        top = addr + bytes;
        if (top > sandbox.memory().size()) {
            const std::uint64_t need =
                (top - sandbox.memory().size() + sfi::kWasmPageSize - 1) /
                sfi::kWasmPageSize;
            const std::uint64_t chunk = (need + 7) & ~7ULL;
            if (sandbox.memoryGrow(chunk) < 0 &&
                sandbox.memoryGrow(need) < 0) {
                throw sfi::SandboxTrap(top, 0, true); // out of memory
            }
        }
        return addr;
    }

    /** Current high-water mark. */
    std::uint64_t used() const { return top; }

  private:
    sfi::Sandbox &sandbox;
    std::uint64_t top;
};

/** FNV-1a accumulator for workload checksums. */
class Checksum
{
  public:
    void
    mix(std::uint64_t v)
    {
        hash ^= v;
        hash *= 0x100000001b3ULL;
    }

    std::uint64_t value() const { return hash; }

  private:
    std::uint64_t hash = 0xcbf29ce484222325ULL;
};

/** A named kernel plus the metadata benches need to run it. */
struct Workload
{
    std::string name;
    /**
     * Instruction-cache sensitivity (0..100) fed to SandboxOptions:
     * how much this kernel's code footprint suffers from hmov's longer
     * encodings (§6.1 — 445.gobmk is the paper's outlier).
     */
    unsigned icacheSensitivity = 0;
    /** Kernel entry point: (sandbox, scale, seed) -> checksum. */
    std::function<std::uint64_t(sfi::Sandbox &, std::uint64_t,
                                std::uint32_t)>
        run;
};

} // namespace hfi::workloads

#endif // HFI_WORKLOADS_SUPPORT_H
