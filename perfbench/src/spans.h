/**
 * @file
 * Host-clock span recorder for the benchmark's traced runs.
 *
 * Spans are recorded by the benchmark around its own calls into the
 * repository's layers (root engine/pipeline calls, wrapped request
 * handlers, standalone Worker::serve, Kernel::build/stage); nothing
 * inside src/ is instrumented. Each host thread records into its own
 * track, so the threaded serving driver's concurrent handler calls need
 * no lock. Spans stay in memory until the run ends, then are written as
 * Chrome trace JSON (loadable in Perfetto) and folded into per-name self
 * times.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Host nanoseconds since the first call (steady clock). */
double hostNowNs();

/**
 * User-mode instructions retired by this process, counted by the CPU
 * (perf_event_open). The counter is inherited by threads started after
 * open(), so the threaded serving driver's workers are included once
 * they have exited. Unlike host time, the count does not move with load
 * from other processes on a shared host.
 */
class InstructionCounter
{
  public:
    /** Start counting; false (with errno set) if the host offers no counter. */
    static bool open();
    /**
     * Instructions retired since open(), exited threads included; 0 if
     * the count cannot be read whole.
     */
    static std::uint64_t read();
};

struct Span
{
    const char *name = nullptr;
    double startNs = 0;
    double endNs = 0;
    /** Parent span id (0 = none): (track + 1) << 32 | (index + 1). */
    std::uint64_t parent = 0;
    /** Request id, kernel index or seed the span worked on. */
    std::uint64_t id = 0;
};

/** Total and self time of all spans sharing one name. */
struct SpanTotals
{
    std::uint64_t count = 0;
    double totalNs = 0;
    double selfNs = 0; ///< total minus the time covered by child spans
};

/** Process-wide recorder; off unless enabled. */
class Spans
{
  public:
    static void setEnabled(bool on);
    static bool enabled();
    /** Drop every recorded span (tracks stay registered). */
    static void clear();

    /** Open a span on the calling thread; returns its id. */
    static std::uint64_t open(const char *name, std::uint64_t id);
    static void close(std::uint64_t span);

    /**
     * Parent for spans opened on a thread with no open span of its own
     * — how handler spans on the threaded driver's worker threads hang
     * under the root call on the main thread.
     */
    static void setDefaultParent(std::uint64_t span);

    static std::map<std::string, SpanTotals> totals();

    /**
     * Count @p n events (e.g. sandboxed accesses) on the calling
     * thread's track: no shared cache line, so threaded handlers do not
     * contend. counted() sums every track.
     */
    static void count(std::uint64_t n);
    static std::uint64_t counted();

    /**
     * Write Chrome trace JSON ("X" complete events, one tid per track).
     * Keeps, per track, the first @p max_per_name spans of each name in
     * start order, so root calls and rare spans survive the cap on
     * per-request spans.
     */
    static bool writeChromeTrace(const std::string &path,
                                 std::size_t max_per_name);
};

/** RAII span; records nothing when Spans are disabled. */
class Scope
{
  public:
    Scope(const char *name, std::uint64_t id = 0)
        : span_(Spans::enabled() ? Spans::open(name, id) : 0)
    {
    }
    ~Scope()
    {
        if (span_)
            Spans::close(span_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    std::uint64_t id() const { return span_; }

  private:
    std::uint64_t span_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
