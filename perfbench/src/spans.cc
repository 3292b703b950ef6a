#include "spans.h"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <linux/perf_event.h>
#include <memory>
#include <mutex>
#include <sys/syscall.h>
#include <unistd.h>

#include "obs/json_writer.h"

namespace perfbench
{

namespace
{

struct Track
{
    std::vector<Span> spans;
    std::vector<std::uint32_t> open; ///< indices of open spans (a stack)
    std::uint64_t counted = 0;       ///< see Spans::count
};

std::atomic<bool> gEnabled{false};
std::atomic<std::uint64_t> gDefaultParent{0};
std::mutex gTracksMutex;
std::vector<std::unique_ptr<Track>> gTracks; // guarded by gTracksMutex

thread_local Track *tTrack = nullptr;
thread_local std::uint32_t tTrackIndex = 0;

Track &
myTrack()
{
    if (!tTrack) {
        std::lock_guard<std::mutex> lock(gTracksMutex);
        gTracks.push_back(std::make_unique<Track>());
        tTrack = gTracks.back().get();
        tTrackIndex = static_cast<std::uint32_t>(gTracks.size() - 1);
    }
    return *tTrack;
}

std::uint64_t
encode(std::uint32_t track, std::uint32_t index)
{
    return (static_cast<std::uint64_t>(track) + 1) << 32 |
           (static_cast<std::uint64_t>(index) + 1);
}

} // namespace

double
hostNowNs()
{
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration<double, std::nano>(Clock::now() - epoch)
        .count();
}

namespace
{
int gInstructionsFd = -1;
}

bool
InstructionCounter::open()
{
    perf_event_attr attr;
    std::memset(&attr, 0, sizeof attr);
    attr.size = sizeof attr;
    attr.type = PERF_TYPE_HARDWARE;
    attr.config = PERF_COUNT_HW_INSTRUCTIONS;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    attr.inherit = 1;
    attr.read_format =
        PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING;
    gInstructionsFd = static_cast<int>(
        syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0));
    return gInstructionsFd >= 0;
}

std::uint64_t
InstructionCounter::read()
{
    // {count, time enabled, time running}; running < enabled means the
    // kernel shared the counter with other events and the count is short.
    std::uint64_t v[3] = {};
    if (gInstructionsFd < 0 ||
        ::read(gInstructionsFd, v, sizeof v) != sizeof v || v[2] < v[1])
        return 0;
    return v[0];
}

void
Spans::setEnabled(bool on)
{
    gEnabled.store(on, std::memory_order_relaxed);
}

bool
Spans::enabled()
{
    return gEnabled.load(std::memory_order_relaxed);
}

void
Spans::clear()
{
    std::lock_guard<std::mutex> lock(gTracksMutex);
    for (auto &t : gTracks) {
        t->spans.clear();
        t->open.clear();
        t->counted = 0;
    }
    gDefaultParent.store(0);
}

std::uint64_t
Spans::open(const char *name, std::uint64_t id)
{
    Track &t = myTrack();
    Span s;
    s.name = name;
    s.id = id;
    s.parent = t.open.empty() ? gDefaultParent.load(std::memory_order_relaxed)
                              : encode(tTrackIndex, t.open.back());
    const auto index = static_cast<std::uint32_t>(t.spans.size());
    t.open.push_back(index);
    s.startNs = hostNowNs();
    t.spans.push_back(s);
    return encode(tTrackIndex, index);
}

void
Spans::close(std::uint64_t span)
{
    const double end = hostNowNs();
    Track &t = myTrack();
    const auto index = static_cast<std::uint32_t>((span & 0xffffffffu) - 1);
    t.spans[index].endNs = end;
    if (!t.open.empty() && t.open.back() == index)
        t.open.pop_back();
}

void
Spans::setDefaultParent(std::uint64_t span)
{
    gDefaultParent.store(span);
}

void
Spans::count(std::uint64_t n)
{
    myTrack().counted += n;
}

std::uint64_t
Spans::counted()
{
    std::lock_guard<std::mutex> lock(gTracksMutex);
    std::uint64_t n = 0;
    for (const auto &t : gTracks)
        n += t->counted;
    return n;
}

std::map<std::string, SpanTotals>
Spans::totals()
{
    std::lock_guard<std::mutex> lock(gTracksMutex);
    // Child time per parent span, then fold by name.
    std::vector<std::vector<double>> childNs(gTracks.size());
    for (std::size_t t = 0; t < gTracks.size(); ++t)
        childNs[t].assign(gTracks[t]->spans.size(), 0.0);
    for (const auto &t : gTracks) {
        for (const Span &s : t->spans) {
            if (!s.parent)
                continue;
            const std::size_t pt = (s.parent >> 32) - 1;
            const std::size_t pi = (s.parent & 0xffffffffu) - 1;
            childNs[pt][pi] += s.endNs - s.startNs;
        }
    }
    std::map<std::string, SpanTotals> out;
    for (std::size_t t = 0; t < gTracks.size(); ++t) {
        const auto &spans = gTracks[t]->spans;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const double dur = spans[i].endNs - spans[i].startNs;
            SpanTotals &acc = out[spans[i].name];
            ++acc.count;
            acc.totalNs += dur;
            acc.selfNs += dur - childNs[t][i];
        }
    }
    return out;
}

bool
Spans::writeChromeTrace(const std::string &path, std::size_t max_per_name)
{
    hfi::obs::JsonWriter w(0);
    w.beginObject();
    w.field("displayTimeUnit", "ns");
    w.key("traceEvents").beginArray();
    {
        std::lock_guard<std::mutex> lock(gTracksMutex);
        for (std::size_t t = 0; t < gTracks.size(); ++t) {
            const auto &spans = gTracks[t]->spans;
            std::map<const char *, std::size_t> written;
            for (std::size_t i = 0; i < spans.size(); ++i) {
                const Span &s = spans[i];
                if (written[s.name]++ >= max_per_name)
                    continue;
                w.beginObject();
                w.field("name", s.name);
                w.field("ph", "X");
                w.field("pid", 1);
                w.field("tid", static_cast<std::uint64_t>(t));
                w.field("ts", s.startNs / 1e3, "%.3f");
                w.field("dur", (s.endNs - s.startNs) / 1e3, "%.3f");
                w.key("args").beginObject();
                w.field("id", s.id);
                w.field("span", encode(static_cast<std::uint32_t>(t),
                                       static_cast<std::uint32_t>(i)));
                w.field("parent", s.parent);
                w.endObject();
                w.endObject();
            }
        }
    }
    w.endArray();
    w.endObject();

    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::string &out = w.str();
    const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
    return std::fclose(f) == 0 && ok;
}

} // namespace perfbench
