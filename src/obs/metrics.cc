#include "obs/metrics.h"

#include "obs/json_writer.h"

namespace hfi::obs
{

void
MetricsRegistry::counterAdd(const std::string &name, std::uint64_t v)
{
    counters_[name] += v;
}

void
MetricsRegistry::combine(Gauge &g, std::uint64_t v, GaugeMode mode)
{
    if (!g.set) {
        g.value = v;
        g.mode = mode;
        g.set = true;
        return;
    }
    switch (mode) {
      case GaugeMode::Max:
        if (v > g.value)
            g.value = v;
        break;
      case GaugeMode::Min:
        if (v < g.value)
            g.value = v;
        break;
      case GaugeMode::Sum: g.value += v; break;
    }
}

void
MetricsRegistry::gaugeSet(const std::string &name, std::uint64_t v,
                          GaugeMode mode)
{
    combine(gauges_[name], v, mode);
}

Histogram &
MetricsRegistry::histogram(const std::string &name)
{
    return histograms_[name];
}

std::uint64_t
MetricsRegistry::counter(const std::string &name) const
{
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

std::uint64_t
MetricsRegistry::gauge(const std::string &name) const
{
    const auto it = gauges_.find(name);
    return it == gauges_.end() ? 0 : it->second.value;
}

const Histogram *
MetricsRegistry::findHistogram(const std::string &name) const
{
    const auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
}

void
MetricsRegistry::merge(const MetricsRegistry &other)
{
    for (const auto &[name, v] : other.counters_)
        counters_[name] += v;
    for (const auto &[name, g] : other.gauges_)
        if (g.set)
            combine(gauges_[name], g.value, g.mode);
    for (const auto &[name, h] : other.histograms_)
        histograms_[name].merge(h);
}

void
MetricsRegistry::writeJson(JsonWriter &w) const
{
    w.beginObject();
    w.key("counters").beginObject();
    for (const auto &[name, v] : counters_)
        w.field(name.c_str(), v);
    w.endObject();
    w.key("gauges").beginObject();
    for (const auto &[name, g] : gauges_)
        w.field(name.c_str(), g.value);
    w.endObject();
    w.key("histograms").beginObject();
    for (const auto &[name, h] : histograms_) {
        w.key(name.c_str()).beginObject();
        w.field("count", h.count);
        w.field("sum", h.sum);
        w.field("min", h.min);
        w.field("max", h.max);
        w.field("mean", h.mean(), "%.3f");
        // Sparse bucket dump: [bit-width, count] pairs, ascending.
        w.key("log2_buckets").beginArray();
        for (unsigned i = 0; i < Histogram::kBuckets; ++i) {
            if (!h.buckets[i])
                continue;
            w.beginArray();
            w.value(i);
            w.value(h.buckets[i]);
            w.endArray();
        }
        w.endArray();
        w.endObject();
    }
    w.endObject();
    w.endObject();
}

std::string
MetricsRegistry::json() const
{
    JsonWriter w;
    w.beginObject();
    w.schemaVersion();
    w.key("metrics");
    writeJson(w);
    w.endObject();
    std::string out = w.str();
    out += '\n';
    return out;
}

} // namespace hfi::obs
