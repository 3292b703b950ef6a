/**
 * @file
 * The typed metrics registry: counters, gauges, and log2-bucketed
 * histograms with one merge path.
 *
 * Before this existed every layer merged its own stats by hand — the
 * engine summed ten WorkerStats fields inline, RobustnessStats had a
 * bespoke merge(), LatencyStats another — and adding a metric meant
 * touching every merge site. Here workers *export* their plain structs
 * into a registry at end-of-run (the hot path keeps raw increments) and
 * the engine performs a single typed merge: counters sum, gauges
 * combine by their declared mode (max/min/sum/last), histogram buckets
 * add. All three operations are commutative and associative, so the
 * merged registry is independent of worker merge order — which is what
 * lets the sequential and threaded engine paths share one reduction and
 * keep byte-identical results.
 *
 * Iteration order is name-sorted (std::map), so the JSON export is
 * deterministic without any caller discipline.
 */

#ifndef HFI_OBS_METRICS_H
#define HFI_OBS_METRICS_H

#include <cstdint>
#include <map>
#include <string>

namespace hfi::obs
{

class JsonWriter;

/**
 * How two samples of the same gauge combine under merge(). Every mode
 * is commutative and associative, so merge order never shows.
 */
enum class GaugeMode : std::uint8_t
{
    Max = 0,
    Min,
    Sum,
};

/**
 * A log2-bucketed histogram of non-negative integer samples.
 *
 * Bucket i holds values whose bit-width is i: bucket 0 is {0}, bucket 1
 * is {1}, bucket 2 is {2,3}, bucket 3 is {4..7}, ... up to bucket 64.
 * Exact count/sum/min/max ride along so coarse buckets never lose the
 * headline numbers.
 */
struct Histogram
{
    static constexpr unsigned kBuckets = 65;

    std::uint64_t buckets[kBuckets] = {};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;

    static constexpr unsigned
    bucketOf(std::uint64_t v)
    {
        unsigned b = 0;
        while (v) {
            ++b;
            v >>= 1;
        }
        return b;
    }

    /** Inclusive upper bound of bucket @p i (2^i - 1). */
    static constexpr std::uint64_t
    bucketBound(unsigned i)
    {
        return i >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << i) - 1;
    }

    void
    observe(std::uint64_t v)
    {
        ++buckets[bucketOf(v)];
        if (count == 0 || v < min)
            min = v;
        if (count == 0 || v > max)
            max = v;
        ++count;
        sum += v;
    }

    void
    merge(const Histogram &o)
    {
        if (o.count == 0)
            return;
        if (count == 0 || o.min < min)
            min = o.min;
        if (count == 0 || o.max > max)
            max = o.max;
        for (unsigned i = 0; i < kBuckets; ++i)
            buckets[i] += o.buckets[i];
        count += o.count;
        sum += o.sum;
    }

    double mean() const { return count ? static_cast<double>(sum) / count : 0; }
};

class MetricsRegistry
{
  public:
    /** Add @p v to counter @p name (creating it at zero). */
    void counterAdd(const std::string &name, std::uint64_t v = 1);

    /** Record a gauge sample; @p mode must be consistent per name. */
    void gaugeSet(const std::string &name, std::uint64_t v,
                  GaugeMode mode = GaugeMode::Max);

    /** Histogram @p name, created empty on first use. */
    Histogram &histogram(const std::string &name);

    /** Counter value (0 when absent). */
    std::uint64_t counter(const std::string &name) const;
    /** Gauge value (0 when absent). */
    std::uint64_t gauge(const std::string &name) const;
    /** Histogram lookup (nullptr when absent). */
    const Histogram *findHistogram(const std::string &name) const;

    /**
     * Fold @p other into this registry: counters sum, gauges combine by
     * their mode, histogram buckets add. Commutative and associative.
     */
    void merge(const MetricsRegistry &other);

    bool empty() const
    {
        return counters_.empty() && gauges_.empty() && histograms_.empty();
    }

    /**
     * Append this registry as a JSON object value (the caller supplies
     * the surrounding key/positioning): {"counters":{...},
     * "gauges":{...}, "histograms":{...}} in name-sorted order.
     */
    void writeJson(JsonWriter &w) const;

    /** Standalone metrics document with the shared schema_version. */
    std::string json() const;

  private:
    struct Gauge
    {
        std::uint64_t value = 0;
        GaugeMode mode = GaugeMode::Max;
        bool set = false;
    };

    static void combine(Gauge &g, std::uint64_t v, GaugeMode mode);

    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, Gauge> gauges_;
    std::map<std::string, Histogram> histograms_;
};

} // namespace hfi::obs

#endif // HFI_OBS_METRICS_H
