/**
 * @file
 * In-memory span aggregation for the traced benchmark run.
 *
 * A Span brackets one call from the benchmark into a simulator layer.
 * Spans nest on a per-thread stack; when a span closes, its duration is
 * added to its layer's inclusive total and to its parent's child time,
 * so every layer's self time (inclusive minus direct children) falls
 * out of the aggregates without storing individual spans.  Spans are
 * recorded only while tracing is enabled and only inside a Unit span
 * (a harness work function), so the unit totals are the denominator
 * the named layers are measured against.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <array>
#include <chrono>
#include <cstdint>

namespace perfbench {

/** The five schemes every workload reports per-scheme figures for. */
constexpr unsigned kTrackedSchemes = 5;
extern const char *const kTrackedSchemeNames[kTrackedSchemes];

enum Layer : unsigned
{
    kUnit, ///< one harness work function (the root of every span tree)
    kTraceGen,
    kCore,
    kCacheL2,
    kCacheMem,
    kHierarchyBuild,
    kEnergy,
    kEncode0, ///< + tracked scheme index (onFill/onEvict/onStore/onClean)
    kCheck0 = kEncode0 + kTrackedSchemes,  ///< check + recover
    kResync0 = kCheck0 + kTrackedSchemes,  ///< resyncRow
    kCampaign = kResync0 + kTrackedSchemes, ///< Campaign::runOne
    kHostBuild,
    kStateSave,
    kSnapshotPublish,
    kVerifyGen,
    kVerifyReplay,
    kVerifyTag,
    kSchemeFuzz,
    kNumLayers,
    kNoSpan = kNumLayers, ///< a Span that records nothing
};

/** Aggregate of every closed span of one layer. */
struct LayerAgg
{
    uint64_t total_ns = 0; ///< inclusive duration
    uint64_t child_ns = 0; ///< duration of direct child spans
    uint64_t count = 0;    ///< spans closed
    uint64_t children = 0; ///< direct child spans closed

    void
    add(const LayerAgg &o)
    {
        total_ns += o.total_ns;
        child_ns += o.child_ns;
        count += o.count;
        children += o.children;
    }
};

using TraceAgg = std::array<LayerAgg, kNumLayers>;

struct ThreadTrace;

/** Per-thread recorder; null while tracing is off. */
ThreadTrace *currentTrace();

void spanOpen(ThreadTrace *t, Layer layer);
void spanClose(ThreadTrace *t);

/** Turn span recording on or off for every thread. */
void setTracing(bool on);

/**
 * Sum and clear what every thread recorded since the last harvest.
 * Call only while no traced work is running.
 */
TraceAgg harvestTrace();

class Span
{
  public:
    explicit Span(Layer layer)
        : t_(layer == kNoSpan ? nullptr : currentTrace())
    {
        if (t_)
            spanOpen(t_, layer);
    }
    ~Span()
    {
        if (t_)
            spanClose(t_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    ThreadTrace *t_;
};

inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Timer cost charged to a span's own duration (@c inside_ns) and to
 * its parent's self time (@c outside_ns), measured on empty spans.
 */
struct SpanCost
{
    double inside_ns = 0.0;
    double outside_ns = 0.0;
};

/** Median of several calibration passes; leaves tracing off. */
SpanCost calibrateSpanCost();

/**
 * Self time of @p layer with the timer cost of its own spans and of
 * its direct children removed (never negative).
 */
double selfNs(const TraceAgg &agg, Layer layer, const SpanCost &cost);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
