#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {

const char *const kTrackedSchemeNames[kTrackedSchemes] = {
    "parity1d", "cppc", "secded", "ldpc", "chiprepair"};

struct ThreadTrace
{
    struct Frame
    {
        Layer layer;
        uint64_t start_ns;
        uint64_t child_ns;
        uint64_t children;
    };

    TraceAgg agg{};
    std::array<Frame, 64> stack{};
    unsigned depth = 0;
};

namespace {

std::atomic<bool> g_on{false};
/** Bumped by every harvest so threads re-register a fresh recorder. */
std::atomic<uint64_t> g_generation{1};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadTrace>> g_threads;

} // namespace

ThreadTrace *
currentTrace()
{
    if (!g_on.load(std::memory_order_relaxed))
        return nullptr;
    thread_local ThreadTrace *tls = nullptr;
    thread_local uint64_t tls_gen = 0;
    const uint64_t gen = g_generation.load(std::memory_order_acquire);
    if (tls_gen != gen) {
        std::lock_guard<std::mutex> lock(g_mu);
        g_threads.push_back(std::make_unique<ThreadTrace>());
        tls = g_threads.back().get();
        tls_gen = gen;
    }
    return tls;
}

void
spanOpen(ThreadTrace *t, Layer layer)
{
    // Outside a unit there is no denominator to attribute against.
    if (layer != kUnit && t->depth == 0)
        return;
    if (t->depth == t->stack.size())
        std::abort(); // span nesting far beyond any real call chain
    t->stack[t->depth++] = {layer, nowNs(), 0, 0};
}

void
spanClose(ThreadTrace *t)
{
    if (t->depth == 0)
        return; // matching open was outside a unit
    const uint64_t end = nowNs();
    const ThreadTrace::Frame f = t->stack[--t->depth];
    const uint64_t dur = end - f.start_ns;
    LayerAgg &a = t->agg[f.layer];
    a.total_ns += dur;
    a.child_ns += f.child_ns;
    a.children += f.children;
    ++a.count;
    if (t->depth) {
        ThreadTrace::Frame &parent = t->stack[t->depth - 1];
        parent.child_ns += dur;
        ++parent.children;
    }
}

void
setTracing(bool on)
{
    g_on.store(on, std::memory_order_relaxed);
}

TraceAgg
harvestTrace()
{
    std::lock_guard<std::mutex> lock(g_mu);
    TraceAgg sum{};
    for (const auto &t : g_threads)
        for (unsigned l = 0; l < kNumLayers; ++l)
            sum[l].add(t->agg[l]);
    g_threads.clear();
    g_generation.fetch_add(1, std::memory_order_acq_rel);
    return sum;
}

SpanCost
calibrateSpanCost()
{
    constexpr int kPasses = 7;
    constexpr int kChildren = 20000;
    std::vector<double> inside, outside;
    setTracing(true);
    for (int p = 0; p < kPasses; ++p) {
        harvestTrace();
        {
            Span unit(kUnit);
            for (int i = 0; i < kChildren; ++i)
                Span child(kTraceGen);
        }
        const TraceAgg agg = harvestTrace();
        const LayerAgg &u = agg[kUnit];
        const LayerAgg &c = agg[kTraceGen];
        inside.push_back(static_cast<double>(c.total_ns) /
                         static_cast<double>(c.count));
        outside.push_back(static_cast<double>(u.total_ns - u.child_ns) /
                          static_cast<double>(u.children));
    }
    setTracing(false);
    std::sort(inside.begin(), inside.end());
    std::sort(outside.begin(), outside.end());
    return {inside[kPasses / 2], outside[kPasses / 2]};
}

double
selfNs(const TraceAgg &agg, Layer layer, const SpanCost &cost)
{
    const LayerAgg &a = agg[layer];
    const double self = static_cast<double>(a.total_ns - a.child_ns) -
        static_cast<double>(a.count) * cost.inside_ns -
        static_cast<double>(a.children) * cost.outside_ns;
    return std::max(0.0, self);
}

} // namespace perfbench
