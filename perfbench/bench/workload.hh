/**
 * @file
 * The interface between the perfbench program (main.cc) and its three
 * workloads.  A workload runs rounds; each round pushes the same
 * seeded input through the public harness entry points once per
 * scheme, and reports host time, work done, unit accounting and a
 * digest of every simulated output.
 */

#ifndef PERFBENCH_WORKLOAD_HH
#define PERFBENCH_WORKLOAD_HH

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "harness/run_controller.hh"

#include "spans.hh"

namespace perfbench {

/** Failure injections that prove the benchmark's checks fire. */
enum class Inject
{
    None,
    FailUnit, ///< one unit's work function throws
    Sabotage, ///< fuzz-conformance also runs sabotagedCppcSpec()
};

/** Harness worker threads of every workload. */
constexpr unsigned kJobs = 2;

struct WorkloadOptions
{
    uint64_t seed = 1;
    bool smoke = false; ///< small per-round size (smoke tests)
    Inject inject = Inject::None;
};

/** One harness call: one scheme's share of a round. */
struct SchemeRun
{
    std::string scheme;
    double wall_s = 0.0;
    uint64_t work = 0;
    /** Harness worker time outside unit work functions (traced). */
    double outside_unit_s = 0.0;
};

struct RoundResult
{
    std::vector<SchemeRun> runs;
    uint64_t attempted = 0; ///< units: cells, shards or seed batches
    uint64_t failed = 0;    ///< units that failed, timed out or breached
    uint64_t digest = 0;    ///< FNV-1a 64 of every simulated output
    std::vector<std::string> errors; ///< invariant breaches, for stderr
    TraceAgg trace{};                ///< spans (traced rounds only)
    uint64_t snapshots = 0;          ///< snapshot images (traced)
    uint64_t snapshot_bytes = 0;     ///< their total size (traced)

    double wall_s() const;
    uint64_t work() const;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** What one unit of work is ("inst", "strike", "op"). */
    virtual std::string workUnit() const = 0;

    /**
     * Build the workload's inputs, then call its harness entry point
     * once per scheme with no units, in the fresh scratch directory
     * @p dir: the fixed cost a harness call pays before its first unit
     * (journal, worker pool, the campaign's probe host and strike
     * sample).  Timed several times before every round.
     */
    virtual void setup(const std::string &dir) = 0;

    /**
     * Run one round writing its journals under @p dir.  @p traced
     * routes the round through the timing seams.
     */
    virtual RoundResult round(const std::string &dir, bool traced) = 0;

    /** Per-layer metrics of the traced rounds, added to @p out. */
    virtual void layerMetrics(const std::vector<RoundResult> &traced,
                              const SpanCost &cost,
                              std::vector<std::pair<std::string, double>>
                                  &out) const = 0;
};

std::unique_ptr<Workload> makeSweepWorkload(const WorkloadOptions &o);
std::unique_ptr<Workload> makeCampaignWorkload(const WorkloadOptions &o);
std::unique_ptr<Workload> makeFuzzWorkload(const WorkloadOptions &o);

// ---------------------------------------------------------- helpers

/** Harness options of one call: kJobs workers, a journal in @p dir. */
cppc::HarnessOptions harnessOptions(const std::string &dir,
                                    const std::string &journal);

/** Count the report's units into @p r (attempted, failed, errors). */
void accountReport(const cppc::HarnessReport &report,
                   const std::string &what, RoundResult &r);

/**
 * Run @p units through a RunController the way the runners do, each
 * inside a Unit span.  Traced rounds use this to drive the runners'
 * unit decomposition themselves.  The call's spans are added to
 * @p trace and the summed unit time lands in @p unit_s.
 */
cppc::HarnessReport runTracedUnits(const cppc::HarnessOptions &hopts,
                                   const std::string &kind,
                                   const std::string &config,
                                   const std::vector<cppc::WorkUnit> &units,
                                   TraceAgg &trace, double &unit_s);

/** Seconds elapsed since @p start_ns. */
inline double
secondsSince(uint64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) * 1e-9;
}

/** The spans of @p rounds, summed. */
TraceAgg sumTraces(const std::vector<RoundResult> &rounds);

/** Sum of self times of @p layers, normalised per @p items. */
double perItem(const TraceAgg &agg, const SpanCost &cost,
               std::initializer_list<Layer> layers, double items,
               double scale);

/** The checkpoint metrics (state.*, harness.snapshot_publish_ms). */
void snapshotMetrics(const std::vector<RoundResult> &traced,
                     const SpanCost &cost,
                     std::vector<std::pair<std::string, double>> &out);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HH
