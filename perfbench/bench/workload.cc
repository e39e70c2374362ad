#include "workload.hh"

#include "cppc/cppc_scheme.hh"
#include "protection/chiprepair.hh"
#include "protection/ldpc.hh"
#include "protection/parity.hh"
#include "protection/secded.hh"
#include "util/logging.hh"

#include "seams.hh"

namespace perfbench {

double
RoundResult::wall_s() const
{
    double s = 0.0;
    for (const SchemeRun &r : runs)
        s += r.wall_s;
    return s;
}

uint64_t
RoundResult::work() const
{
    uint64_t w = 0;
    for (const SchemeRun &r : runs)
        w += r.work;
    return w;
}

cppc::HarnessOptions
harnessOptions(const std::string &dir, const std::string &journal)
{
    cppc::HarnessOptions h;
    h.journal_path = dir + "/" + journal;
    h.jobs = kJobs;
    h.use_stop_token = false;
    return h;
}

void
accountReport(const cppc::HarnessReport &report, const std::string &what,
              RoundResult &r)
{
    r.attempted += report.results.size();
    for (const cppc::UnitResult &u : report.results) {
        if (u.status == cppc::CellStatus::Ok)
            continue;
        ++r.failed;
        r.errors.push_back(cppc::strfmt(
            "%s unit %s: %s (%s)", what.c_str(), u.key.c_str(),
            cppc::cellStatusName(u.status), u.error.c_str()));
    }
}

cppc::HarnessReport
runTracedUnits(const cppc::HarnessOptions &hopts, const std::string &kind,
               const std::string &config,
               const std::vector<cppc::WorkUnit> &units, TraceAgg &trace,
               double &unit_s)
{
    std::vector<cppc::WorkUnit> wrapped;
    wrapped.reserve(units.size());
    for (const cppc::WorkUnit &u : units) {
        cppc::WorkUnit w;
        w.key = u.key;
        w.work = [&u](const cppc::CellContext &ctx) {
            Span s(kUnit);
            return u.work(ctx);
        };
        wrapped.push_back(std::move(w));
    }
    cppc::RunController ctl(hopts, kind, config);
    cppc::HarnessReport report = ctl.run(wrapped);

    const TraceAgg agg = harvestTrace();
    for (unsigned l = 0; l < kNumLayers; ++l)
        trace[l].add(agg[l]);
    unit_s = static_cast<double>(agg[kUnit].total_ns) * 1e-9;
    return report;
}

TraceAgg
sumTraces(const std::vector<RoundResult> &rounds)
{
    TraceAgg agg{};
    for (const RoundResult &r : rounds)
        for (unsigned l = 0; l < kNumLayers; ++l)
            agg[l].add(r.trace[l]);
    return agg;
}

double
perItem(const TraceAgg &agg, const SpanCost &cost,
        std::initializer_list<Layer> layers, double items, double scale)
{
    if (items <= 0.0)
        return 0.0;
    double ns = 0.0;
    for (Layer l : layers)
        ns += selfNs(agg, l, cost);
    return ns / items / scale;
}

void
snapshotMetrics(const std::vector<RoundResult> &traced, const SpanCost &cost,
                std::vector<std::pair<std::string, double>> &out)
{
    const TraceAgg agg = sumTraces(traced);
    double snapshots = 0.0, snapshot_bytes = 0.0;
    for (const RoundResult &r : traced) {
        snapshots += static_cast<double>(r.snapshots);
        snapshot_bytes += static_cast<double>(r.snapshot_bytes);
    }
    out.emplace_back("state.save_ms",
                     perItem(agg, cost, {kStateSave},
                             static_cast<double>(agg[kStateSave].count),
                             1e6));
    out.emplace_back("state.snapshot_bytes",
                     snapshots > 0.0 ? snapshot_bytes / snapshots : 0.0);
    out.emplace_back(
        "harness.snapshot_publish_ms",
        perItem(agg, cost, {kSnapshotPublish},
                static_cast<double>(agg[kSnapshotPublish].count), 1e6));
}

int
trackedIndex(cppc::SchemeKind kind)
{
    switch (kind) {
      case cppc::SchemeKind::Parity1D:
        return 0;
      case cppc::SchemeKind::Cppc:
        return 1;
      case cppc::SchemeKind::Secded:
        return 2;
      case cppc::SchemeKind::Ldpc:
        return 3;
      case cppc::SchemeKind::ChipRepair:
        return 4;
      default:
        return -1;
    }
}

std::unique_ptr<cppc::ProtectionScheme>
makeTimedScheme(cppc::SchemeKind kind, const cppc::CppcConfig &cfg,
                SchemeSpans spans)
{
    // Constructor arguments mirror cppc::makeScheme() (the untraced
    // path); the traced-vs-untraced digest check proves they agree.
    switch (kind) {
      case cppc::SchemeKind::Parity1D:
        return std::make_unique<TimedScheme<cppc::OneDimParityScheme>>(
            spans, 8u);
      case cppc::SchemeKind::Secded:
        return std::make_unique<TimedScheme<cppc::SecdedScheme>>(spans,
                                                                 8u);
      case cppc::SchemeKind::Cppc:
        return std::make_unique<TimedScheme<cppc::CppcScheme>>(spans,
                                                               cfg);
      case cppc::SchemeKind::Ldpc:
        return std::make_unique<TimedScheme<cppc::LdpcScheme>>(spans);
      case cppc::SchemeKind::ChipRepair:
        return std::make_unique<TimedScheme<cppc::ChipRepairScheme>>(
            spans, 8u);
      default:
        return cppc::makeScheme(kind, cfg);
    }
}

} // namespace perfbench
