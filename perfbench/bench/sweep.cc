/**
 * @file
 * figure-sweep: the (benchmark x scheme) grid behind Figures 10-12 and
 * Table 2, as `cppcsim sweep` runs it (dirty profiling on, every cell
 * on a fresh Table 1 hierarchy).  One runSweepHarness() call per
 * scheme, so each scheme's throughput is measured on its own.
 */

#include <atomic>
#include <stdexcept>

#include "energy/accountant.hh"
#include "energy/cacti_model.hh"
#include "harness/runners.hh"
#include "util/fnv.hh"
#include "util/logging.hh"

#include "seams.hh"
#include "workload.hh"

namespace perfbench {

namespace {

using namespace cppc;

const SchemeKind kSweepKinds[kTrackedSchemes] = {
    SchemeKind::Parity1D, SchemeKind::Cppc, SchemeKind::Secded,
    SchemeKind::Ldpc, SchemeKind::ChipRepair};

/**
 * Per-cell instruction budget, a quarter of `cppcsim sweep`'s 2M.  It
 * is long enough that the L2 (32768 lines) fills and evicts to memory
 * (cache.l2_evictions_per_kinst), and that building the hierarchy is
 * about 2% of a cell.
 */
constexpr uint64_t kInstructions = 500'000;
constexpr uint64_t kSmokeInstructions = 200'000;

/**
 * The Table 1 hierarchy of sim/paper_config.cc, assembled with timing
 * proxies under the L1s and under L2 and with timed schemes at L1D and
 * L2.  The L1I keeps its untimed 1D parity, as in Hierarchy.
 */
struct TracedHierarchy
{
    TracedHierarchy(SchemeKind kind, const CppcConfig &cfg)
    {
        SchemeSpans spans;
        spans.encode = static_cast<Layer>(kEncode0 + trackedIndex(kind));
        l2 = std::make_unique<WriteBackCache>(
            "L2", PaperConfig::l2Geometry(), ReplacementKind::LRU,
            &mem_port, makeTimedScheme(kind, cfg, spans));
        l2_port = std::make_unique<TimedLevel>(*l2, kCacheL2);
        l1d = std::make_unique<WriteBackCache>(
            "L1D", PaperConfig::l1dGeometry(), ReplacementKind::LRU,
            l2_port.get(), makeTimedScheme(kind, cfg, spans));
        l1i = std::make_unique<WriteBackCache>(
            "L1I", PaperConfig::l1iGeometry(), ReplacementKind::LRU,
            l2_port.get(), makeScheme(SchemeKind::Parity1D));
    }

    MainMemory mem;
    TimedLevel mem_port{mem, kCacheMem};
    std::unique_ptr<WriteBackCache> l2;
    std::unique_ptr<TimedLevel> l2_port;
    std::unique_ptr<WriteBackCache> l1d;
    std::unique_ptr<WriteBackCache> l1i;
};

/** Cache counts of the traced cells (CacheStats and SchemeStats). */
struct SweepCounts
{
    std::atomic<uint64_t> l1d_misses{0};
    std::atomic<uint64_t> l2_misses{0};
    std::atomic<uint64_t> l2_evictions{0};
    std::atomic<uint64_t> writebacks{0};
    std::atomic<uint64_t> cppc_rbw_words{0};
};

/** runExperiment() step for step, through the timing seams. */
RunMetrics
tracedCell(const BenchmarkProfile &profile, SchemeKind kind,
           const ExperimentOptions &opts, SweepCounts &counts)
{
    std::unique_ptr<TracedHierarchy> h;
    {
        Span s(kHierarchyBuild);
        h = std::make_unique<TracedHierarchy>(kind, opts.cppc_cfg);
    }
    OooCoreModel core(PaperConfig::coreParams(), h->l1d.get(),
                      h->l2.get(), h->l1i.get());
    std::unique_ptr<TraceGenerator> gen;
    {
        Span s(kTraceGen);
        gen = std::make_unique<TraceGenerator>(profile, opts.seed);
    }
    TimedSource src(*gen);

    DirtyProfiler l1_prof, l2_prof;
    RunMetrics m;
    m.benchmark = profile.name;
    m.kind = kind;
    {
        Span s(kCore);
        m.core = core.run(src, opts.instructions,
                          opts.profile_dirty ? &l1_prof : nullptr,
                          opts.profile_dirty ? &l2_prof : nullptr,
                          opts.cancel);
    }
    {
        Span s(kEnergy);
        CactiModel l1_model(PaperConfig::l1dGeometry(),
                            PaperConfig::kFeatureNm);
        CactiModel l2_model(PaperConfig::l2Geometry(),
                            PaperConfig::kFeatureNm);
        m.l1_energy = EnergyAccountant(l1_model).compute(*h->l1d);
        m.l2_energy = EnergyAccountant(l2_model).compute(*h->l2);
    }
    m.l1_miss_rate = h->l1d->stats().missRate();
    m.l2_miss_rate = h->l2->stats().missRate();
    if (opts.profile_dirty) {
        m.l1_dirty_fraction = l1_prof.avgDirtyFraction();
        m.l1_tavg_cycles = l1_prof.tavgCycles();
        m.l2_dirty_fraction = l2_prof.avgDirtyFraction();
        m.l2_tavg_cycles = l2_prof.tavgCycles();
    }

    counts.l1d_misses += h->l1d->stats().misses();
    counts.l2_misses += h->l2->stats().misses();
    counts.l2_evictions +=
        h->l2->stats().writebacks + h->l2->stats().clean_evictions;
    counts.writebacks +=
        h->l1d->stats().writebacks + h->l2->stats().writebacks;
    if (kind == SchemeKind::Cppc)
        counts.cppc_rbw_words += h->l1d->scheme()->stats().rbw_words +
            h->l2->scheme()->stats().rbw_words;
    {
        Span s(kHierarchyBuild);
        h.reset();
    }
    return m;
}

class SweepWorkload : public Workload
{
  public:
    explicit SweepWorkload(const WorkloadOptions &o) : opts_(o)
    {
        eopts_.instructions = o.smoke ? kSmokeInstructions : kInstructions;
        eopts_.seed = o.seed;
        eopts_.profile_dirty = true;
        // cppcsim's --pairs/--domains/--no-shift defaults.
        eopts_.cppc_cfg.pairs_per_domain = 1;
        eopts_.cppc_cfg.num_domains = 1;
        eopts_.cppc_cfg.byte_shifting = true;
    }

    std::string workUnit() const override { return "inst"; }

    void
    setup(const std::string &dir) override
    {
        profiles_ = spec2000Profiles();
        // Each scheme's call opens a journal and a worker pool first.
        for (SchemeKind kind : kSweepKinds)
            runSweepHarness({}, {kind}, eopts_,
                            harnessOptions(dir,
                                           "setup-" + schemeKindName(kind)));
    }

    RoundResult
    round(const std::string &dir, bool traced) override
    {
        RoundResult r;
        std::string outputs;
        for (SchemeKind kind : kSweepKinds) {
            const std::string scheme = schemeKindName(kind);
            const HarnessOptions hopts = harnessOptions(
                dir, "sweep-" + scheme + ".journal");
            SchemeRun run;
            run.scheme = scheme;
            const uint64_t t0 = nowNs();
            SweepGrid grid;
            HarnessReport report;
            if (traced) {
                double unit_s = 0.0;
                report = tracedSweep(kind, hopts, r.trace, unit_s);
                run.wall_s = secondsSince(t0);
                run.outside_unit_s = run.wall_s * kJobs - unit_s;
                for (const UnitResult &u : report.results) {
                    if (u.status != CellStatus::Ok)
                        continue;
                    RunMetrics m = decodeRunMetrics(u.payload);
                    grid[m.benchmark][m.kind] = std::move(m);
                }
            } else {
                SweepHarnessResult res = runSweepHarness(
                    profiles_, {kind}, eopts_, hopts,
                    [this, kind](const RunMetrics &m) {
                        failIfInjected(m.benchmark, kind);
                    });
                run.wall_s = secondsSince(t0);
                report = std::move(res.report);
                grid = std::move(res.grid);
            }
            accountReport(report, "sweep", r);

            for (const BenchmarkProfile &p : profiles_) {
                const std::string key = sweepCellKey(p.name, kind);
                auto row = grid.find(p.name);
                if (row == grid.end() || !row->second.count(kind)) {
                    outputs += key + "=missing\n";
                    continue;
                }
                const RunMetrics &m = row->second.at(kind);
                outputs += key + "=" + encodeRunMetrics(m) + "\n";
                run.work += m.core.instructions;
                if (m.core.instructions != eopts_.instructions ||
                    m.core.cycles == 0) {
                    ++r.failed;
                    r.errors.push_back(strfmt(
                        "sweep cell %s ran %llu instructions in %llu "
                        "cycles",
                        key.c_str(),
                        (unsigned long long)m.core.instructions,
                        (unsigned long long)m.core.cycles));
                }
            }
            r.runs.push_back(run);
        }
        r.digest = fnv1a64(outputs);
        return r;
    }

    void
    layerMetrics(const std::vector<RoundResult> &traced,
                 const SpanCost &cost,
                 std::vector<std::pair<std::string, double>> &out)
        const override
    {
        const TraceAgg agg = sumTraces(traced);
        double inst = 0.0;
        double cells = 0.0;
        double scheme_inst[kTrackedSchemes] = {};
        for (const RoundResult &r : traced) {
            for (size_t i = 0; i < r.runs.size(); ++i) {
                inst += static_cast<double>(r.runs[i].work);
                scheme_inst[i] += static_cast<double>(r.runs[i].work);
            }
            cells += static_cast<double>(r.attempted);
        }
        out.emplace_back("trace.gen_ns_per_inst",
                         perItem(agg, cost, {kTraceGen}, inst, 1.0));
        out.emplace_back("cpu.core_ns_per_inst",
                         perItem(agg, cost, {kCore}, inst, 1.0));
        out.emplace_back("cache.l2_ns_per_inst",
                         perItem(agg, cost, {kCacheL2}, inst, 1.0));
        out.emplace_back("cache.mem_ns_per_inst",
                         perItem(agg, cost, {kCacheMem}, inst, 1.0));
        for (unsigned s = 0; s < kTrackedSchemes; ++s)
            out.emplace_back(
                std::string("scheme.encode_ns_per_inst.") +
                    kTrackedSchemeNames[s],
                perItem(agg, cost, {static_cast<Layer>(kEncode0 + s)},
                        scheme_inst[s], 1.0));
        out.emplace_back("sim.hierarchy_build_ms",
                         perItem(agg, cost, {kHierarchyBuild}, cells, 1e6));
        out.emplace_back("energy.compute_us",
                         perItem(agg, cost, {kEnergy}, cells, 1e3));

        const double kinst = inst / 1e3;
        out.emplace_back("cache.l1d_misses_per_kinst",
                         static_cast<double>(counts_.l1d_misses) / kinst);
        out.emplace_back("cache.l2_misses_per_kinst",
                         static_cast<double>(counts_.l2_misses) / kinst);
        out.emplace_back("cache.l2_evictions_per_kinst",
                         static_cast<double>(counts_.l2_evictions) / kinst);
        out.emplace_back("cache.writebacks_per_kinst",
                         static_cast<double>(counts_.writebacks) / kinst);
        out.emplace_back("scheme.rbw_words_per_kinst.cppc",
                         static_cast<double>(counts_.cppc_rbw_words) /
                             (scheme_inst[1] / 1e3));
    }

  private:
    HarnessReport
    tracedSweep(SchemeKind kind, const HarnessOptions &hopts,
                TraceAgg &trace, double &unit_s)
    {
        // The unit decomposition and config of runSweepHarness().
        std::vector<WorkUnit> units;
        for (const BenchmarkProfile &profile : profiles_) {
            WorkUnit u;
            u.key = sweepCellKey(profile.name, kind);
            u.work = [this, &profile,
                      kind](const std::atomic<bool> &cancel) {
                ExperimentOptions opts = eopts_;
                opts.cancel = &cancel;
                RunMetrics m = tracedCell(profile, kind, opts, counts_);
                failIfInjected(m.benchmark, kind);
                return encodeRunMetrics(m);
            };
            units.push_back(std::move(u));
        }
        return runTracedUnits(hopts, "sweep",
                              sweepConfigString(profiles_, {kind}, eopts_),
                              units, trace, unit_s);
    }

    void
    failIfInjected(const std::string &benchmark, SchemeKind kind) const
    {
        if (opts_.inject == Inject::FailUnit && kind == kSweepKinds[0] &&
            benchmark == profiles_.front().name)
            throw std::runtime_error("injected unit failure");
    }

    WorkloadOptions opts_;
    ExperimentOptions eopts_;
    std::vector<BenchmarkProfile> profiles_;
    SweepCounts counts_;
};

} // namespace

std::unique_ptr<Workload>
makeSweepWorkload(const WorkloadOptions &o)
{
    return std::make_unique<SweepWorkload>(o);
}

} // namespace perfbench
