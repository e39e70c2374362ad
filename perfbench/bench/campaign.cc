/**
 * @file
 * fault-campaign: one runCampaignHarness() call per scheme against the
 * target `cppcsim campaign` builds (8 KB, 2-way, 32 B lines, 8 B units,
 * dirty 0.5, multibit mix 0.5, interleave 1), with an equal number of
 * strikes per scheme in whole shards.
 */

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <stdexcept>

#include "harness/runners.hh"
#include "state/state_io.hh"
#include "util/fnv.hh"
#include "util/logging.hh"
#include "util/rng.hh"

#include "seams.hh"
#include "workload.hh"

namespace perfbench {

namespace {

using namespace cppc;

const SchemeKind kCampaignKinds[kTrackedSchemes] = {
    SchemeKind::Parity1D, SchemeKind::Cppc, SchemeKind::Secded,
    SchemeKind::Ldpc, SchemeKind::ChipRepair};

constexpr uint64_t kShards = 8;
constexpr uint64_t kSmokeShards = 1;
constexpr double kDirty = 0.5;
constexpr double kMultibit = 0.5;

/** cppcsim's CampaignTarget: a populated 8 KB L1 over its own memory. */
class CampaignTarget : public CampaignHost
{
  public:
    CampaignTarget(std::unique_ptr<ProtectionScheme> scheme, double dirty,
                   uint64_t seed)
        : cache_("L1D", geometry(), ReplacementKind::LRU, &mem_,
                 std::move(scheme))
    {
        Rng rng(seed);
        for (Addr a = 0; a < geometry().size_bytes; a += 8) {
            if (rng.chance(dirty)) {
                uint64_t v = rng.next();
                uint8_t buf[8];
                std::memcpy(buf, &v, 8);
                cache_.store(a, 8, buf);
            } else {
                cache_.load(a, 8, nullptr);
            }
        }
    }

    WriteBackCache &cache() override { return cache_; }

    static CacheGeometry
    geometry()
    {
        CacheGeometry geom;
        geom.size_bytes = 8 * 1024;
        geom.assoc = 2;
        geom.line_bytes = 32;
        geom.unit_bytes = 8;
        return geom;
    }

  private:
    MainMemory mem_;
    WriteBackCache cache_;
};

/** The runner's mid-shard snapshot image (campaign_runner.cc). */
std::string
encodeShardSnapshot(uint64_t next_injection, const CampaignResult &res,
                    const WriteBackCache &cache)
{
    StateWriter w;
    w.begin(stateTag("CCKP"), 1);
    w.u64(next_injection);
    w.u64(res.injections);
    w.u64(res.benign);
    w.u64(res.corrected);
    w.u64(res.due);
    w.u64(res.sdc);
    w.u64(res.misrepair);
    w.end();
    cache.saveState(w);
    return w.image();
}

class CampaignWorkload : public Workload
{
  public:
    explicit CampaignWorkload(const WorkloadOptions &o) : opts_(o)
    {
        cfg_.injections =
            (o.smoke ? kSmokeShards : kShards) * kCampaignShardStrikes;
        cfg_.seed = o.seed;
        cfg_.shapes = StrikeShapeDistribution::scaledTechnologyMix(kMultibit);
        cfg_.physical_interleave = 1;
        cppc_cfg_.pairs_per_domain = 1;
        cppc_cfg_.num_domains = 1;
        cppc_cfg_.byte_shifting = true;
    }

    std::string workUnit() const override { return "strike"; }

    void
    setup(const std::string &dir) override
    {
        // What each call does before its shards run: a probe host, the
        // pre-sampled strike sequence, a journal and a worker pool.
        Campaign::Config empty = cfg_;
        empty.injections = 0;
        for (SchemeKind kind : kCampaignKinds) {
            Campaign::sampleStrikes(CampaignTarget::geometry(), cfg_);
            runCampaignHarness(factory(kind, false), empty, target(kind),
                               harnessOptions(dir,
                                              "setup-" +
                                                  schemeKindName(kind)));
        }
    }

    RoundResult
    round(const std::string &dir, bool traced) override
    {
        RoundResult r;
        std::string outputs;
        for (SchemeKind kind : kCampaignKinds) {
            const std::string scheme = schemeKindName(kind);
            const HarnessOptions hopts = harnessOptions(
                dir, "campaign-" + scheme + ".journal");
            SchemeRun run;
            run.scheme = scheme;
            const uint64_t t0 = nowNs();
            CampaignResult total;
            HarnessReport report;
            if (traced) {
                double unit_s = 0.0;
                report = tracedCampaign(kind, hopts, r.trace, unit_s);
                run.wall_s = secondsSince(t0);
                run.outside_unit_s = run.wall_s * kJobs - unit_s;
                for (const UnitResult &u : report.results) {
                    if (u.status != CellStatus::Ok)
                        continue;
                    CampaignResult shard = decodeCampaignResult(u.payload);
                    total.injections += shard.injections;
                    total.benign += shard.benign;
                    total.corrected += shard.corrected;
                    total.due += shard.due;
                    total.sdc += shard.sdc;
                    total.misrepair += shard.misrepair;
                }
            } else {
                CampaignHarnessResult res = runCampaignHarness(
                    factory(kind, false), cfg_, target(kind), hopts);
                run.wall_s = secondsSince(t0);
                report = std::move(res.report);
                total = res.total;
            }
            accountReport(report, "campaign", r);
            outputs += scheme + "=" + encodeCampaignResult(total) + "\n";
            run.work = total.injections;
            const uint64_t outcomes = total.benign + total.corrected +
                total.due + total.sdc + total.misrepair;
            if (total.injections != cfg_.injections ||
                outcomes != total.injections) {
                ++r.failed;
                r.errors.push_back(strfmt(
                    "campaign %s: %llu injections of %llu, outcomes "
                    "sum to %llu",
                    scheme.c_str(), (unsigned long long)total.injections,
                    (unsigned long long)cfg_.injections,
                    (unsigned long long)outcomes));
            }
            r.runs.push_back(run);
        }
        r.digest = fnv1a64(outputs);
        r.snapshots = snapshots_.exchange(0);
        r.snapshot_bytes = snapshot_bytes_.exchange(0);
        return r;
    }

    void
    layerMetrics(const std::vector<RoundResult> &traced,
                 const SpanCost &cost,
                 std::vector<std::pair<std::string, double>> &out)
        const override
    {
        const TraceAgg agg = sumTraces(traced);
        double strikes = 0.0;
        double shards = 0.0;
        double scheme_strikes[kTrackedSchemes] = {};
        for (const RoundResult &r : traced) {
            for (size_t i = 0; i < r.runs.size(); ++i) {
                strikes += static_cast<double>(r.runs[i].work);
                scheme_strikes[i] += static_cast<double>(r.runs[i].work);
            }
            shards += static_cast<double>(r.attempted);
        }
        out.emplace_back("fault.campaign_us_per_strike",
                         perItem(agg, cost, {kCampaign}, strikes, 1e3));
        out.emplace_back("fault.host_build_ms",
                         perItem(agg, cost, {kHostBuild}, shards, 1e6));
        // Schemes with a resyncRow body; the others keep the empty base.
        double resync_rows = 0.0, resync_strikes = 0.0;
        for (unsigned s = 0; s < kTrackedSchemes; ++s) {
            const std::string n = kTrackedSchemeNames[s];
            const Layer check = static_cast<Layer>(kCheck0 + s);
            const Layer resync = static_cast<Layer>(kResync0 + s);
            out.emplace_back("scheme.decode_us_per_strike." + n,
                             perItem(agg, cost, {check}, scheme_strikes[s],
                                     1e3));
            out.emplace_back("scheme.resync_us_per_strike." + n,
                             perItem(agg, cost, {resync},
                                     scheme_strikes[s], 1e3));
            if (agg[resync].count) {
                resync_rows += static_cast<double>(agg[resync].count);
                resync_strikes += scheme_strikes[s];
            }
        }
        out.emplace_back("scheme.resync_rows_per_strike",
                         resync_strikes > 0.0 ? resync_rows / resync_strikes
                                              : 0.0);
        snapshotMetrics(traced, cost, out);
    }

  private:
    std::string
    target(SchemeKind kind) const
    {
        return strfmt("scheme=%s,dirty=%g,populate-seed=%llu,pairs=%u,"
                      "domains=%u,shift=%d,multibit=%g",
                      schemeKindName(kind).c_str(), kDirty,
                      static_cast<unsigned long long>(cfg_.seed),
                      cppc_cfg_.pairs_per_domain, cppc_cfg_.num_domains,
                      cppc_cfg_.byte_shifting ? 1 : 0, kMultibit);
    }

    /**
     * The campaign host factory.  Traced hosts carry a timed scheme
     * whose decode and resync spans switch on after the populate, so
     * populate-time checks stay in fault.host_build.
     */
    CampaignHostFactory
    factory(SchemeKind kind, bool traced)
    {
        factory_calls_ = 0;
        return [this, kind, traced]() -> std::unique_ptr<CampaignHost> {
            // Call 0 is the runner's probe host; failing a later call
            // fails one shard.
            if (opts_.inject == Inject::FailUnit &&
                kind == kCampaignKinds[0] && factory_calls_++ == 1)
                throw std::runtime_error("injected unit failure");
            if (!traced)
                return std::make_unique<CampaignTarget>(
                    makeScheme(kind, cppc_cfg_), kDirty, cfg_.seed);
            auto host = std::make_unique<CampaignTarget>(
                makeTimedScheme(kind, cppc_cfg_, SchemeSpans{}), kDirty,
                cfg_.seed);
            SchemeSpans spans;
            spans.check = static_cast<Layer>(kCheck0 + trackedIndex(kind));
            spans.resync =
                static_cast<Layer>(kResync0 + trackedIndex(kind));
            dynamic_cast<SpanSwitch &>(*host->cache().scheme())
                .setSpans(spans);
            return host;
        };
    }

    /** The unit decomposition of runCampaignHarness(), with spans. */
    HarnessReport
    tracedCampaign(SchemeKind kind, const HarnessOptions &hopts,
                   TraceAgg &trace, double &unit_s)
    {
        const CampaignHostFactory make = factory(kind, true);
        std::unique_ptr<CampaignHost> probe = make();
        const std::vector<Strike> strikes =
            Campaign::sampleStrikes(probe->cache().geometry(), cfg_);
        probe.reset();

        std::mutex factory_mu;
        std::vector<WorkUnit> units;
        for (size_t begin = 0; begin < strikes.size();
             begin += kCampaignShardStrikes) {
            const size_t end =
                std::min<size_t>(begin + kCampaignShardStrikes,
                                 strikes.size());
            WorkUnit u;
            u.key = campaignShardKey(begin);
            u.work = [this, &make, &factory_mu, &strikes, begin,
                      end](const CellContext &ctx) {
                std::unique_ptr<CampaignHost> host;
                {
                    std::lock_guard<std::mutex> lock(factory_mu);
                    Span s(kHostBuild);
                    host = make();
                }
                if (ctx.loadSnapshot())
                    throw std::runtime_error(
                        "fresh journal holds a shard snapshot");
                CampaignResult res;
                Campaign c(host->cache(), cfg_);
                for (size_t i = begin; i < end; ++i) {
                    if (ctx.cancelled())
                        throw CancelledError("campaign shard cancelled");
                    InjectionOutcome o;
                    {
                        Span s(kCampaign);
                        o = c.runOne(strikes[i]);
                    }
                    Campaign::reduceOutcome(res, o);
                    const uint64_t done = i + 1 - begin;
                    if (ctx.checkpointing() && i + 1 < end &&
                        done % kCampaignCheckpointStride == 0) {
                        std::string image;
                        {
                            Span s(kStateSave);
                            image = encodeShardSnapshot(i + 1, res,
                                                        host->cache());
                        }
                        snapshot_bytes_ += image.size();
                        ++snapshots_;
                        Span s(kSnapshotPublish);
                        (void)ctx.saveSnapshot(image);
                    }
                }
                return encodeCampaignResult(res);
            };
            units.push_back(std::move(u));
        }
        return runTracedUnits(
            hopts, "campaign",
            campaignConfigString(cfg_, target(kind),
                                 campaignStrikesHash(strikes)),
            units, trace, unit_s);
    }

    WorkloadOptions opts_;
    Campaign::Config cfg_;
    CppcConfig cppc_cfg_;
    std::atomic<unsigned> factory_calls_{0};
    /** Snapshot images written by traced rounds, and their bytes. */
    std::atomic<uint64_t> snapshots_{0};
    std::atomic<uint64_t> snapshot_bytes_{0};
};

} // namespace

std::unique_ptr<Workload>
makeCampaignWorkload(const WorkloadOptions &o)
{
    return std::make_unique<CampaignWorkload>(o);
}

} // namespace perfbench
