/**
 * @file
 * fuzz-conformance: what `cppcsim fuzz` runs by default, the
 * conformance registry plus the tag-array fuzz, one runFuzzHarness()
 * call per scheme.
 */

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <typeinfo>

#include "cppc/cppc_scheme.hh"
#include "harness/runners.hh"
#include "protection/chiprepair.hh"
#include "protection/icr.hh"
#include "protection/ldpc.hh"
#include "protection/memory_mapped_ecc.hh"
#include "protection/parity.hh"
#include "protection/replication_cache.hh"
#include "protection/secded.hh"
#include "protection/two_d_parity.hh"
#include "state/state_io.hh"
#include "util/fnv.hh"
#include "util/logging.hh"

#include "seams.hh"
#include "workload.hh"

namespace perfbench {

namespace {

using namespace cppc;

constexpr const char *kTagScheme = "tagcppc";
constexpr uint64_t kBatches = 6;
constexpr uint64_t kSmokeBatches = 1;
/**
 * Ops per seed (`cppcsim fuzz --ops`; its default is 200).  Every seed
 * but a batch's last ends in a durable snapshot, two fsyncs and a
 * rename; at 200 ops they took over a third of the time and the
 * throughput followed the disk's latency.  At 1000 ops the replay
 * dominates and the snapshots are about 7% (BREAKDOWN.md).
 */
constexpr unsigned kOps = 1000;

/**
 * The registry entry @p spec rebuilt with every scheme callback timed.
 * Constructor arguments mirror conformanceSchemes(); CPPC variants
 * take their configuration from an instance the registry builds.  An
 * unknown entry stays untimed.
 */
FuzzSchemeSpec
timedSpec(const FuzzSchemeSpec &spec)
{
    SchemeSpans sp;
    sp.encode = sp.check = sp.resync = kSchemeFuzz;
    FuzzSchemeSpec out = spec;
    const std::string &n = spec.name;
    if (n == "parity1d")
        out.make = [sp] {
            return std::make_unique<TimedScheme<OneDimParityScheme>>(sp,
                                                                     8u);
        };
    else if (n == "secded")
        out.make = [sp] {
            return std::make_unique<TimedScheme<SecdedScheme>>(sp, 8u);
        };
    else if (n == "parity2d")
        out.make = [sp] {
            return std::make_unique<TimedScheme<TwoDParityScheme>>(sp, 8u);
        };
    else if (n == "icr")
        out.make = [sp] {
            return std::make_unique<TimedScheme<IcrScheme>>(sp, 8u);
        };
    else if (n == "mmecc")
        out.make = [sp] {
            return std::make_unique<TimedScheme<MemoryMappedEccScheme>>(
                sp, 8u);
        };
    else if (n == "replcache")
        out.make = [sp] {
            return std::make_unique<TimedScheme<ReplicationCacheScheme>>(
                sp, 64u, 8u);
        };
    else if (n == "ldpc")
        out.make = [sp] {
            return std::make_unique<TimedScheme<LdpcScheme>>(sp);
        };
    else if (n == "chiprepair")
        out.make = [sp] {
            return std::make_unique<TimedScheme<ChipRepairScheme>>(sp, 8u);
        };
    else if (spec.is_cppc) {
        std::unique_ptr<ProtectionScheme> proto = spec.make();
        const auto *c = dynamic_cast<const CppcScheme *>(proto.get());
        if (c && typeid(*c) == typeid(CppcScheme)) {
            const CppcConfig cfg = c->config();
            out.make = [sp, cfg] {
                return std::make_unique<TimedScheme<CppcScheme>>(sp, cfg);
            };
        }
    }
    return out;
}

/** The runner's per-seed batch snapshot image (fuzz_runner.cc). */
std::string
encodeBatchSnapshot(uint64_t next_offset, const FuzzBatchResult &res)
{
    StateWriter w;
    w.begin(stateTag("FCKP"), 1);
    w.u64(next_offset);
    w.u64(res.seeds);
    w.u64(res.failures);
    w.u64(res.checks);
    w.u64(res.strikes);
    w.u64(res.corrected);
    w.u64(res.refetched);
    w.u64(res.dues);
    w.u64(res.misrepairs);
    w.u64(res.first_fail_seed);
    w.str(res.first_violation);
    w.end();
    return w.image();
}

void
accumulate(FuzzBatchResult &total, const FuzzBatchResult &batch)
{
    if (batch.failures && !total.failures) {
        total.first_fail_seed = batch.first_fail_seed;
        total.first_violation = batch.first_violation;
    }
    total.seeds += batch.seeds;
    total.failures += batch.failures;
    total.checks += batch.checks;
    total.strikes += batch.strikes;
    total.corrected += batch.corrected;
    total.refetched += batch.refetched;
    total.dues += batch.dues;
    total.misrepairs += batch.misrepairs;
}

class FuzzWorkload : public Workload
{
  public:
    explicit FuzzWorkload(const WorkloadOptions &o) : opts_(o)
    {
        n_seeds_ = (o.smoke ? kSmokeBatches : kBatches) * kFuzzBatchSeeds;
        // Disjoint seed ranges per benchmark seed.
        base_seed_ = o.seed << 20;
    }

    std::string workUnit() const override { return "op"; }

    void
    setup(const std::string &dir) override
    {
        specs_ = conformanceSchemes();
        if (opts_.inject == Inject::Sabotage)
            specs_.push_back(sabotagedCppcSpec());
        timed_specs_.clear();
        for (const FuzzSchemeSpec &spec : specs_)
            timed_specs_.push_back(timedSpec(spec));
        if (opts_.inject == Inject::FailUnit) {
            // The first scheme's first replay after set-up throws.
            auto thrown = std::make_shared<std::atomic<bool>>(false);
            for (auto *list : {&specs_, &timed_specs_}) {
                auto make = list->front().make;
                list->front().make = [make, thrown] {
                    if (!thrown->exchange(true))
                        throw std::runtime_error("injected unit failure");
                    return make();
                };
            }
        }
        // Each scheme's call opens a journal and a worker pool first.
        for (size_t i = 0; i <= specs_.size(); ++i) {
            const bool tag = i == specs_.size();
            std::vector<FuzzSchemeSpec> one;
            if (!tag)
                one.push_back(specs_[i]);
            runFuzzHarness(one, tag, base_seed_, 0, kOps,
                           harnessOptions(dir,
                                          "setup-" + std::to_string(i)));
        }
    }

    RoundResult
    round(const std::string &dir, bool traced) override
    {
        RoundResult r;
        std::string outputs;
        for (size_t i = 0; i <= specs_.size(); ++i) {
            const bool tag = i == specs_.size();
            const std::string scheme = tag ? kTagScheme : specs_[i].name;
            std::vector<FuzzSchemeSpec> one;
            if (!tag)
                one.push_back(traced ? timed_specs_[i] : specs_[i]);
            const HarnessOptions hopts = harnessOptions(
                dir, "fuzz-" + scheme + ".journal");
            SchemeRun run;
            run.scheme = scheme;
            const uint64_t t0 = nowNs();
            FuzzHarnessResult res;
            if (traced) {
                double unit_s = 0.0;
                res = tracedFuzz(one, tag, hopts, r.trace, unit_s);
                run.wall_s = secondsSince(t0);
                run.outside_unit_s = run.wall_s * kJobs - unit_s;
            } else {
                res = runFuzzHarness(one, tag, base_seed_, n_seeds_, kOps,
                                     hopts);
                run.wall_s = secondsSince(t0);
            }
            accountReport(res.report, "fuzz", r);
            for (const UnitResult &u : res.report.results) {
                if (u.status == CellStatus::Ok &&
                    decodeFuzzBatch(u.payload).failures) {
                    ++r.failed;
                    r.errors.push_back(strfmt(
                        "fuzz batch %s breached its contract",
                        u.key.c_str()));
                }
            }
            for (const auto &kv : res.per_scheme) {
                outputs +=
                    kv.first + "=" + encodeFuzzBatch(kv.second) + "\n";
                run.work += kv.second.seeds * kOps;
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
        double ops = 0.0;
        double tag_ops = 0.0;
        for (const RoundResult &r : traced) {
            for (const SchemeRun &run : r.runs)
                (run.scheme == kTagScheme ? tag_ops : ops) +=
                    static_cast<double>(run.work);
        }
        out.emplace_back("verify.gen_ns_per_op",
                         perItem(agg, cost, {kVerifyGen}, ops, 1.0));
        out.emplace_back("verify.replay_ns_per_op",
                         perItem(agg, cost, {kVerifyReplay}, ops, 1.0));
        out.emplace_back("scheme.fuzz_ns_per_op",
                         perItem(agg, cost, {kSchemeFuzz}, ops, 1.0));
        out.emplace_back("verify.tag_ns_per_op",
                         perItem(agg, cost, {kVerifyTag}, tag_ops, 1.0));
        out.emplace_back("verify.checks_per_op",
                         ops > 0.0 ? static_cast<double>(traced_checks_) /
                                 ops
                                   : 0.0);
        snapshotMetrics(traced, cost, out);
    }

  private:
    /** The unit decomposition of runFuzzHarness(), with spans. */
    FuzzHarnessResult
    tracedFuzz(const std::vector<FuzzSchemeSpec> &specs, bool run_tag,
               const HarnessOptions &hopts, TraceAgg &trace, double &unit_s)
    {
        std::vector<std::pair<uint64_t, uint64_t>> batches;
        for (uint64_t off = 0; off < n_seeds_; off += kFuzzBatchSeeds)
            batches.emplace_back(base_seed_ + off,
                                 std::min(kFuzzBatchSeeds, n_seeds_ - off));

        std::vector<WorkUnit> units;
        std::vector<std::string> order;
        for (const FuzzSchemeSpec &spec : specs) {
            order.push_back(spec.name);
            for (const auto &[first, count] : batches) {
                WorkUnit u;
                u.key = fuzzBatchKey(spec.name, first);
                u.work = [this, &spec, first = first,
                          count = count](const CellContext &ctx) {
                    return schemeBatch(spec, first, count, ctx);
                };
                units.push_back(std::move(u));
            }
        }
        if (run_tag) {
            order.push_back(kTagScheme);
            for (const auto &[first, count] : batches) {
                WorkUnit u;
                u.key = fuzzBatchKey(kTagScheme, first);
                u.work = [this, first = first,
                          count = count](const CellContext &ctx) {
                    return tagBatch(first, count, ctx);
                };
                units.push_back(std::move(u));
            }
        }

        FuzzHarnessResult out;
        out.report = runTracedUnits(
            hopts, "fuzz",
            fuzzConfigString(specs, run_tag, base_seed_, n_seeds_, kOps),
            units, trace, unit_s);
        size_t idx = 0;
        for (const std::string &scheme : order) {
            FuzzBatchResult total;
            for (size_t b = 0; b < batches.size(); ++b, ++idx) {
                const UnitResult &r = out.report.results[idx];
                if (r.status == CellStatus::Ok)
                    accumulate(total, decodeFuzzBatch(r.payload));
            }
            if (scheme != kTagScheme)
                traced_checks_ += total.checks;
            out.per_scheme.emplace_back(scheme, total);
        }
        return out;
    }

    std::string
    schemeBatch(const FuzzSchemeSpec &spec, uint64_t first, uint64_t count,
                const CellContext &ctx)
    {
        if (ctx.loadSnapshot())
            throw std::runtime_error("fresh journal holds a batch snapshot");
        FuzzBatchResult res;
        for (uint64_t s = 0; s < count; ++s) {
            if (ctx.cancelled())
                throw CancelledError("fuzz batch cancelled");
            std::vector<FuzzOp> ops;
            {
                Span sp(kVerifyGen);
                ops = generateOps(first + s, kOps);
            }
            FuzzOneResult fr;
            {
                Span sp(kVerifyReplay);
                fr.replay =
                    replaySequence(spec, ops, first + s, &ctx.cancel());
            }
            // fuzzOne() reports the shrunk sequence's replay on failure.
            if (!fr.replay.ok)
                fr = fuzzOne(spec, first + s, kOps, &ctx.cancel());
            ++res.seeds;
            res.checks += fr.replay.checks;
            res.strikes += fr.replay.strikes;
            res.corrected += fr.replay.corrected;
            res.refetched += fr.replay.refetched;
            res.dues += fr.replay.dues;
            res.misrepairs += fr.replay.misrepairs;
            if (fr.failed()) {
                if (!res.failures) {
                    res.first_fail_seed = first + s;
                    res.first_violation = fr.replay.violation;
                }
                ++res.failures;
            }
            checkpoint(ctx, s + 1, count, res);
        }
        return encodeFuzzBatch(res);
    }

    std::string
    tagBatch(uint64_t first, uint64_t count, const CellContext &ctx)
    {
        if (ctx.loadSnapshot())
            throw std::runtime_error("fresh journal holds a batch snapshot");
        FuzzBatchResult res;
        for (uint64_t s = 0; s < count; ++s) {
            if (ctx.cancelled())
                throw CancelledError("tag fuzz batch cancelled");
            TagFuzzResult tr;
            {
                Span sp(kVerifyTag);
                tr = fuzzTagCppc(first + s, kOps, &ctx.cancel());
            }
            ++res.seeds;
            res.strikes += tr.strikes;
            res.corrected += tr.corrected;
            res.dues += tr.dues;
            if (!tr.ok) {
                if (!res.failures) {
                    res.first_fail_seed = first + s;
                    res.first_violation = tr.violation;
                }
                ++res.failures;
            }
            checkpoint(ctx, s + 1, count, res);
        }
        return encodeFuzzBatch(res);
    }

    /** The runner's per-seed snapshot, skipped after the last seed. */
    void
    checkpoint(const CellContext &ctx, uint64_t next, uint64_t count,
               const FuzzBatchResult &res)
    {
        if (!ctx.checkpointing() || next >= count)
            return;
        std::string image;
        {
            Span sp(kStateSave);
            image = encodeBatchSnapshot(next, res);
        }
        snapshot_bytes_ += image.size();
        ++snapshots_;
        Span sp(kSnapshotPublish);
        (void)ctx.saveSnapshot(image);
    }

    WorkloadOptions opts_;
    uint64_t n_seeds_ = 0;
    uint64_t base_seed_ = 0;
    std::vector<FuzzSchemeSpec> specs_;
    std::vector<FuzzSchemeSpec> timed_specs_;
    std::atomic<uint64_t> traced_checks_{0};
    std::atomic<uint64_t> snapshots_{0};
    std::atomic<uint64_t> snapshot_bytes_{0};
};

} // namespace

std::unique_ptr<Workload>
makeFuzzWorkload(const WorkloadOptions &o)
{
    return std::make_unique<FuzzWorkload>(o);
}

} // namespace perfbench
