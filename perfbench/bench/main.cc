/**
 * @file
 * The perfbench program.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1 [--smoke]
 *             [--inject fail-unit|sabotage] [--expect-digest HEX]
 *
 * Run from the repository root; journals go under .bench_build/work.
 * Sets the workload up and runs a round, until S seconds have passed;
 * throughputs are medians over the rounds, setup_s over the set-ups.
 * With --trace 1, untraced and traced rounds alternate and the
 * per-layer metrics are printed; otherwise the end-to-end metrics.  Every round's output digest must
 * equal the pinned digest of (workload, seed) when one is pinned, and
 * the first round's otherwise.  The last stdout line is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}.  Exit status
 * is 0 only when every unit and every check passed.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/logging.hh"

#include "pins.hh"
#include "workload.hh"

namespace fs = std::filesystem;

namespace perfbench {

namespace {

/** Where the journals of every run go, relative to the repo root. */
constexpr const char *kWorkDir = ".bench_build/work";

/** Workload bits: which workloads measure a metric. */
enum : unsigned
{
    kSweep = 1,
    kCampaign = 2,
    kFuzz = 4,
    kAll = kSweep | kCampaign | kFuzz,
};

struct MetricSpec
{
    const char *name;
    const char *unit;
    unsigned on; ///< workloads that must produce it
};

/** End-to-end metrics (--trace 0), as declared in BENCHMARK.json. */
const MetricSpec kEndToEnd[] = {
    {"work_per_s", "1/s", kAll},
    {"work_per_s.parity1d", "1/s", kAll},
    {"work_per_s.cppc", "1/s", kAll},
    {"work_per_s.secded", "1/s", kAll},
    {"work_per_s.ldpc", "1/s", kAll},
    {"work_per_s.chiprepair", "1/s", kAll},
    {"setup_s", "s", kAll},
    {"peak_rss_mb", "MB", kAll},
};

/**
 * Per-layer metrics (--trace 1), as declared in BENCHMARK.json, with
 * the workloads that reach each layer.  Every workload prints all of
 * them; a layer the workload does not reach reads 0.
 */
const MetricSpec kPerLayer[] = {
    {"trace.gen_ns_per_inst", "ns", kSweep},
    {"cpu.core_ns_per_inst", "ns", kSweep},
    {"cache.l2_ns_per_inst", "ns", kSweep},
    {"cache.mem_ns_per_inst", "ns", kSweep},
    {"cache.l1d_misses_per_kinst", "count", kSweep},
    {"cache.l2_misses_per_kinst", "count", kSweep},
    {"cache.l2_evictions_per_kinst", "count", kSweep},
    {"cache.writebacks_per_kinst", "count", kSweep},
    {"scheme.encode_ns_per_inst.parity1d", "ns", kSweep},
    {"scheme.encode_ns_per_inst.cppc", "ns", kSweep},
    {"scheme.encode_ns_per_inst.secded", "ns", kSweep},
    {"scheme.encode_ns_per_inst.ldpc", "ns", kSweep},
    {"scheme.encode_ns_per_inst.chiprepair", "ns", kSweep},
    {"scheme.rbw_words_per_kinst.cppc", "count", kSweep},
    {"sim.hierarchy_build_ms", "ms", kSweep},
    {"energy.compute_us", "us", kSweep},
    {"fault.campaign_us_per_strike", "us", kCampaign},
    {"fault.host_build_ms", "ms", kCampaign},
    {"scheme.decode_us_per_strike.parity1d", "us", kCampaign},
    {"scheme.decode_us_per_strike.cppc", "us", kCampaign},
    {"scheme.decode_us_per_strike.secded", "us", kCampaign},
    {"scheme.decode_us_per_strike.ldpc", "us", kCampaign},
    {"scheme.decode_us_per_strike.chiprepair", "us", kCampaign},
    {"scheme.resync_us_per_strike.parity1d", "us", kCampaign},
    {"scheme.resync_us_per_strike.cppc", "us", kCampaign},
    {"scheme.resync_us_per_strike.secded", "us", kCampaign},
    {"scheme.resync_us_per_strike.ldpc", "us", kCampaign},
    {"scheme.resync_us_per_strike.chiprepair", "us", kCampaign},
    {"scheme.resync_rows_per_strike", "count", kCampaign},
    {"state.save_ms", "ms", kCampaign | kFuzz},
    {"state.snapshot_bytes", "bytes", kCampaign | kFuzz},
    {"harness.snapshot_publish_ms", "ms", kCampaign | kFuzz},
    {"verify.gen_ns_per_op", "ns", kFuzz},
    {"verify.replay_ns_per_op", "ns", kFuzz},
    {"scheme.fuzz_ns_per_op", "ns", kFuzz},
    {"verify.tag_ns_per_op", "ns", kFuzz},
    {"verify.checks_per_op", "count", kFuzz},
    {"harness.outside_unit_frac", "fraction", kAll},
    {"tracing.overhead_frac", "fraction", kAll},
    {"tracing.unattributed_frac", "fraction", kAll},
};

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::optional<uint64_t> expect_digest;
    WorkloadOptions wopts;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "figure-sweep|fault-campaign|fuzz-conformance --seed N "
                 "--seconds S --trace 0|1 [--smoke] "
                 "[--inject fail-unit|sabotage] "
                 "[--expect-digest HEX]\n",
                 why);
    std::exit(2);
}

uint64_t
parseUint(const std::string &s, int base, const char *flag)
{
    size_t used = 0;
    unsigned long long v = 0;
    try {
        v = std::stoull(s, &used, base);
    } catch (const std::exception &) {
        used = 0;
    }
    if (used == 0 || used != s.size() || s[0] == '-')
        usage(cppc::strfmt("bad value '%s' for %s", s.c_str(), flag)
                  .c_str());
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            a.wopts.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string v = argv[++i];
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = parseUint(v, 10, "--seed");
            have_seed = true;
        } else if (flag == "--seconds") {
            a.seconds = static_cast<double>(parseUint(v, 10, "--seconds"));
            have_seconds = a.seconds >= 1.0;
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
            have_trace = true;
        } else if (flag == "--inject") {
            if (v == "fail-unit")
                a.wopts.inject = Inject::FailUnit;
            else if (v == "sabotage")
                a.wopts.inject = Inject::Sabotage;
            else
                usage("--inject takes fail-unit or sabotage");
        } else if (flag == "--expect-digest") {
            a.expect_digest = parseUint(v, 16, "--expect-digest");
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (a.workload.empty() || !have_seed || !have_seconds || !have_trace)
        usage("--workload, --seed, --seconds (>= 1) and --trace are "
              "required");
    a.wopts.seed = a.seed;
    return a;
}

/** The median of @p v (the mean of the middle two when even). */
double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/**
 * Set-ups timed before each round.  A set-up takes milliseconds, most
 * of it journal fsyncs whose latency varies widely, so setup_s is the
 * median of many.
 */
constexpr int kSetupsPerRound = 5;

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Throughput of each tracked scheme in one round (0 when absent). */
double
schemeRate(const RoundResult &r, const std::string &scheme)
{
    for (const SchemeRun &run : r.runs)
        if (run.scheme == scheme && run.wall_s > 0.0)
            return static_cast<double>(run.work) / run.wall_s;
    return 0.0;
}

double
roundRate(const RoundResult &r)
{
    const double wall = r.wall_s();
    return wall > 0.0 ? static_cast<double>(r.work()) / wall : 0.0;
}

std::vector<double>
rates(const std::vector<RoundResult> &rounds)
{
    std::vector<double> v;
    for (const RoundResult &r : rounds)
        v.push_back(roundRate(r));
    return v;
}

/** Metrics every traced workload shares (harness, tracing). */
void
commonLayerMetrics(const std::vector<RoundResult> &plain,
                   const std::vector<RoundResult> &traced,
                   const SpanCost &cost,
                   std::vector<std::pair<std::string, double>> &out)
{
    const TraceAgg agg = sumTraces(traced);
    double outside = 0.0, capacity = 0.0;
    for (const RoundResult &r : traced) {
        for (const SchemeRun &run : r.runs) {
            outside += run.outside_unit_s;
            capacity += run.wall_s * kJobs;
        }
    }
    out.emplace_back("harness.outside_unit_frac",
                     capacity > 0.0 ? outside / capacity : 0.0);

    const double plain_rate = median(rates(plain));
    const double traced_rate = median(rates(traced));
    out.emplace_back("tracing.overhead_frac",
                     plain_rate > 0.0 ? 1.0 - traced_rate / plain_rate
                                      : 0.0);

    // Timer cost inside units: each non-unit span adds its inside
    // share to itself and its outside share to its parent.
    double timer_ns = 0.0;
    for (unsigned l = 0; l < kNumLayers; ++l)
        if (l != kUnit)
            timer_ns += static_cast<double>(agg[l].count) *
                (cost.inside_ns + cost.outside_ns);
    const double unit_ns =
        static_cast<double>(agg[kUnit].total_ns) - timer_ns;
    out.emplace_back("tracing.unattributed_frac",
                     unit_ns > 0.0 ? selfNs(agg, kUnit, cost) / unit_ns
                                   : 0.0);
}

/**
 * Print the result line.  @p values must hold, with a finite value,
 * exactly the metrics of @p specs that workload @p bit measures; the
 * others print 0.  Anything else is a defect of the benchmark and
 * throws before anything is printed.
 */
void
printJson(bool correct, uint64_t attempted, uint64_t failed,
          const std::vector<std::pair<std::string, double>> &values,
          const MetricSpec *specs, size_t n_specs, unsigned bit)
{
    std::map<std::string, double> by_name(values.begin(), values.end());
    if (by_name.size() != values.size())
        throw std::logic_error("a metric was produced twice");
    std::string json = cppc::strfmt(
        "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
        ", \"metrics\": {",
        correct ? "true" : "false", attempted, failed);
    for (size_t i = 0; i < n_specs; ++i) {
        auto it = by_name.find(specs[i].name);
        double v = 0.0;
        if (specs[i].on & bit) {
            if (it == by_name.end())
                throw std::logic_error(cppc::strfmt(
                    "metric %s was not produced", specs[i].name));
            v = it->second;
            if (!std::isfinite(v))
                throw std::logic_error(cppc::strfmt(
                    "metric %s is not finite", specs[i].name));
            by_name.erase(it);
        }
        json += cppc::strfmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                             i ? ", " : "", specs[i].name, v,
                             specs[i].unit);
    }
    if (!by_name.empty())
        throw std::logic_error(cppc::strfmt(
            "metric %s is not measured by this workload",
            by_name.begin()->first.c_str()));
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

int
run(const Args &args)
{
    std::unique_ptr<Workload> w;
    unsigned bit = 0;
    if (args.workload == "figure-sweep") {
        w = makeSweepWorkload(args.wopts);
        bit = kSweep;
    } else if (args.workload == "fault-campaign") {
        w = makeCampaignWorkload(args.wopts);
        bit = kCampaign;
    } else if (args.workload == "fuzz-conformance") {
        w = makeFuzzWorkload(args.wopts);
        bit = kFuzz;
    } else {
        usage(("unknown workload " + args.workload).c_str());
    }

    const fs::path base =
        fs::path(kWorkDir) / cppc::strfmt("run-%d", (int)getpid());
    fs::remove_all(base);
    fs::create_directories(base);
    struct Cleanup
    {
        fs::path dir;
        ~Cleanup()
        {
            std::error_code ec;
            fs::remove_all(dir, ec);
        }
    } cleanup{base};

    SpanCost cost;
    if (args.trace)
        cost = calibrateSpanCost();

    std::vector<RoundResult> plain, traced;
    std::vector<double> setup_s;
    const uint64_t deadline =
        nowNs() + static_cast<uint64_t>(args.seconds * 1e9);
    for (int idx = 0;; ++idx) {
        // Set up several times before every round, so the median
        // samples the whole run rather than one instant of it.
        for (int k = 0; k < kSetupsPerRound; ++k) {
            const fs::path setup_dir =
                base / cppc::strfmt("setup-%d-%d", idx, k);
            fs::create_directories(setup_dir);
            const uint64_t t0 = nowNs();
            w->setup(setup_dir.string());
            setup_s.push_back(secondsSince(t0));
            fs::remove_all(setup_dir);
        }

        const bool t = args.trace && idx % 2 == 1;
        const fs::path dir = base / cppc::strfmt("round-%d", idx);
        fs::create_directories(dir);
        if (t) {
            harvestTrace();
            setTracing(true);
        }
        RoundResult r = w->round(dir.string(), t);
        if (t)
            setTracing(false);
        fs::remove_all(dir);
        std::fprintf(stderr, "round %d%s: %.3f s, %.6g %s/s,", idx,
                     t ? " (traced)" : "", r.wall_s(), roundRate(r),
                     w->workUnit().c_str());
        for (const SchemeRun &run : r.runs)
            std::fprintf(stderr, " %s %.6g", run.scheme.c_str(),
                         static_cast<double>(run.work) / run.wall_s);
        std::fprintf(stderr, ", digest %016" PRIx64 "\n", r.digest);
        (t ? traced : plain).push_back(std::move(r));
        const bool need_traced = args.trace && traced.empty();
        if (nowNs() >= deadline && !need_traced)
            break;
    }

    // Every round must reproduce the expected digest.
    std::optional<uint64_t> expected = args.expect_digest;
    if (!expected && !args.wopts.smoke)
        expected = pinnedDigest(args.workload, args.seed);
    const uint64_t reference = expected ? *expected : plain.front().digest;
    std::fprintf(stderr, "digest %s seed=%" PRIu64 " = %016" PRIx64
                 " (%s)\n",
                 args.workload.c_str(), args.seed, plain.front().digest,
                 expected ? "checked against the expected digest"
                          : "no pinned digest: rounds checked against "
                            "each other");

    uint64_t attempted = 0, failed = 0;
    int shown = 0;
    for (std::vector<RoundResult> *rounds : {&plain, &traced}) {
        for (RoundResult &r : *rounds) {
            if (r.digest != reference) {
                r.errors.push_back(cppc::strfmt(
                    "output digest %016" PRIx64 " != expected %016" PRIx64,
                    r.digest, reference));
                r.failed = r.attempted;
            }
            attempted += r.attempted;
            failed += std::min(r.failed, r.attempted);
            for (const std::string &e : r.errors)
                if (shown++ < 20)
                    std::fprintf(stderr, "FAILED: %s\n", e.c_str());
        }
    }
    const bool correct = failed == 0;

    std::vector<std::pair<std::string, double>> values;
    if (args.trace) {
        w->layerMetrics(traced, cost, values);
        commonLayerMetrics(plain, traced, cost, values);
        printJson(correct, attempted, failed, values, kPerLayer,
                  std::size(kPerLayer), bit);
    } else {
        values.emplace_back("work_per_s", median(rates(plain)));
        for (unsigned s = 0; s < kTrackedSchemes; ++s) {
            std::vector<double> v;
            for (const RoundResult &r : plain)
                v.push_back(schemeRate(r, kTrackedSchemeNames[s]));
            values.emplace_back(
                std::string("work_per_s.") + kTrackedSchemeNames[s],
                median(v));
        }
        values.emplace_back("setup_s", median(setup_s));
        values.emplace_back("peak_rss_mb", peakRssMb());
        printJson(correct, attempted, failed, values, kEndToEnd,
                  std::size(kEndToEnd), bit);
    }
    return correct ? 0 : 1;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    const perfbench::Args args = perfbench::parseArgs(argc, argv);
    cppc::setQuiet(true);
    try {
        return perfbench::run(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
