/**
 * @file
 * Serving benchmark program: runs one workload (chat, batch or session)
 * for about a given time, checks every output, and prints the
 * end-to-end metrics — or, with --trace 1, the per-layer metrics, a
 * Chrome trace of its spans and a self-time table.  The last line of
 * standard output is one JSON object:
 *
 *   {"correct": B, "attempted": N, "failed": F, "metrics": {...}}
 *
 * Usage (normally through perfbench/run.py, which builds this binary and
 * runs it once per workload for --workload all):
 *
 *   perfbench --workload chat --seed 1 --seconds 30 --trace 0
 *
 * Chat's offered rate and every workload's SLO limits are read from the
 * workload's "why" in BENCHMARK.json (--spec), so they are fixed there.
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <malloc.h>
#include <thread>

#include "bench.hpp"
#include "util/parallel.hpp"

using namespace olive;
using namespace perfbench;

namespace {

struct Options
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false; //!< Tiny inputs (the benchmark's self-tests).
    std::string spec = "BENCHMARK.json";
    Limits lim; //!< Of the workload being run (from spec).
    std::string outDir = ".bench_out";
    std::string digestOut;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "chat|batch|session --seed N --seconds S --trace 0|1 "
                 "[--spec BENCHMARK.json] [--smoke 1] [--out-dir DIR] "
                 "[--digest-out FILE]\n",
                 why.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        if (flag == "--workload")
            o.workload = v;
        else if (flag == "--seed")
            o.seed = std::stoull(v);
        else if (flag == "--seconds")
            o.seconds = std::stod(v);
        else if (flag == "--trace")
            o.trace = v == "1";
        else if (flag == "--smoke")
            o.smoke = v == "1";
        else if (flag == "--spec")
            o.spec = v;
        else if (flag == "--out-dir")
            o.outDir = v;
        else if (flag == "--digest-out")
            o.digestOut = v;
        else
            usage("unknown flag " + flag);
    }
    if (o.workload != "chat" && o.workload != "batch" &&
        o.workload != "session")
        usage("unknown workload \"" + o.workload + "\"");
    if (!(o.seconds > 0))
        usage("--seconds must be positive");
    return o;
}

// ---- one repetition ------------------------------------------------------

/** Repetitions of an untraced chat run.  Batch and session run one
 *  repetition per kRepSeconds of --seconds (about its length on a
 *  4-core host): the count depends on --seconds alone, so every build
 *  measures the same requests for a given seed. */
constexpr size_t kChatReps = 4;
constexpr double kRepSeconds = 5.0;
/** Repetitions of a traced run, each made untraced and then traced. */
constexpr size_t kTracedReps = 2;
/** Set-ups timed alone before each untraced repetition. */
constexpr size_t kSetupSamplesPerRep = 6;

size_t
repetitions(const std::string &wl, const Options &o)
{
    if (o.trace)
        return kTracedReps;
    if (wl == "chat")
        return kChatReps;
    return std::max<size_t>(
        3, static_cast<size_t>(std::lround(o.seconds / kRepSeconds)));
}

/** Chat trace length per repetition; a traced run fits two untraced
 *  and two traced repetitions into its first half. */
double
chatRepSeconds(const Options &o)
{
    return o.smoke ? 0.5 : o.seconds / (o.trace ? 8.0 : kChatReps);
}

serve::ServeConfig
configFor(const std::string &wl)
{
    return wl == "chat" ? chatConfig()
                        : wl == "batch" ? batchConfig() : sessionConfig();
}

serve::WorkloadSpec
specFor(const std::string &wl, u64 seed, const Options &o)
{
    serve::WorkloadSpec s =
        wl == "chat" ? chatSpec(seed, o.lim.ratePerS, chatRepSeconds(o))
                     : wl == "batch" ? batchSpec(seed) : sessionSpec(seed);
    if (o.smoke)
        s.sessions = std::min<size_t>(s.sessions, wl == "session" ? 40 : 4);
    return s;
}

/**
 * A short closed batch of single-turn requests drawn from the
 * workload's own spec: the work of the 1/2/4-thread sweep and of the
 * service probe on chat and batch.  On batch it is one wave of
 * maxActiveRequests requests.
 */
serve::WorkloadSpec
probeSpec(const std::string &wl, u64 seed, const Options &o)
{
    serve::WorkloadSpec s = specFor(wl, seed, o);
    s.turnsMin = s.turnsMax = 1;
    s.sessions = std::min<size_t>(
        s.sessions, wl == "chat" ? 32 : wl == "batch" ? 8 : 96);
    return s;
}

/** Model build, trace generation and engine construction, timed. */
double
timeSetup(const std::string &wl, u64 seed, const Options &o)
{
    const Clock::time_point t0 = Clock::now();
    const eval::LmModel lm = buildModel();
    const serve::Workload w = serve::Workload::generate(specFor(wl, seed, o));
    const serve::ServeEngine engine(lm, configFor(wl));
    return since(t0);
}

/** Hand freed heap back to the system between repetitions, so that the
 *  process's peak RSS tracks the largest repetition, not their sum. */
void
releaseFreeMemory()
{
    malloc_trim(0);
}

struct Rep
{
    RepResult r;
    std::string traceDump; //!< Workload::dump() of the generated trace.
    std::string streams;   //!< Every request's generated tokens.
};

enum class Drive
{
    Workload, //!< The workload as specified.
    Closed,   //!< Every turn-0 request due at t=0 (thread sweep).
    Service,  //!< Single-turn requests through a Service session.
};

Rep
runRep(const std::string &wl, u64 seed, const Options &o, Drive drive)
{
    Rep rep;
    RepResult &r = rep.r;
    const eval::LmModel lm = buildModel();
    const serve::ServeConfig cfg = configFor(wl);
    const Clock::time_point tg = Clock::now();
    const serve::WorkloadSpec spec =
        drive == Drive::Workload ? specFor(wl, seed, o)
                                 : probeSpec(wl, seed, o);
    serve::Workload w;
    {
        Span s("loadgen.generate");
        w = serve::Workload::generate(spec);
    }
    r.generateS = since(tg);
    serve::ServeEngine engine(lm, cfg);

    if (drive == Drive::Service ||
        (wl == "session" && drive == Drive::Workload))
        driveSession(engine, w, seed, r);
    else
        driveEngine(engine, w, wl == "batch" || drive == Drive::Closed, r);
    collectEngine(engine, r);
    checkRep(lm, engine, w, seed, r);
    rep.traceDump = w.dump();
    for (const ReqRec &q : r.reqs) {
        rep.streams += std::to_string(q.traceId) + ":";
        for (int t : q.generated)
            rep.streams += std::to_string(t) + ",";
        rep.streams += ";";
    }
    return rep;
}

// ---- metrics -------------------------------------------------------------

/** Name -> (value, unit, percentile sample count or 0). */
struct Metric
{
    double value = 0.0;
    std::string unit;
    size_t n = 0;
};
using Metrics = std::vector<std::pair<std::string, Metric>>;

void
put(Metrics &m, const std::string &name, double v, const std::string &unit,
    size_t n = 0)
{
    m.push_back({name, {v, unit, n}});
}

void
putPct(Metrics &m, const std::string &name, const std::vector<double> &xs,
       double p, const std::string &unit)
{
    const Pct pc = nearestRank(xs, p);
    put(m, name, pc.value, unit, pc.n);
}

bool
served(const ReqRec &q)
{
    return q.done && !q.cancelled && !q.tokenTimes.empty();
}

Metrics
endToEnd(const std::vector<Rep> &reps, const std::vector<double> &setup,
         const Limits &lim, const std::string &wl)
{
    std::vector<double> ttft, itl, lat, stats, tokS, opsS;
    size_t sloMet = 0, sloAll = 0;
    for (const Rep &rep : reps) {
        const RepResult &r = rep.r;
        stats.insert(stats.end(), r.statsMs.begin(), r.statsMs.end());
        double tokens = 0.0;
        size_t completed = 0;
        for (const ReqRec &q : r.reqs) {
            if (q.cancelled)
                continue;
            ++sloAll;
            if (!served(q))
                continue;
            ++completed;
            tokens += static_cast<double>(q.prompt.size() +
                                          q.generated.size());
            const double t1 = (q.tokenTimes.front() - q.due) * 1e3;
            ttft.push_back(t1);
            lat.push_back((q.finish - q.due) * 1e3);
            for (size_t i = 1; i < q.tokenTimes.size(); ++i)
                itl.push_back((q.tokenTimes[i] - q.tokenTimes[i - 1]) * 1e3);
            const double meanItl =
                q.tokenTimes.size() > 1
                    ? (q.tokenTimes.back() - q.tokenTimes.front()) * 1e3 /
                          static_cast<double>(q.tokenTimes.size() - 1)
                    : 0.0;
            if (t1 <= lim.ttftMs && meanItl <= lim.itlMs)
                ++sloMet;
        }
        // Per second of engine-busy wall time: the whole makespan on
        // batch and session, the makespan less idle gaps on chat.
        const double busyS = r.wallS - r.idleS;
        tokS.push_back(tokens / busyS);
        opsS.push_back(
            static_cast<double>(wl == "session" ? r.ops : completed) / busyS);
    }
    Metrics m;
    put(m, "setup_s", median(setup), "s", setup.size());
    putPct(m, "ttft_p50_ms", ttft, 50, "ms");
    putPct(m, "ttft_p90_ms", ttft, 90, "ms");
    putPct(m, "itl_p50_ms", itl, 50, "ms");
    putPct(m, "itl_p99_ms", itl, 99, "ms");
    put(m, "slo_attain",
        sloAll ? static_cast<double>(sloMet) / static_cast<double>(sloAll)
               : 0.0,
        "fraction", sloAll);
    put(m, "tok_s", median(tokS), "tokens/s", tokS.size());
    put(m, "ops_s", median(opsS), "ops/s", opsS.size());
    putPct(m, "req_latency_p50_ms", lat, 50, "ms");
    putPct(m, "req_latency_p90_ms", lat, 90, "ms");
    putPct(m, "stats_latency_p90_ms", stats, 90, "ms");
    put(m, "peak_rss_mb", peakRssMb(), "MB");
    return m;
}

/** Sums over traced repetitions used by the per-layer metrics. */
struct LayerInputs
{
    std::vector<Rep> traced;
    double untracedBusyS = 0.0, tracedBusyS = 0.0;
    double sweepS[3] = {0, 0, 0}; //!< 1, 2, 4 threads.
    std::vector<double> sweepSubmitUs;
    RepResult serviceProbe; //!< chat/batch: the service probe session.
    ProbeResult probe;
};

Metrics
perLayer(const LayerInputs &in, const std::string &wl,
         const serve::ServeConfig &cfg, size_t layers, size_t rowBytes,
         size_t threads)
{
    std::vector<double> lag, stepMs, submitUs, queueMs, batch;
    double generateS = 0, wallS = 0, idleS = 0;
    size_t sent = 0, gateStall = 0, steps = 0, prefill = 0, decode = 0;
    size_t promptRows = 0, shared = 0, cow = 0, retHits = 0, retEv = 0;
    size_t poolPeak = 0, sharedSaved = 0, retainedPeak = 0;
    size_t encPeak = 0, fp32Peak = 0, processed = 0;
    size_t dcHits = 0, dcMisses = 0, dcEv = 0, dcRows = 0, dcPeak = 0;
    for (const Rep &rep : in.traced) {
        const RepResult &r = rep.r;
        const serve::ServeMetrics &m = r.metrics;
        generateS += r.generateS;
        wallS += r.wallS;
        idleS += r.idleS;
        sent += r.attempted;
        lag.insert(lag.end(), r.lagMs.begin(), r.lagMs.end());
        if (wl == "session")
            for (float s : m.stepSeconds)
                stepMs.push_back(s * 1e3);
        else
            stepMs.insert(stepMs.end(), r.stepMs.begin(), r.stepMs.end());
        submitUs.insert(submitUs.end(), r.submitUs.begin(),
                        r.submitUs.end());
        batch.insert(batch.end(), r.batchSizes.begin(), r.batchSizes.end());
        for (const ReqRec &q : r.reqs) {
            if (q.admitted >= 0)
                queueMs.push_back((q.admitted - q.due) * 1e3);
            promptRows += q.prompt.size();
        }
        gateStall += r.gateStallSteps;
        steps += m.steps;
        processed += m.tokensProcessed;
        prefill += r.prefillRows;
        decode += m.tokensProcessed - r.prefillRows;
        shared += m.sharedPrefillRowsSkipped;
        cow += m.cowCopyRows;
        retHits += m.retentionHits;
        retEv += m.retentionEvictions;
        poolPeak = std::max(poolPeak, r.poolPeakBytes);
        sharedSaved = std::max(sharedSaved, m.peakSharedSavedBytes);
        retainedPeak = std::max(retainedPeak, m.retainedPeakBytes);
        encPeak = std::max(encPeak, m.peakEncodedCacheBytes);
        fp32Peak = std::max(fp32Peak, m.peakFp32CacheBytes);
        dcHits += r.dcacheHits;
        dcMisses += r.dcacheMisses;
        dcEv += r.dcacheEvictions;
        dcRows += r.dcacheRows;
        dcPeak = std::max(dcPeak, r.dcachePeakBytes);
    }
    if (wl == "session")
        submitUs = in.sweepSubmitUs;

    // The service layer: the session itself, or the service probe.
    std::vector<const RepResult *> svc;
    if (wl == "session")
        for (const Rep &rep : in.traced)
            svc.push_back(&rep.r);
    else
        svc.push_back(&in.serviceProbe);
    std::vector<double> ack, first, last;
    size_t events = 0, bytes = 0, reqs = 0, tokens = 0;
    double rssGrowth = 0.0;
    for (const RepResult *r : svc) {
        for (const ReqRec &q : r->reqs) {
            if (q.ack >= 0)
                ack.push_back((q.ack - q.submit) * 1e3);
            tokens += q.generated.size();
        }
        reqs += r->reqs.size();
        events += r->events;
        bytes += r->outBytes;
        rssGrowth = std::max(rssGrowth, r->rssGrowthMb);
        const size_t dec = std::max<size_t>(1, r->statsMs.size() / 10);
        for (size_t i = 0; i < dec && i < r->statsMs.size(); ++i) {
            first.push_back(r->statsMs[i]);
            last.push_back(r->statsMs[r->statsMs.size() - 1 - i]);
        }
    }

    const double busyUs = (wallS - idleS) * 1e6;
    const double encodedRows = 2.0 * static_cast<double>(layers * processed);
    const double decodedRows = 2.0 * static_cast<double>(dcRows);
    const auto frac = [](double a, double b) { return b > 0 ? a / b : 0.0; };

    Metrics m;
    put(m, "loadgen.requests_sent", static_cast<double>(sent), "count");
    putPct(m, "loadgen.lag_p99_ms", lag, 99, "ms");
    put(m, "loadgen.generate_s", generateS / in.traced.size(), "s");

    putPct(m, "service.submit_ack_ms_p90", ack, 90, "ms");
    put(m, "service.events_per_request", frac(events, reqs), "count");
    put(m, "service.out_bytes_per_token", frac(bytes, tokens), "B");
    put(m, "service.stats_ms_first_decile", median(first), "ms",
        first.size());
    put(m, "service.stats_ms_last_decile", median(last), "ms", last.size());
    put(m, "service.rss_growth_mb", rssGrowth, "MB");

    putPct(m, "engine.step_ms_p50", stepMs, 50, "ms");
    putPct(m, "engine.step_ms_p99", stepMs, 99, "ms");
    putPct(m, "engine.submit_us_p99", submitUs, 99, "us");
    putPct(m, "engine.queue_wait_ms_p50", queueMs, 50, "ms");
    putPct(m, "engine.queue_wait_ms_p90", queueMs, 90, "ms");
    double bsum = 0;
    for (double b : batch)
        bsum += b;
    put(m, "engine.batch_size_mean", frac(bsum, batch.size()), "count");
    put(m, "engine.budget_fill",
        frac(processed, static_cast<double>(steps * cfg.maxBatchTokens)),
        "fraction");
    put(m, "engine.prefill_rows", static_cast<double>(prefill), "count");
    put(m, "engine.decode_rows", static_cast<double>(decode), "count");
    put(m, "engine.gate_stall_steps", static_cast<double>(gateStall),
        "count");
    put(m, "engine.idle_frac", frac(idleS, wallS), "fraction");

    put(m, "prefix.hit_rate", frac(shared, promptRows), "fraction");
    put(m, "prefix.shared_rows", static_cast<double>(shared), "count");
    put(m, "prefix.cow_rows", static_cast<double>(cow), "count");
    put(m, "retention.hits", static_cast<double>(retHits), "count");
    put(m, "retention.evictions", static_cast<double>(retEv), "count");

    put(m, "kv.pool_peak_bytes", static_cast<double>(poolPeak), "B");
    put(m, "kv.bytes_per_fp32_byte", frac(encPeak, fp32Peak), "ratio");
    put(m, "kv.shared_saved_peak_bytes", static_cast<double>(sharedSaved),
        "B");
    put(m, "kv.retained_peak_bytes", static_cast<double>(retainedPeak), "B");

    put(m, "dcache.hit_rate", frac(dcHits, dcHits + dcMisses), "fraction");
    put(m, "dcache.decoded_rows", static_cast<double>(dcRows), "count");
    put(m, "dcache.evictions", static_cast<double>(dcEv), "count");
    put(m, "dcache.peak_bytes", static_cast<double>(dcPeak), "B");

    put(m, "codec.encoded_rows", encodedRows, "count");
    put(m, "codec.encoded_bytes", encodedRows * rowBytes, "B");
    put(m, "codec.encode_us_per_row", in.probe.encodeUsPerRow, "us");
    put(m, "codec.decode_us_per_row", in.probe.decodeUsPerRow, "us");
    put(m, "codec.est_busy_frac",
        frac(encodedRows * in.probe.encodeUsPerRow +
                 decodedRows * in.probe.decodeUsPerRow,
             busyUs * threads),
        "fraction");

    put(m, "model.chunk_ms", in.probe.chunkMs, "ms");
    put(m, "model.step_ms", in.probe.stepMs, "ms");
    put(m, "model.flops_per_token", in.probe.flopsPerToken, "flop");
    put(m, "gemm.gflops", in.probe.gemmGflops, "GFLOP/s");

    put(m, "parallel.speedup_2t", frac(in.sweepS[0], in.sweepS[1]), "x");
    put(m, "parallel.speedup_4t", frac(in.sweepS[0], in.sweepS[2]), "x");

    put(m, "trace.overhead_frac",
        frac(in.tracedBusyS - in.untracedBusyS, in.untracedBusyS),
        "fraction");
    return m;
}

// ---- output --------------------------------------------------------------

void
printTable(const std::string &title, const Metrics &m)
{
    std::printf("\n== %s ==\n", title.c_str());
    for (const auto &[name, v] : m) {
        std::printf("  %-32s %14.6g %-9s", name.c_str(), v.value,
                    v.unit.c_str());
        if (v.n)
            std::printf(" (n=%zu)", v.n);
        std::printf("\n");
    }
}

Json
metricsJson(const Metrics &m)
{
    Json out = Json::object();
    for (const auto &[name, v] : m)
        out.set(name,
                Json::object({{"value", v.value}, {"unit", v.unit}}));
    return out;
}

/** FNV-1a, for the self-tests' trace and stream digests. */
std::string
digest(const std::string &s)
{
    u64 h = 1469598103934665603ULL;
    for (unsigned char c : s)
        h = (h ^ c) * 1099511628211ULL;
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

struct WorkloadOutcome
{
    Metrics metrics;
    size_t attempted = 0, failed = 0;
    Json digest;
};

void
tally(WorkloadOutcome &out, const RepResult &r, const std::string &what)
{
    out.attempted += r.attempted;
    out.failed += r.failed;
    for (const std::string &e : r.errors)
        std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(), e.c_str());
}

WorkloadOutcome
runWorkload(const std::string &wl, const Options &o)
{
    WorkloadOutcome out;
    const size_t threads = par::threadCount();
    std::vector<Rep> reps;
    LayerInputs li;
    Tracer tracer;
    // Set-up is cheap and noisy: time it several times on its own
    // before every repetition, so that the samples span the whole run,
    // and report their median.
    std::vector<double> setupS;
    const size_t nReps = repetitions(wl, o);
    for (u64 i = 0; i < nReps; ++i) {
        for (size_t k = 0; k < kSetupSamplesPerRep && !o.trace; ++k)
            setupS.push_back(timeSetup(
                wl, mixSeed(o.seed, 1000 + i * kSetupSamplesPerRep + k), o));
        const u64 seed = mixSeed(o.seed, i);
        reps.push_back(runRep(wl, seed, o, Drive::Workload));
        releaseFreeMemory();
        tally(out, reps.back().r, wl);
        if (o.trace) {
            gTracer = &tracer;
            li.traced.push_back(runRep(wl, seed, o, Drive::Workload));
            gTracer = nullptr;
            releaseFreeMemory();
            tally(out, li.traced.back().r, wl + " (traced)");
            const RepResult &a = reps.back().r, &b = li.traced.back().r;
            li.untracedBusyS += a.wallS - a.idleS;
            li.tracedBusyS += b.wallS - b.idleS;
        }
    }
    const Rep &first = reps.front();
    out.digest = Json::object({
        {"trace", digest(first.traceDump)},
        {"streams", digest(first.streams)},
        {"steps", first.r.metrics.steps},
        {"tokens_processed", first.r.metrics.tokensProcessed},
        {"tokens_generated", first.r.metrics.tokensGenerated},
        {"shared_rows", first.r.metrics.sharedPrefillRowsSkipped},
        {"prefill_rows", first.r.prefillRows},
    });

    if (!o.trace) {
        out.metrics = endToEnd(reps, setupS, o.lim, wl);
        printTable(wl + ": end-to-end (nearest-rank percentiles, "
                        "n = samples; " +
                       std::to_string(reps.size()) + " repetitions)",
                   out.metrics);
        std::printf("  %-32s %14.6g fraction\n", "fail_frac",
                    out.attempted ? static_cast<double>(out.failed) /
                                        static_cast<double>(out.attempted)
                                  : 0.0);
        return out;
    }

    // Thread sweep: the workload's closed batch at 1, 2 and 4 threads.
    const size_t sweep[3] = {1, 2, 4};
    for (int k = 0; k < 3; ++k) {
        par::setThreadCount(sweep[k]);
        Rep rep = runRep(wl, o.seed, o, Drive::Closed);
        tally(out, rep.r, wl + " sweep");
        li.sweepS[k] = rep.r.wallS;
        li.sweepSubmitUs = std::move(rep.r.submitUs); // last: 4 threads
    }
    par::setThreadCount(threads);

    gTracer = &tracer;
    if (wl != "session") {
        Rep rep = runRep(wl, o.seed, o, Drive::Service);
        tally(out, rep.r, wl + " service probe");
        li.serviceProbe = std::move(rep.r);
    }
    const eval::LmModel lm = buildModel();
    const serve::ServeConfig cfg = configFor(wl);
    const auto scheme = serve::makeKvScheme(cfg.cacheFormat);
    const serve::Workload w = serve::Workload::generate(specFor(wl, o.seed, o));
    size_t rows = 0, reqs = 0, ctx = 0;
    for (const Rep &rep : li.traced)
        for (const ReqRec &q : rep.r.reqs) {
            rows += q.prompt.size() - q.sharedRows;
            ctx += q.prompt.size() + q.generated.size() / 2;
            ++reqs;
        }
    const size_t meanRows = std::max<size_t>(1, rows / std::max<size_t>(1, reqs));
    const size_t chunk = std::min(cfg.prefillChunk, meanRows);
    li.probe = runProbes(lm, *scheme, w, chunk,
                         std::max<size_t>(1, ctx / std::max<size_t>(1, reqs)));
    gTracer = nullptr;

    out.metrics = perLayer(li, wl, cfg, lm.backbone.layers.size(),
                           scheme->rowBytes(lm.backbone.dModel), threads);
    printTable(wl + ": per-layer (traced run)", out.metrics);

    std::printf("\n== %s: self time per span (traced repetitions and "
                "probes) ==\n",
                wl.c_str());
    for (const auto &[name, ns] : tracer.selfTimes())
        std::printf("  %-32s %8zu calls %12.3f ms total %12.3f ms self\n",
                    name.c_str(), ns.count, ns.totalMs, ns.selfMs);

    const std::string path = o.outDir + "/trace_" + wl + "_" +
                             std::to_string(o.seed) + ".json";
    std::ofstream f(path);
    if (f) {
        f << tracer.chromeTrace().dump() << "\n";
        std::printf("  trace: %s (%zu spans)\n", path.c_str(),
                    tracer.spans().size());
    } else {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        ++out.failed;
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    // One pool of nproc threads; the driving thread is one of them.
    par::setThreadCount(std::max(1u, std::thread::hardware_concurrency()));
    std::printf("perfbench: workload %s, seed %llu, %g s, trace %d, "
                "%zu threads\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace ? 1 : 0, par::threadCount());

    Options wo = o;
    wo.lim = readLimits(o.spec, o.workload);
    const WorkloadOutcome out = runWorkload(o.workload, wo);
    if (!o.digestOut.empty()) {
        std::ofstream f(o.digestOut);
        f << Json::object({{o.workload, out.digest}}).dump() << "\n";
    }
    const size_t attempted = out.attempted, failed = out.failed;
    const bool correct = failed == 0 && attempted > 0;
    std::fflush(stdout);
    std::cout << Json::object({{"correct", correct},
                               {"attempted", attempted},
                               {"failed", failed},
                               {"metrics", metricsJson(out.metrics)}})
                     .dump()
              << std::endl;
    return correct ? 0 : 1;
}
