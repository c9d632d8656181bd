/**
 * @file
 * Shared pieces of the serving benchmark: the measured-request record,
 * the nearest-rank percentile convention, process memory readings, the
 * in-memory span tracer, and the per-workload engine configurations.
 *
 * The benchmark drives only public libolive calls.  Every span the
 * tracer records wraps one such call made from these files (or one
 * isolated probe); nothing inside the library is instrumented.
 */

#ifndef OLIVE_PERFBENCH_BENCH_HPP
#define OLIVE_PERFBENCH_BENCH_HPP

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "eval/perplexity.hpp"
#include "serve/engine.hpp"
#include "serve/workload.hpp"
#include "util/json.hpp"

namespace perfbench {

using olive::u64;
using Clock = std::chrono::steady_clock;

/** Seconds from @p t0 to now. */
inline double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** SplitMix64 step: derives per-repetition seeds from the run seed. */
u64 mixSeed(u64 seed, u64 salt);

// ---- percentiles -------------------------------------------------------

/** A percentile with the number of samples it was taken over. */
struct Pct
{
    double value = 0.0;
    size_t n = 0;
};

/**
 * Nearest-rank percentile: the ceil(p/100 * n)-th smallest sample
 * (1-based), the one convention every metric uses.  p in (0, 100].
 */
Pct nearestRank(std::vector<double> xs, double p);

/** nearestRank(xs, 50).value. */
double median(std::vector<double> xs);

// ---- process memory ----------------------------------------------------

/** Peak resident set of the process so far, in MB (ru_maxrss). */
double peakRssMb();

/** Current resident set, in MB (/proc/self/statm). */
double currentRssMb();

// ---- tracing -----------------------------------------------------------

/** One recorded span; times are microseconds from the tracer's origin. */
struct SpanRec
{
    std::string name;
    double startUs = 0.0;
    double endUs = 0.0;
    int parent = -1; //!< Index of the enclosing span, -1 at top level.
    u64 request = 0; //!< Engine / service request id, 0 when none.
};

/** In-memory span recorder; spans nest on one thread. */
class Tracer
{
  public:
    Tracer();

    int begin(const std::string &name, u64 request);
    void end(int idx);

    /** Attach a request id learned during the span (e.g. a submit's). */
    void setRequest(int idx, u64 request)
    {
        spans_[static_cast<size_t>(idx)].request = request;
    }

    /** Recorded spans in begin order. */
    const std::vector<SpanRec> &spans() const { return spans_; }

    /** Chrome trace-event document (Perfetto-viewable). */
    olive::Json chromeTrace() const;

    /** Per span name: count, total and self (children excluded) ms. */
    struct NameStats
    {
        size_t count = 0;
        double totalMs = 0.0;
        double selfMs = 0.0;
    };
    std::map<std::string, NameStats> selfTimes() const;

  private:
    Clock::time_point origin_;
    std::vector<SpanRec> spans_;
    std::vector<int> stack_;
};

/** The active tracer, or nullptr for an untraced run. */
extern Tracer *gTracer;

/** RAII span around one public call; a no-op when untraced. */
class Span
{
  public:
    explicit Span(const char *name, u64 request = 0)
        : idx_(gTracer ? gTracer->begin(name, request) : -1)
    {
    }
    ~Span()
    {
        if (idx_ >= 0)
            gTracer->end(idx_);
    }

    /** Tag the span with the request id the call returned. */
    void request(u64 id)
    {
        if (idx_ >= 0)
            gTracer->setRequest(idx_, id);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    int idx_;
};

// ---- measured requests -------------------------------------------------

/** One request as the benchmark's client observed it (seconds are
 *  measured from the repetition's time origin). */
struct ReqRec
{
    u64 traceId = 0;
    u64 engineId = 0;
    std::vector<int> prompt; //!< Full prompt as submitted.
    size_t maxNew = 0;
    std::vector<int> stop;
    double due = 0.0;      //!< When the client wanted it submitted.
    double submit = -1.0;  //!< When the submit call/op was issued.
    double ack = -1.0;     //!< Service accepted event (session only).
    double admitted = -1.0; //!< First seen active / admitted event.
    double finish = -1.0;  //!< Done event or finished snapshot.
    std::vector<double> tokenTimes; //!< One per generated token.
    std::vector<int> generated;
    size_t sharedRows = 0;
    bool cancelled = false;
    bool done = false;
};

/** Everything one repetition of a workload produced. */
struct RepResult
{
    double generateS = 0.0; //!< Workload::generate alone.
    double wallS = 0.0;     //!< Measured serving wall time.
    double idleS = 0.0;     //!< Time the engine had nothing to do.
    std::vector<ReqRec> reqs;

    // Engine-side observations (snapshot accessors).
    olive::serve::ServeMetrics metrics;
    std::vector<double> stepMs;       //!< Spans around step().
    std::vector<double> submitUs;     //!< Spans around submit().
    std::vector<double> batchSizes;   //!< Active count after each step.
    size_t gateStallSteps = 0;
    size_t steps = 0; //!< Steps driveEngine called.
    size_t prefillRows = 0; //!< Prompt rows actually computed.
    size_t poolPeakBytes = 0;
    size_t dcacheHits = 0, dcacheMisses = 0, dcacheEvictions = 0;
    size_t dcacheRows = 0, dcachePeakBytes = 0;
    std::vector<double> lagMs; //!< Submit issue minus due time.

    // Session-only observations.
    size_t ops = 0;
    std::vector<double> statsMs; //!< stats op -> stats event, in order.
    size_t events = 0;
    size_t outBytes = 0;
    double rssGrowthMb = 0.0;

    // Checks.
    size_t attempted = 0;
    size_t failed = 0;
    std::vector<std::string> errors;

    /** Record a failed check (counted in failed, reported on stderr). */
    void fail(const std::string &why);
};

// ---- workload configuration ------------------------------------------

/**
 * Workload parameters fixed in BENCHMARK.json, read from the workload's
 * "why": "ttft<=Tms" and "itl<=Ims" (every workload) and "rate=R/s"
 * (chat's conversation openings per second).
 */
struct Limits
{
    double ratePerS = 0.0; //!< Chat only; 0 elsewhere.
    double ttftMs = 0.0;   //!< SLO: time to first token.
    double itlMs = 0.0;    //!< SLO: mean inter-token gap of a request.
};

/** Limits of @p workload from the benchmark file at @p path; fatal
 *  when the file, the workload or a limit is missing. */
Limits readLimits(const std::string &path, const std::string &workload);

/** Wall milliseconds per chat trace tick. */
inline constexpr double kChatTickMs = 10.0;

/** The benchmark's model: GPT2-XL at the proxy eval dimensions. */
olive::eval::LmModel buildModel();

olive::serve::ServeConfig chatConfig();
olive::serve::ServeConfig batchConfig();
olive::serve::ServeConfig sessionConfig();

olive::serve::WorkloadSpec chatSpec(u64 seed, double ratePerS,
                                    double seconds);
olive::serve::WorkloadSpec batchSpec(u64 seed);
olive::serve::WorkloadSpec sessionSpec(u64 seed);

// ---- workload loops ----------------------------------------------------

/**
 * Open-loop engine client (chat and batch): submits each trace request
 * at its due time — turn 0 at its arrival tick, later turns a gap after
 * the previous turn finished — steps the engine and records per-token
 * times through progressSnapshot().  With @p closed, every turn-0
 * request is due at t=0 and later turns are dropped.
 */
void driveEngine(olive::serve::ServeEngine &engine,
                 const olive::serve::Workload &w, bool closed, RepResult &r);

/** Closed-loop Service session (the session workload's client). */
void driveSession(olive::serve::ServeEngine &engine,
                  const olive::serve::Workload &w, u64 seed,
                  RepResult &r);

/**
 * Output checks shared by both loops: a seeded sample of requests
 * (whole conversations for multi-turn traces) is re-generated alone on
 * a contiguous-cache engine and compared token for token, then the
 * pool and decoded-cache invariants and the post-drain byte balance
 * are verified.
 */
void checkRep(const olive::eval::LmModel &lm,
              const olive::serve::ServeEngine &engine,
              const olive::serve::Workload &w, u64 seed, RepResult &r);

/** Fill the engine-side fields of @p r from the public accessors. */
void collectEngine(const olive::serve::ServeEngine &engine, RepResult &r);

// ---- probes ------------------------------------------------------------

/** Isolated layer probes at the workload's shapes (traced run only). */
struct ProbeResult
{
    double encodeUsPerRow = 0.0;
    double decodeUsPerRow = 0.0;
    double chunkMs = 0.0;
    double stepMs = 0.0;
    double flopsPerToken = 0.0;
    double gemmGflops = 0.0;
};

ProbeResult runProbes(const olive::eval::LmModel &lm,
                      const olive::serve::KvScheme &scheme,
                      const olive::serve::Workload &w, size_t chunkRows,
                      size_t ctxRows);

} // namespace perfbench

#endif // OLIVE_PERFBENCH_BENCH_HPP
