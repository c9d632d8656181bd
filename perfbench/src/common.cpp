/**
 * @file
 * Percentiles, memory readings, the span tracer and the workload
 * configurations (see bench.hpp).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <regex>
#include <sstream>
#include <sys/resource.h>
#include <unistd.h>

#include "bench.hpp"
#include "models/config.hpp"

namespace perfbench {

using namespace olive;

Tracer *gTracer = nullptr;

u64
mixSeed(u64 seed, u64 salt)
{
    u64 z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

Pct
nearestRank(std::vector<double> xs, double p)
{
    Pct out;
    out.n = xs.size();
    if (xs.empty())
        return out;
    std::sort(xs.begin(), xs.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(xs.size()));
    const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
    out.value = xs[std::min(idx, xs.size() - 1)];
    return out;
}

double
median(std::vector<double> xs)
{
    return nearestRank(std::move(xs), 50.0).value;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // kB on Linux
}

double
currentRssMb()
{
    long pages = 0, resident = 0;
    if (FILE *f = std::fopen("/proc/self/statm", "r")) {
        if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2)
            resident = 0;
        std::fclose(f);
    }
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

void
RepResult::fail(const std::string &why)
{
    ++failed;
    if (errors.size() < 20)
        errors.push_back(why);
}

// ---- tracer ------------------------------------------------------------

Tracer::Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

int
Tracer::begin(const std::string &name, u64 request)
{
    SpanRec s;
    s.name = name;
    s.startUs = since(origin_) * 1e6;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.request = request;
    spans_.push_back(std::move(s));
    const int idx = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(idx);
    return idx;
}

void
Tracer::end(int idx)
{
    spans_[static_cast<size_t>(idx)].endUs = since(origin_) * 1e6;
    OLIVE_ASSERT(!stack_.empty() && stack_.back() == idx,
                 "spans must close innermost first");
    stack_.pop_back();
}

Json
Tracer::chromeTrace() const
{
    Json events = Json::array();
    for (size_t i = 0; i < spans_.size(); ++i) {
        const SpanRec &s = spans_[i];
        const std::string layer = s.name.substr(0, s.name.find('.'));
        events.push(Json::object({
            {"name", s.name},
            {"cat", layer},
            {"ph", "X"},
            {"ts", s.startUs},
            {"dur", s.endUs - s.startUs},
            {"pid", 1},
            {"tid", 1},
            {"args", Json::object({{"id", static_cast<u64>(i)},
                                   {"parent", s.parent},
                                   {"request", s.request}})},
        }));
    }
    return Json::object(
        {{"traceEvents", std::move(events)}, {"displayTimeUnit", "ms"}});
}

std::map<std::string, Tracer::NameStats>
Tracer::selfTimes() const
{
    std::vector<double> childUs(spans_.size(), 0.0);
    for (const SpanRec &s : spans_)
        if (s.parent >= 0)
            childUs[static_cast<size_t>(s.parent)] += s.endUs - s.startUs;
    std::map<std::string, NameStats> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const double dur = spans_[i].endUs - spans_[i].startUs;
        NameStats &ns = out[spans_[i].name];
        ++ns.count;
        ns.totalMs += dur / 1e3;
        ns.selfMs += (dur - childUs[i]) / 1e3;
    }
    return out;
}

// ---- configuration -----------------------------------------------------

Limits
readLimits(const std::string &path, const std::string &workload)
{
    std::ifstream f(path);
    std::stringstream text;
    text << f.rdbuf();
    const auto doc = Json::parse(text.str());
    if (!f || !doc || !doc->isObject() || !doc->contains("workloads"))
        OLIVE_FATAL("cannot read the workloads of " + path);
    const auto number = [&](const std::string &why, const char *re) {
        std::smatch m;
        if (!std::regex_search(why, m, std::regex(re)))
            OLIVE_FATAL(path + ": the " + workload + " workload's why must "
                        "state " + re);
        return std::stod(m[1].str());
    };
    for (const Json &w : doc->find("workloads")->elements()) {
        if (w.find("name")->asString() != workload)
            continue;
        const std::string &why = w.find("why")->asString();
        Limits lim;
        lim.ttftMs = number(why, "ttft<=([0-9.]+)ms");
        lim.itlMs = number(why, "itl<=([0-9.]+)ms");
        if (workload == "chat")
            lim.ratePerS = number(why, "rate=([0-9.]+)/s");
        return lim;
    }
    OLIVE_FATAL(path + " names no workload " + workload);
}

eval::LmModel
buildModel()
{
    return eval::makeLm(models::byName("GPT2-XL"), 1234);
}

serve::ServeConfig
chatConfig()
{
    serve::ServeConfig c;
    c.cacheFormat = serve::KvCacheFormat::Olive4;
    c.maxBatchTokens = 32;
    c.maxActiveRequests = 8;
    c.blockRows = 4;
    // Bounded: retained prefixes fill it within a repetition, so
    // retention eviction runs all the time.  Tighter pools also make
    // the admission gate stall, but then evicted live prefixes are
    // re-prefilled and TTFT p90 spreads by 25-45% across seeds.
    c.poolBlocks = 1024;
    c.retainPrefixes = true;
    return c;
}

serve::ServeConfig
batchConfig()
{
    serve::ServeConfig c;
    c.cacheFormat = serve::KvCacheFormat::Olive8;
    c.maxBatchTokens = 128;
    c.maxActiveRequests = 8;
    c.blockRows = 4;
    return c;
}

serve::ServeConfig
sessionConfig()
{
    // FP32 KV: no codec work, so the front end dominates.
    serve::ServeConfig c;
    c.cacheFormat = serve::KvCacheFormat::Fp32;
    c.maxBatchTokens = 32;
    c.maxActiveRequests = 8;
    c.blockRows = 4;
    return c;
}

serve::WorkloadSpec
chatSpec(u64 seed, double ratePerS, double seconds)
{
    serve::WorkloadSpec s;
    s.seed = seed;
    s.vocab = 1024;
    // Poisson openings: per-tick probability rate * tick, in 1/1000.
    s.arrival.kind = serve::ArrivalSpec::Kind::Poisson;
    s.arrival.den = 1000;
    s.arrival.num = static_cast<u64>(
        std::llround(ratePerS * kChatTickMs));
    s.sessions = std::max<size_t>(
        1, static_cast<size_t>(std::llround(ratePerS * seconds)));
    s.systemPromptLen = 32;
    s.systemPromptPercent = 100;
    s.promptLen = {serve::LengthSpec::Kind::Uniform, 8, 4, 12, 8, 2};
    s.outputLen = {serve::LengthSpec::Kind::LogNormalish, 4, 2, 12, 4, 1};
    s.turnsMin = 3;
    s.turnsMax = 3;
    s.turnGapSteps = 10; // 100 ms of user think time
    return s;
}

serve::WorkloadSpec
batchSpec(u64 seed)
{
    serve::WorkloadSpec s;
    s.seed = seed;
    s.vocab = 1024;
    s.sessions = 16;
    s.arrival.kind = serve::ArrivalSpec::Kind::Uniform;
    s.arrival.gap = 0; // every request due at t = 0
    s.promptLen = {serve::LengthSpec::Kind::LogNormalish, 192, 96, 480,
                   192, 1};
    s.outputLen = {serve::LengthSpec::Kind::Uniform, 12, 8, 16, 12, 2};
    return s;
}

serve::WorkloadSpec
sessionSpec(u64 seed)
{
    serve::WorkloadSpec s;
    s.seed = seed;
    s.vocab = 1024;
    s.sessions = 1500;
    s.arrival.kind = serve::ArrivalSpec::Kind::Uniform;
    s.arrival.gap = 0;
    s.promptLen = {serve::LengthSpec::Kind::Uniform, 4, 2, 6, 4, 2};
    s.outputLen = {serve::LengthSpec::Kind::Uniform, 2, 1, 4, 2, 2};
    s.stopTokenCount = 1;
    s.stopPercent = 20;
    return s;
}

} // namespace perfbench
