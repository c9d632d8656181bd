/**
 * @file
 * The open-loop engine client behind the chat and batch workloads, the
 * engine-count collection, and the output checks every workload runs.
 */

#include <algorithm>
#include <queue>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "serve/service.hpp"
#include "util/random.hpp"

namespace perfbench {

using namespace olive;

namespace {

/** Record tokens that appeared since the last observation at @p t. */
void
observeTokens(ReqRec &q, const std::vector<int> &generated, double t)
{
    while (q.tokenTimes.size() < generated.size())
        q.tokenTimes.push_back(t);
    q.generated = generated;
}

/** Generate one request alone on a contiguous-cache engine. */
std::vector<int>
referenceStream(const eval::LmModel &lm, serve::ServeConfig cfg,
                const std::vector<int> &prompt, size_t maxNew,
                const std::vector<int> &stop)
{
    cfg.pagedCache = false;
    cfg.prefixSharing = false;
    cfg.retainPrefixes = false;
    cfg.poolBlocks = 0;
    cfg.speculate = false;
    serve::ServeEngine ref(lm, cfg);
    ref.submit(prompt, maxNew, stop);
    ref.runToCompletion();
    return ref.finished().at(0).generated;
}

} // namespace

void
driveEngine(serve::ServeEngine &engine, const serve::Workload &w,
            bool closed, RepResult &r)
{
    const std::vector<serve::WorkloadRequest> &trace = w.requests();
    std::vector<ReqRec> recs(trace.size());
    using Due = std::pair<double, size_t>;
    std::priority_queue<Due, std::vector<Due>, std::greater<>> dueQ;
    for (size_t i = 0; i < trace.size(); ++i)
        if (trace[i].turn == 0)
            dueQ.push({closed ? 0.0
                              : static_cast<double>(trace[i].submitStep) *
                                    kChatTickMs / 1e3,
                       i});

    const size_t maxActive = engine.config().maxActiveRequests;
    const serve::Service stats(engine); // never run: statsLine() only
    std::unordered_map<u64, size_t> byId;
    size_t outstanding = 0;
    size_t active = 0; //!< Active after the last step.
    size_t finishedCursor = 0;
    const Clock::time_point t0 = Clock::now();

    for (;;) {
        while (!dueQ.empty() && dueQ.top().first <= since(t0)) {
            const auto [due, i] = dueQ.top();
            dueQ.pop();
            const serve::WorkloadRequest &tr = trace[i];
            ReqRec &q = recs[i];
            q.traceId = tr.id;
            q.due = due;
            if (tr.turn > 0) {
                q.prompt = recs[i - 1].prompt;
                q.prompt.insert(q.prompt.end(),
                                recs[i - 1].generated.begin(),
                                recs[i - 1].generated.end());
            }
            q.prompt.insert(q.prompt.end(), tr.userTokens.begin(),
                            tr.userTokens.end());
            q.maxNew = tr.maxNew;
            q.stop = tr.stopTokens;
            q.submit = since(t0);
            const Clock::time_point ts = Clock::now();
            {
                Span s("engine.submit");
                q.engineId = engine.submit(q.prompt, q.maxNew, q.stop);
                s.request(q.engineId);
            }
            r.submitUs.push_back(since(ts) * 1e6);
            r.lagMs.push_back((q.submit - due) * 1e3);
            byId[q.engineId] = i;
            ++outstanding;
            ++r.attempted;
        }

        if (outstanding > 0) {
            // A gate stall: work was queued and batch slots were free
            // when the step began, yet the step admitted nothing.
            size_t pending = 0;
            {
                Span s("engine.pendingCount");
                pending = engine.pendingCount();
            }
            const bool couldAdmit = pending > 0 && active < maxActive;
            size_t admitted = 0;
            const Clock::time_point ts = Clock::now();
            {
                Span s("engine.step");
                engine.step();
            }
            r.stepMs.push_back(since(ts) * 1e3);
            ++r.steps;
            const double t = since(t0);

            std::vector<serve::ServeEngine::ActiveProgress> prog;
            {
                Span s("engine.progressSnapshot");
                prog = engine.progressSnapshot();
            }
            for (const auto &p : prog) {
                ReqRec &q = recs[byId.at(p.id)];
                if (q.admitted < 0) {
                    q.admitted = t;
                    ++admitted;
                }
                observeTokens(q, p.generated, t);
            }
            // The operator's stats read after every step: the stats
            // event line the session's stats op returns.
            {
                const Clock::time_point tm = Clock::now();
                {
                    Span s("service.statsLine");
                    (void)stats.statsLine();
                }
                r.statsMs.push_back(since(tm) * 1e3);
            }

            std::vector<serve::FinishedRequest> fin;
            {
                Span s("engine.finishedSnapshot");
                fin = engine.finishedSnapshot(finishedCursor);
            }
            finishedCursor += fin.size();
            for (const serve::FinishedRequest &f : fin) {
                const size_t i = byId.at(f.id);
                ReqRec &q = recs[i];
                if (q.admitted < 0) {
                    q.admitted = t;
                    ++admitted;
                }
                observeTokens(q, f.generated, t);
                q.finish = t;
                q.done = true;
                q.cancelled = f.cancelled;
                q.sharedRows = f.sharedPrefixRows;
                --outstanding;
                if (!closed && i + 1 < trace.size() &&
                    trace[i + 1].conversation == trace[i].conversation)
                    dueQ.push({t + static_cast<double>(
                                       trace[i + 1].gapSteps) *
                                       kChatTickMs / 1e3,
                               i + 1});
            }
            // Requests that ran in this step: still active, or retired.
            r.batchSizes.push_back(
                static_cast<double>(prog.size() + fin.size()));
            if (couldAdmit && admitted == 0)
                ++r.gateStallSteps;
            active = prog.size();
        } else if (!dueQ.empty()) {
            const double wait = dueQ.top().first - since(t0);
            if (wait > 0) {
                const Clock::time_point ts = Clock::now();
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(wait));
                r.idleS += since(ts);
            }
        } else {
            break;
        }
    }
    r.wallS = since(t0);
    for (ReqRec &q : recs)
        if (q.submit >= 0)
            r.reqs.push_back(std::move(q));
}

void
collectEngine(const serve::ServeEngine &engine, RepResult &r)
{
    r.metrics = engine.metricsSnapshot();
    if (const serve::BlockPool *pool = engine.blockPool())
        r.poolPeakBytes = pool->peakBytes();
    if (const serve::DecodedBlockCache *dc = engine.decodedCache()) {
        r.dcacheHits = dc->hits();
        r.dcacheMisses = dc->misses();
        r.dcacheEvictions = dc->evictions();
        r.dcacheRows = dc->decodedRows();
        r.dcachePeakBytes = dc->peakBytes();
    }
    // Every generated token after a request's first is fed back as one
    // decode row; everything else the engine processed was prefill.
    size_t decodeRows = 0;
    for (const serve::FinishedRequest &f : engine.finishedSnapshot(0))
        if (!f.generated.empty())
            decodeRows += f.generated.size() - 1;
    r.prefillRows = r.metrics.tokensProcessed - decodeRows;
}

void
checkRep(const eval::LmModel &lm, const serve::ServeEngine &engine,
         const serve::Workload &w, u64 seed, RepResult &r)
{
    std::unordered_map<u64, const ReqRec *> byTrace;
    for (const ReqRec &q : r.reqs) {
        byTrace[q.traceId] = &q;
        if (!q.done)
            r.fail("request " + std::to_string(q.traceId) +
                   " never finished");
    }

    // Seeded sample of whole conversations whose every turn finished
    // uncancelled; each is regenerated turn by turn, alone, with the
    // prompts rebuilt from the reference's own replies.
    const std::vector<serve::WorkloadRequest> &trace = w.requests();
    std::vector<size_t> starts;
    for (size_t i = 0; i < trace.size(); ++i) {
        if (trace[i].turn != 0)
            continue;
        bool whole = true;
        for (size_t j = i; j < trace.size() &&
                           trace[j].conversation == trace[i].conversation;
             ++j) {
            const auto it = byTrace.find(trace[j].id);
            whole = whole && it != byTrace.end() && it->second->done &&
                    !it->second->cancelled;
        }
        if (whole)
            starts.push_back(i);
    }
    Rng rng(mixSeed(seed, 0x5eed));
    const size_t sample = std::min<size_t>(3, starts.size());
    for (size_t k = 0; k < sample; ++k) {
        std::swap(starts[k],
                  starts[k + rng.uniformInt(starts.size() - k)]);
        std::vector<int> prompt;
        for (size_t j = starts[k];
             j < trace.size() &&
             trace[j].conversation == trace[starts[k]].conversation;
             ++j) {
            const ReqRec &q = *byTrace.at(trace[j].id);
            prompt.insert(prompt.end(), trace[j].userTokens.begin(),
                          trace[j].userTokens.end());
            const std::vector<int> ref = referenceStream(
                lm, engine.config(), prompt, trace[j].maxNew,
                trace[j].stopTokens);
            if (q.prompt != prompt || q.generated != ref)
                r.fail("request " + std::to_string(q.traceId) +
                       " stream differs from its alone reference");
            prompt.insert(prompt.end(), ref.begin(), ref.end());
        }
    }

    if (const serve::BlockPool *pool = engine.blockPool()) {
        pool->checkInvariants();
        if (pool->bytesInUse() != pool->retainedBytes())
            r.fail("pool holds " + std::to_string(pool->bytesInUse()) +
                   " bytes after the drain but retention accounts for " +
                   std::to_string(pool->retainedBytes()));
    }
    if (const serve::DecodedBlockCache *dc = engine.decodedCache())
        dc->checkInvariants();
}

} // namespace perfbench
