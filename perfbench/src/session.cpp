/**
 * @file
 * The session workload's client: a closed-loop script of protocol ops
 * played into serve::Service through the session's own input and output
 * stream buffers, so the client needs no thread of its own.  Service::run
 * asks the input buffer for the next line only after it has finished the
 * previous op, which is exactly the closed loop; event lines reach the
 * client as the service flushes them.
 */

#include <istream>
#include <ostream>
#include <streambuf>
#include <string_view>
#include <unordered_map>

#include "bench.hpp"
#include "serve/service.hpp"
#include "util/random.hpp"

namespace perfbench {

using namespace olive;

namespace {

/** Most requests the script keeps in flight before it forces a step. */
constexpr size_t kMaxInflight = 12;

class Client
{
  public:
    Client(const serve::ServeEngine &engine, const serve::Workload &w,
           u64 seed, RepResult &r)
        : engine_(engine), trace_(w.requests()), rng_(seed), r_(r),
          t0_(Clock::now())
    {
        recs_.reserve(trace_.size());
    }

    /** The next op line at an op boundary; empty at end of input. */
    std::string nextOp()
    {
        const double t = since(t0_);
        endOp();

        admittedInOp_ = 0;
        opRequest_ = 0;
        std::string line = chooseOp();
        if (line.empty())
            return line;
        if (gTracer)
            opSpan_ = gTracer->begin(std::string("service.") + opKind_,
                                     opRequest_);
        opStart_ = since(t0_);
        r_.lagMs.push_back((opStart_ - t) * 1e3);
        return line;
    }

    /** One event line written by the service. */
    void onLine(const std::string &line)
    {
        const double t = since(t0_);
        ++r_.events;
        r_.outBytes += line.size() + 1;
        const auto doc = Json::parse(line);
        if (!doc || !doc->isObject() || !doc->contains("event")) {
            r_.fail("malformed event line: " + line);
            return;
        }
        const std::string &ev = doc->find("event")->asString();
        const auto rec = [&]() -> ReqRec * {
            const auto it = byId_.find(
                static_cast<u64>(doc->find("id")->asInt()));
            if (it == byId_.end()) {
                r_.fail("event for an unknown id: " + line);
                return nullptr;
            }
            return &recs_[it->second];
        };
        if (ev == "accepted") {
            const u64 id = static_cast<u64>(doc->find("id")->asInt());
            byId_[id] = recs_.size() - 1;
            recs_.back().engineId = id;
            recs_.back().ack = t;
            inflight_.push_back(id);
            if (opSpan_ >= 0)
                gTracer->setRequest(opSpan_, id);
        } else if (ev == "admitted") {
            ++admittedInOp_;
            if (ReqRec *q = rec())
                q->admitted = t;
        } else if (ev == "token") {
            if (ReqRec *q = rec()) {
                if (static_cast<size_t>(doc->find("index")->asInt()) !=
                    q->tokenTimes.size())
                    r_.fail("token event out of order: " + line);
                q->tokenTimes.push_back(t);
                q->generated.push_back(
                    static_cast<int>(doc->find("token")->asInt()));
            }
        } else if (ev == "done") {
            ReqRec *q = rec();
            if (q == nullptr)
                return;
            if (q->done)
                r_.fail("second done event: " + line);
            q->done = true;
            q->finish = t;
            q->cancelled = doc->find("reason")->asString() == "cancelled";
            std::vector<int> toks;
            for (const Json &e : doc->find("tokens")->elements())
                toks.push_back(static_cast<int>(e.asInt()));
            if (toks != q->generated)
                r_.fail("done tokens differ from the token events: " +
                        line);
            std::erase(inflight_, q->engineId);
        } else if (ev == "stats") {
            r_.statsMs.push_back((t - opStart_) * 1e3);
        } else if (ev == "error") {
            if (!invalidOp_)
                r_.fail("unexpected error event: " + line);
            ++errorsSeen_;
        } else if (ev == "shutdown") {
            sawShutdown_ = true;
        }
    }

    /** End-of-session checks; moves the request records into r. */
    void finish()
    {
        endOp();
        if (!sawShutdown_)
            r_.fail("session ended without a shutdown event");
        if (errorsSeen_ != invalidSent_)
            r_.fail(std::to_string(invalidSent_) + " invalid ops drew " +
                    std::to_string(errorsSeen_) + " error events");
        r_.attempted += recs_.size();
        for (ReqRec &q : recs_)
            if (q.engineId == 0)
                r_.fail("submit of request " + std::to_string(q.traceId) +
                        " was never accepted");
        r_.reqs = std::move(recs_);
    }

  private:
    /** Close the op in flight; after a step, sample the batch. */
    void endOp()
    {
        if (opSpan_ >= 0) {
            gTracer->end(opSpan_);
            opSpan_ = -1;
        }
        if (opKind_ == nullptr)
            return;
        ++r_.ops;
        if (std::string_view(opKind_) == "step") {
            // As in driveEngine: requests that ran, and gate stalls.
            r_.batchSizes.push_back(
                static_cast<double>(stepActive_ + admittedInOp_));
            if (stepPending_ > 0 &&
                stepActive_ < engine_.config().maxActiveRequests &&
                admittedInOp_ == 0)
                ++r_.gateStallSteps;
        }
        opKind_ = nullptr;
    }

    std::string chooseOp()
    {
        invalidOp_ = false;
        if (next_ < trace_.size()) {
            if (inflight_.size() >= kMaxInflight)
                return stepOp();
            const u64 u = rng_.uniformInt(100);
            if (u < 50)
                return submitOp();
            if (u < 78 || (u >= 88 && u < 93 && inflight_.empty()))
                return stepOp();
            if (u < 88) {
                opKind_ = "stats";
                return R"({"op":"stats"})";
            }
            if (u < 93) {
                opKind_ = "cancel";
                opRequest_ = inflight_[rng_.uniformInt(inflight_.size())];
                return Json::object({{"op", "cancel"}, {"id", opRequest_}})
                    .dump();
            }
            if (u < 95)
                return invalidOp();
            opKind_ = "drain";
            return R"({"op":"drain"})";
        }
        if (!inflight_.empty()) {
            opKind_ = "drain";
            return R"({"op":"drain"})";
        }
        if (!shutdownSent_) {
            shutdownSent_ = true;
            opKind_ = "shutdown";
            return R"({"op":"shutdown"})";
        }
        return "";
    }

    std::string stepOp()
    {
        {
            Span s("engine.activeCount");
            stepActive_ = engine_.activeCount();
        }
        {
            Span s("engine.pendingCount");
            stepPending_ = engine_.pendingCount();
        }
        opKind_ = "step";
        return R"({"op":"step","n":1})";
    }

    std::string submitOp()
    {
        opKind_ = "submit";
        const serve::WorkloadRequest &tr = trace_[next_++];
        ReqRec q;
        q.traceId = tr.id;
        q.prompt = tr.userTokens;
        q.maxNew = tr.maxNew;
        q.stop = tr.stopTokens;
        q.due = q.submit = since(t0_);
        recs_.push_back(std::move(q));
        Json prompt = Json::array(), stop = Json::array();
        for (int tok : tr.userTokens)
            prompt.push(Json(tok));
        for (int tok : tr.stopTokens)
            stop.push(Json(tok));
        return Json::object({{"op", "submit"},
                             {"prompt", std::move(prompt)},
                             {"max_new", tr.maxNew},
                             {"stop", std::move(stop)}})
            .dump();
    }

    /** Ops that must each draw exactly one error event. */
    std::string invalidOp()
    {
        opKind_ = "invalid";
        invalidOp_ = true;
        switch (invalidSent_++ % 3) {
        case 0:
            return R"({"op":"submit","prompt":[1,2)";
        case 1:
            return R"({"op":"frobnicate"})";
        default:
            return R"({"op":"submit","prompt":[1000000],"max_new":2})";
        }
    }

    const serve::ServeEngine &engine_;
    const std::vector<serve::WorkloadRequest> &trace_;
    Rng rng_;
    RepResult &r_;
    Clock::time_point t0_;
    std::vector<ReqRec> recs_;
    std::unordered_map<u64, size_t> byId_;
    std::vector<u64> inflight_; //!< Accepted, no done event yet.
    size_t next_ = 0;
    const char *opKind_ = nullptr;
    int opSpan_ = -1;
    double opStart_ = 0.0;
    size_t stepActive_ = 0, stepPending_ = 0; //!< Before a step op.
    size_t admittedInOp_ = 0; //!< Admitted events during the op.
    u64 opRequest_ = 0;       //!< Request the op names (cancel).
    bool invalidOp_ = false;
    size_t invalidSent_ = 0;
    size_t errorsSeen_ = 0;
    bool shutdownSent_ = false;
    bool sawShutdown_ = false;
};

/** Input side: each underflow is an op boundary of the closed loop. */
class InBuf : public std::streambuf
{
  public:
    explicit InBuf(Client &c) : c_(c) {}

  protected:
    int_type underflow() override
    {
        line_ = c_.nextOp();
        if (line_.empty())
            return traits_type::eof();
        line_.push_back('\n');
        setg(line_.data(), line_.data(), line_.data() + line_.size());
        return traits_type::to_int_type(line_[0]);
    }

  private:
    Client &c_;
    std::string line_;
};

/** Output side: complete lines go to the client at every flush. */
class OutBuf : public std::streambuf
{
  public:
    explicit OutBuf(Client &c) : c_(c) {}

  protected:
    int_type overflow(int_type ch) override
    {
        if (!traits_type::eq_int_type(ch, traits_type::eof()))
            pending_.push_back(traits_type::to_char_type(ch));
        return ch;
    }

    std::streamsize xsputn(const char *s, std::streamsize n) override
    {
        pending_.append(s, static_cast<size_t>(n));
        return n;
    }

    int sync() override
    {
        size_t from = 0;
        for (size_t nl; (nl = pending_.find('\n', from)) != std::string::npos;
             from = nl + 1)
            c_.onLine(pending_.substr(from, nl - from));
        pending_.erase(0, from);
        return 0;
    }

  private:
    Client &c_;
    std::string pending_;
};

} // namespace

void
driveSession(serve::ServeEngine &engine, const serve::Workload &w,
             u64 seed, RepResult &r)
{
    const double rss0 = currentRssMb();
    Client client(engine, w, mixSeed(seed, 0x0b5), r);
    InBuf inBuf(client);
    OutBuf outBuf(client);
    std::istream in(&inBuf);
    std::ostream out(&outBuf);
    serve::ServiceConfig cfg;
    cfg.autoDrain = false;
    serve::Service service(engine, cfg);
    const Clock::time_point t0 = Clock::now();
    service.run(in, out);
    out.flush();
    r.wallS = since(t0);
    client.finish();
    r.rssGrowthMb = currentRssMb() - rss0;
}

} // namespace perfbench
