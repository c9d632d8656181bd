/**
 * @file
 * Isolated layer probes for the traced run.  The codec, model and GEMM
 * times are measured here, on rows and shapes taken from the workload,
 * rather than in situ: the library exposes no per-call hooks inside an
 * engine step.
 */

#include <algorithm>

#include "bench.hpp"
#include "serve/kv_cache.hpp"
#include "tensor/gemm.hpp"
#include "util/random.hpp"

namespace perfbench {

using namespace olive;

namespace {

/** Minimum wall time each probe loop runs, in seconds. */
constexpr double kProbeS = 0.03;

/** Median seconds per call of @p fn, called until kProbeS elapses. */
template <typename Fn>
double
timeCalls(const char *span, Fn fn)
{
    std::vector<double> secs;
    const Clock::time_point start = Clock::now();
    while (secs.size() < 5 || since(start) < kProbeS) {
        Span s(span);
        const Clock::time_point t0 = Clock::now();
        fn();
        secs.push_back(since(t0));
    }
    return median(secs);
}

Tensor
randomRows(size_t m, size_t n, u64 seed)
{
    Rng rng(seed);
    Tensor t({m, n});
    for (float &x : t.data())
        x = static_cast<float>(rng.gaussian());
    return t;
}

} // namespace

ProbeResult
runProbes(const eval::LmModel &lm, const serve::KvScheme &scheme,
          const serve::Workload &w, size_t chunkRows, size_t ctxRows)
{
    ProbeResult p;
    const nn::Transformer &tf = lm.backbone;
    const nn::Layer &l0 = tf.layers.at(0);
    const size_t d = tf.dModel;

    // Codec: layer-0 K and V rows of the workload's own prompts.
    std::vector<int> tokens;
    for (const serve::WorkloadRequest &r : w.requests()) {
        tokens.insert(tokens.end(), r.userTokens.begin(),
                      r.userTokens.end());
        if (tokens.size() >= 256)
            break;
    }
    // Repeat the prompts' tokens until the chunk and context probes fit.
    const size_t have = tokens.size();
    const size_t want = std::max<size_t>(64, chunkRows + ctxRows + 16);
    for (size_t i = 0; tokens.size() < want; ++i) {
        const int t = tokens[i % have];
        tokens.push_back(t);
    }
    const size_t nrows = std::min<size_t>(tokens.size(), 256);
    const Tensor x =
        lm.embed(std::span<const int>(tokens.data(), nrows));
    const Tensor k = l0.k.forward(x), v = l0.v.forward(x);
    std::vector<std::span<const float>> rows;
    for (size_t i = 0; i < nrows; ++i) {
        rows.push_back(k.row(i));
        rows.push_back(v.row(i));
    }
    std::vector<u8> bytes;
    std::vector<serve::KvRowMeta> meta(rows.size());
    p.encodeUsPerRow =
        timeCalls("codec.encodeRow",
                  [&] {
                      bytes.clear();
                      for (size_t i = 0; i < rows.size(); ++i)
                          scheme.encodeRow(rows[i], bytes, meta[i]);
                  }) *
        1e6 / static_cast<double>(rows.size());
    const size_t rb = scheme.rowBytes(d);
    std::vector<float> out(d);
    p.decodeUsPerRow =
        timeCalls("codec.decodeRow",
                  [&] {
                      for (size_t i = 0; i < rows.size(); ++i)
                          scheme.decodeRow(
                              std::span<const u8>(bytes.data() + i * rb, rb),
                              meta[i], out);
                  }) *
        1e6 / static_cast<double>(rows.size());

    // Model: one forwardChunk of the mean chunk from an empty cache, and
    // forwardStep at the mean context length.
    const Tensor chunk =
        lm.embed(std::span<const int>(tokens.data(), chunkRows));
    p.chunkMs = timeCalls("model.forwardChunk", [&] {
                    serve::DecodeState st =
                        serve::makeDecodeState(tf, scheme);
                    tf.forwardChunk(chunk, st);
                }) *
                1e3;
    serve::DecodeState st = serve::makeDecodeState(tf, scheme);
    tf.forwardChunk(lm.embed(std::span<const int>(tokens.data(), ctxRows)),
                    st);
    size_t pos = ctxRows;
    p.stepMs = timeCalls("model.forwardStep", [&] {
                   tf.forwardStep(
                       lm.embed(std::span<const int>(&tokens[pos], 1)), st);
                   pos = std::min(pos + 1, tokens.size() - 1);
               }) *
               1e3;

    const double dd = static_cast<double>(d);
    const double dff = static_cast<double>(tf.dFf);
    const double layers = static_cast<double>(tf.layers.size());
    p.flopsPerToken =
        layers * (2.0 * (4.0 * dd * dd + 2.0 * dd * dff) +
                  4.0 * static_cast<double>(ctxRows) * dd) +
        2.0 * dd * static_cast<double>(lm.vocab);

    // GEMM at the projection shapes, with the chunk as the row count.
    const Tensor ad = randomRows(chunkRows, d, 11);
    const Tensor aff = randomRows(chunkRows, tf.dFf, 12);
    const double flops =
        2.0 * static_cast<double>(chunkRows) * (dd * dd + 2.0 * dd * dff);
    const double secs = timeCalls("gemm.linearForward", [&] {
        linearForward(ad, l0.q.w, l0.q.b);
        linearForward(ad, l0.ff1.w, l0.ff1.b);
        linearForward(aff, l0.ff2.w, l0.ff2.b);
    });
    p.gemmGflops = flops / secs / 1e9;
    return p;
}

} // namespace perfbench
