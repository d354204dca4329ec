/**
 * @file
 * The `figures` workload: the batch job every figure binary runs,
 * one cold pipeline per job. For each paper scene, in the paper's
 * scan order: build the scene, render its texel trace, lay it out
 * nonblocked and blocked 4x4, and replay it through one
 * runCacheSweep over the Fig 5.2 FA size sweep plus a
 * set-associative family. A job keeps nothing from the job before:
 * it gets scenes and traces from a TraceStore of its own, as a
 * figure binary does from its process-wide one.
 */

#include <unistd.h>

#include <memory>

#include "bench.hh"
#include "core/shard_replay.hh"
#include "pipeline/renderer.hh"
#include "scene/benchmarks.hh"

using namespace texcache;

namespace texbench {

namespace {

std::vector<uint64_t>
faSizes()
{
    return cacheSizeSweep(1 << 10, 512 << 10);
}

std::vector<CacheConfig>
saFamily()
{
    std::vector<CacheConfig> c;
    for (uint64_t size : {4u << 10, 16u << 10, 32u << 10})
        for (unsigned assoc : {1u, 2u, 4u})
            c.push_back({size, 32, assoc});
    return c;
}

std::vector<CacheConfig>
jobConfigs()
{
    std::vector<CacheConfig> c;
    for (uint64_t size : faSizes())
        c.push_back({size, 32, CacheConfig::kFullyAssoc});
    for (const CacheConfig &sa : saFamily())
        c.push_back(sa);
    return c;
}

std::vector<LayoutParams>
jobLayouts()
{
    LayoutParams nb;
    nb.kind = LayoutKind::Nonblocked;
    LayoutParams bl;
    bl.kind = LayoutKind::Blocked;
    bl.blockW = 4;
    bl.blockH = 4;
    return {nb, bl};
}

RasterOrder
paperOrder(BenchScene s)
{
    RasterOrder o;
    o.dir = paperScanDirection(s);
    return o;
}

/**
 * One job's scenes and traces, as a figure binary gets them:
 * TraceStore::scene and TraceStore::output on a store of the job's
 * own. Flight is the exception: a SceneSpec cannot carry the seeded
 * camera time, so Flight is built with makeFlightSceneAt and
 * rendered with the options TraceStore::output uses.
 */
class JobScenes
{
  public:
    explicit JobScenes(float flightTime) : flightTime_(flightTime) {}

    const Scene &
    scene(BenchScene bs, uint64_t op)
    {
        Scope s("scene.makeScene", op);
        if (bs != BenchScene::Flight)
            return store_.scene(bs);
        flight_ = makeFlightSceneAt(flightTime_);
        return flight_;
    }

    /** The trace of scene(bs), which must have been called first. */
    const RenderOutput &
    output(BenchScene bs, uint64_t op)
    {
        Scope s("pipeline.render", op);
        if (bs != BenchScene::Flight) {
            ++lookups_;
            return store_.output(bs, paperOrder(bs));
        }
        RenderOptions opts;
        opts.writeFramebuffer = false;
        flightOut_ = render(flight_, paperOrder(bs), opts);
        return flightOut_;
    }

    /** TraceStore::output calls so far, and the renders they made. */
    uint64_t lookups() const { return lookups_; }
    uint64_t renders() const { return store_.renders(); }

  private:
    TraceStore store_;
    float flightTime_;
    Scene flight_;
    RenderOutput flightOut_;
    uint64_t lookups_ = 0;
};

struct Job
{
    double wallS = 0.0;
    std::string digest;
    uint64_t accesses = 0;
    uint64_t fragments = 0;
    uint64_t records = 0;
};

Job
runJob(float flight_time, uint64_t op, Result &out)
{
    const std::vector<CacheConfig> configs = jobConfigs();
    Job job;
    Digest all;
    auto t0 = Clock::now();
    {
        Scope s("bench.job", op);
        JobScenes scenes(flight_time);
        for (BenchScene bs : allBenchScenes()) {
            const Scene &scene = scenes.scene(bs, op);
            const RenderOutput &ro = scenes.output(bs, op);
            job.fragments += ro.stats.fragments;
            job.records += ro.trace.size();
            for (const LayoutParams &p : jobLayouts()) {
                std::unique_ptr<SceneLayout> lay;
                {
                    Scope s("layout.SceneLayout", op);
                    lay = std::make_unique<SceneLayout>(scene, p);
                }
                std::vector<CacheStats> st;
                {
                    Scope s("core.runCacheSweep", op);
                    st = runCacheSweep(ro.trace, *lay, configs);
                }
                noteSweep(out);
                all.add(st);
                job.accesses += configAccesses(st);
            }
        }
        if (Spans::get().armed()) {
            out.values["count.trace_store.lookups"] +=
                double(scenes.lookups());
            out.values["count.trace_store.renders"] +=
                double(scenes.renders());
        }
    }
    job.wallS = secondsSince(t0);
    job.digest = all.hex();
    if (Spans::get().armed())
        out.values["count.pipeline.render"] += double(job.fragments);
    return job;
}

/**
 * After the timed phase: on a slice of every scene's trace, check
 * the serial sweep against the sharded one (an independent replay
 * path). In the traced run the layout and cache layers are also
 * timed on the nonblocked slice (probeSerial).
 */
void
checkAndProbe(const Args &args, float flight_time, uint64_t op,
              Result &out)
{
    const std::vector<CacheConfig> configs = jobConfigs();
    JobScenes scenes(flight_time);
    for (BenchScene bs : allBenchScenes()) {
        const Scene &scene = scenes.scene(bs, op);
        TexelTrace slice =
            sliceOf(scenes.output(bs, op).trace, size_t(1) << 20);
        MemoryTraceSource mem(slice);
        for (const LayoutParams &p : jobLayouts()) {
            SceneLayout lay(scene, p);
            std::vector<CacheStats> serial =
                runCacheSweep(slice, lay, configs);
            std::vector<CacheStats> sharded =
                runCacheSweepSharded(mem, lay, configs);
            Digest a, b;
            a.add(serial);
            b.add(sharded);
            out.check(std::string("figures ") + benchSceneName(bs) +
                          "/" + layoutKindName(p.kind) +
                          ": sharded == serial on a 2^20-record slice",
                      a.hex() == b.hex());
            if (!args.trace || p.kind != LayoutKind::Nonblocked)
                continue;
            ProbeInput in;
            in.layout = &lay;
            in.slice = &slice;
            in.line = 32;
            in.faSizes = faSizes();
            in.family = saFamily();
            in.classify = {16 << 10, 32, 2};
            Spans::get().arm(true);
            probeSerial(in, out, op);
            Spans::get().arm(false);
        }
    }
}

} // namespace

int
runFigures(const Args &args, Result &out)
{
    // The seed picks Flight's camera time: frames 0-7 of its path.
    const float flightTime = float(args.seed % 8);
    std::vector<std::string> digests;
    uint64_t op = 0;

    // Set-up sample: the first job of a fresh process, which is what a
    // one-shot figure binary pays.
    Job first = runJob(flightTime, ++op, out);
    out.samples["setup_s"].push_back(first.wallS);
    // Peak RSS is also the cold process's: in a long-lived process it
    // grows with whatever earlier jobs left in the allocator's arenas.
    out.samples["peak_rss_mib"].push_back(peakRssMib(getpid()));
    digests.push_back(first.digest);
    out.values["config_accesses_per_job"] = double(first.accesses);
    out.values["pipeline.fragments"] = double(first.fragments);
    out.values["pipeline.records"] = double(first.records);

    if (!args.oneshot) {
        // Timed phase: warm jobs until the run's seconds are spent. In
        // the traced run every other job is traced, so the same run
        // also yields the untraced wall the overhead is taken against.
        auto start = Clock::now();
        for (unsigned k = 0; k < 2 || secondsSince(start) < args.seconds;
             ++k) {
            bool traced = args.trace && k % 2 == 1;
            Spans::get().arm(traced);
            Job j = runJob(flightTime, ++op, out);
            Spans::get().arm(false);
            out.samples[traced ? "job_s.traced" : "job_s"].push_back(
                j.wallS);
            out.samples["req_ms"].push_back(1e3 * j.wallS);
            out.samples["maccess_per_s"].push_back(
                double(j.accesses) / j.wallS / 1e6);
            digests.push_back(j.digest);
        }
        out.values["ops_per_s"] =
            double(out.samples["req_ms"].size()) / secondsSince(start);

        checkAndProbe(args, flightTime, ++op, out);
    }

    out.strings["job_digests"] = joinDigests(digests);
    return 0;
}

} // namespace texbench
