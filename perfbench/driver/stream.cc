/**
 * @file
 * The `stream` workload: sharded replay of a spilled trace. Set-up
 * renders one large quad scene through TraceStore::spillTrace into a
 * private, emptied directory (emptied before every sample, or
 * spillTrace would reuse the file and time a disk hit). Each job then
 * replays the .ctrace, two frames long, through FileTraceSource with
 * runFaSweepSharded plus a set-associative runCacheGroupSharded at
 * the default shard count. Steady state pays almost no scene build
 * or render: this is the decode, mapPacked and sharded-simulation
 * side of the benchmark.
 */

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>

#include "bench.hh"
#include "core/shard_replay.hh"
#include "pipeline/renderer.hh"

using namespace texcache;

namespace texbench {

namespace {

/**
 * ~23M records per frame, two frames per replay job: ~2.4 s on 4
 * cores, so a run holds fewer than 11 jobs and req_tail_ms is the
 * slowest of them, not a percentile below the median.
 */
SceneSpec
streamSpec()
{
    return SceneSpec::quadScene(1024, 2048, 4.0f);
}

constexpr uint64_t kFrames = 2;
constexpr unsigned kLine = 64;
constexpr unsigned kSetupSamples = 5;

std::vector<uint64_t>
faSizes()
{
    return cacheSizeSweep(16 << 10, 8 << 20);
}

std::vector<CacheConfig>
saFamily()
{
    std::vector<CacheConfig> c;
    for (uint64_t size : {32u << 10, 128u << 10})
        for (unsigned assoc : {1u, 2u, 4u})
            c.push_back({size, kLine, assoc});
    return c;
}

LayoutParams
streamLayout()
{
    LayoutParams p;
    p.kind = LayoutKind::Nonblocked;
    return p;
}

/** Counts what the renderer emits and keeps none of it. */
class CountingSink : public TraceSink
{
  public:
    void append(const uint64_t *, size_t n) override { records += n; }
    uint64_t records = 0;
};

struct Job
{
    double wallS = 0.0;
    std::string digest;
    uint64_t accesses = 0;
};

Job
runJob(const std::string &path, const SceneLayout &layout, uint64_t op,
       Result &out)
{
    Job job;
    Digest d;
    auto t0 = Clock::now();
    {
        Scope s("bench.job", op);
        FileTraceSource src(path, kFrames);
        std::vector<CacheStats> fa, sa;
        {
            Scope s("core.runFaSweepSharded", op);
            fa = runFaSweepSharded(src, layout, kLine, faSizes());
        }
        noteSweep(out);
        {
            Scope s("core.runCacheGroupSharded", op);
            sa = runCacheGroupSharded(src, layout, saFamily());
        }
        noteSweep(out);
        if (Spans::get().armed()) {
            out.values["count.core.runFaSweepSharded"] +=
                double(fa.at(0).accesses);
            out.values["count.core.runCacheGroupSharded"] +=
                double(sa.at(0).accesses);
        }
        d.add(fa);
        d.add(sa);
        job.accesses = configAccesses(fa) + configAccesses(sa);
    }
    job.wallS = secondsSince(t0);
    job.digest = d.hex();
    return job;
}

void
syncFile(const std::string &path)
{
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd >= 0) {
        ::fsync(fd);
        ::close(fd);
    }
}

/** Records [0, n) of @p src as an in-memory trace. */
TexelTrace
headOf(const TraceSource &src, uint64_t n)
{
    TexelTrace t;
    src.visitChunks(0, src.chunkCount(),
                    [&](const uint64_t *recs, size_t k) {
                        if (t.size() < n)
                            t.appendPacked(
                                recs, std::min<uint64_t>(k, n - t.size()));
                    });
    return t;
}

void
checkAndProbe(const Args &args, const Scene &scene,
              const std::string &path, const SceneLayout &layout,
              uint64_t op, Result &out)
{
    FileTraceSource frame(path);
    TexelTrace slice = headOf(frame, uint64_t(1) << 21);
    MemoryTraceSource mem(slice);
    Digest serial, sharded;
    serial.add(runFaSweep(slice, layout, kLine, faSizes()));
    serial.add(runCacheGroup(slice, layout, saFamily()));
    sharded.add(runFaSweepSharded(mem, layout, kLine, faSizes()));
    sharded.add(runCacheGroupSharded(mem, layout, saFamily()));
    out.check("stream: sharded == serial on a 2^21-record slice",
              serial.hex() == sharded.hex());
    if (!args.trace)
        return;

    CountingSink sink;
    RenderOutput ro;
    {
        Scope s("pipeline.render", op);
        RenderOptions opts;
        opts.writeFramebuffer = false;
        opts.countRepetition = false;
        opts.traceSink = &sink;
        ro = render(scene, RasterOrder::horizontal(), opts);
    }
    out.values["count.pipeline.render"] += double(ro.stats.fragments);
    out.values["pipeline.fragments"] = double(ro.stats.fragments);
    out.values["pipeline.records"] = double(sink.records);
    out.check("stream: spilled file holds every rendered record",
              sink.records == frame.records());

    probeDecode(frame, out, op);
    {
        // mapPacked as the streamed replay calls it, per chunk.
        std::vector<Addr> buf;
        uint64_t n = 0;
        Scope s("bench.visitChunks", op);
        frame.visitChunks(0, frame.chunkCount(),
                          [&](const uint64_t *recs, size_t k) {
                              Scope m("layout.mapPacked", op);
                              layout.mapPacked(recs, k, buf);
                              n += k;
                          });
        out.values["count.layout.mapPacked"] += double(n);
    }

    ProbeInput in;
    in.layout = &layout;
    in.slice = &slice;
    in.line = kLine;
    in.faSizes = faSizes();
    in.family = saFamily();
    in.classify = {32 << 10, kLine, 2};
    probeSerial(in, out, op);
    probeSharded(in, frame, out, op);
}

} // namespace

int
runStream(const Args &args, Result &out)
{
    const std::string dir = args.workDir + "/spill";
    const SceneSpec spec = streamSpec();
    std::string path;
    uint64_t op = 0;

    // Set-up: scene + render + spill, from an empty directory each
    // time, on a fresh TraceStore.
    Spans::get().arm(args.trace);
    for (unsigned i = 0; i < kSetupSamples; ++i) {
        std::filesystem::remove_all(dir);
        auto t0 = Clock::now();
        path = probeSpill(spec, RasterOrder::horizontal(), dir, out, ++op);
        out.samples["setup_s"].push_back(secondsSince(t0));
        // Untimed: write the file back now, so neither the next sample
        // nor a replay job shares the disk with its writeback.
        syncFile(path);
    }
    Scene scene;
    {
        Scope s("scene.makeScene", op);
        scene = spec.build();
    }
    std::unique_ptr<SceneLayout> layout;
    {
        Scope s("layout.SceneLayout", op);
        layout = std::make_unique<SceneLayout>(scene, streamLayout());
    }
    Spans::get().arm(false);

    // One untimed job first: the first replay of a process pays page
    // faults on the mapping and allocator growth the rest do not.
    std::vector<std::string> digests{
        runJob(path, *layout, ++op, out).digest};
    auto start = Clock::now();
    for (unsigned k = 0; k < 2 || secondsSince(start) < args.seconds;
         ++k) {
        bool traced = args.trace && k % 2 == 1;
        Spans::get().arm(traced);
        resetPeakRss();
        Job j = runJob(path, *layout, ++op, out);
        Spans::get().arm(false);
        out.samples["peak_rss_mib"].push_back(peakRssMib(getpid()));
        out.samples[traced ? "job_s.traced" : "job_s"].push_back(j.wallS);
        out.samples["req_ms"].push_back(1e3 * j.wallS);
        out.samples["maccess_per_s"].push_back(double(j.accesses) /
                                               j.wallS / 1e6);
        out.values["config_accesses_per_job"] = double(j.accesses);
        digests.push_back(j.digest);
    }
    out.values["ops_per_s"] =
        double(out.samples["req_ms"].size()) / secondsSince(start);

    Spans::get().arm(args.trace);
    checkAndProbe(args, scene, path, *layout, ++op, out);
    Spans::get().arm(false);

    out.strings["job_digests"] = joinDigests(digests);
    std::filesystem::remove_all(dir);
    return 0;
}

} // namespace texbench
