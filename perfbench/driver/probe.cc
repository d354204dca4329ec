/**
 * @file
 * Layer probes for the traced run: each public layer entry point is
 * called once on the workload's own input under a span, and the work
 * it did is recorded as a count beside it ("count.<span name>"), so
 * perfbench/ledger.py can turn span time into ns per unit of work.
 */

#include "bench.hh"
#include "core/shard_replay.hh"
#include "core/sweep.hh"

using namespace texcache;

namespace texbench {

namespace {

void
countWork(Result &out, const std::string &span, double n)
{
    out.values["count." + span] += n;
}

} // namespace

TexelTrace
sliceOf(const TexelTrace &trace, size_t records)
{
    TexelTrace s;
    size_t n = std::min(records, trace.size());
    s.appendPacked(trace.packed().data(), n);
    return s;
}

void
probeSerial(const ProbeInput &in, Result &out, uint64_t op)
{
    const TexelTrace &t = *in.slice;
    std::vector<Addr> buf;
    {
        Scope s("layout.mapRange", op);
        for (size_t i = 0; i < t.size(); i += SceneLayout::kMapChunk)
            in.layout->mapRange(
                t, i, std::min(t.size(), i + SceneLayout::kMapChunk),
                buf);
    }
    countWork(out, "layout.mapRange", double(t.size()));

    // Per-access costs are per address of the replayed stream (one
    // pass), whatever the number of configurations the pass drives.
    std::vector<CacheStats> fa;
    {
        Scope s("cache.runFaSweep", op);
        fa = runFaSweep(t, *in.layout, in.line, in.faSizes);
    }
    countWork(out, "cache.runFaSweep", double(fa.at(0).accesses));
    std::vector<CacheStats> sa;
    {
        Scope s("cache.runCacheGroup", op);
        sa = runCacheGroup(t, *in.layout, in.family);
    }
    countWork(out, "cache.runCacheGroup", double(sa.at(0).accesses));
    MissBreakdown mb;
    {
        Scope s("cache.classifyCache", op);
        mb = classifyCache(t, *in.layout, in.classify);
    }
    countWork(out, "cache.classifyCache", double(mb.accesses));
}

void
probeSharded(const ProbeInput &in, const TraceSource &src, Result &out,
             uint64_t op)
{
    // Default shard count against shards=1 on the same source.
    for (unsigned shards : {0u, 1u}) {
        std::string sfx = shards == 1 ? ".serial" : "";
        std::vector<CacheStats> fa, sa;
        {
            Scope s("core.runFaSweepSharded" + sfx, op);
            fa = runFaSweepSharded(src, *in.layout, in.line, in.faSizes,
                                   shards);
        }
        countWork(out, "core.runFaSweepSharded" + sfx,
                  double(fa.at(0).accesses));
        {
            Scope s("core.runCacheGroupSharded" + sfx, op);
            sa = runCacheGroupSharded(src, *in.layout, in.family,
                                      shards);
        }
        countWork(out, "core.runCacheGroupSharded" + sfx,
                  double(sa.at(0).accesses));
    }
}

void
probeDecode(const TraceSource &src, Result &out, uint64_t op)
{
    // The visitor reads every record and does nothing else: a chunk
    // is a mapping window, so a visitor that never touched the
    // records would time only the mmap calls.
    uint64_t seen = 0, fold = 0;
    {
        Scope s("trace.visitChunks", op);
        src.visitChunks(0, src.chunkCount(),
                        [&](const uint64_t *recs, size_t n) {
                            for (size_t i = 0; i < n; ++i)
                                fold ^= recs[i];
                            seen += n;
                        });
    }
    asm volatile("" : : "r"(fold)); // keep the reads
    countWork(out, "trace.visitChunks", double(seen));
    out.check("trace: visitChunks presented every record",
              seen == src.records());
}

std::string
probeSpill(const SceneSpec &spec, const RasterOrder &order,
           const std::string &dir, Result &out, uint64_t op)
{
    TraceStore store;
    std::string path;
    {
        Scope s("trace.spillTrace", op);
        path = store.spillTrace(spec, order, dir);
    }
    countWork(out, "trace.spillTrace", 1);
    out.values["count.trace_store.renders"] += double(store.renders());
    out.values["count.trace_store.lookups"] += 1;
    return path;
}

void
noteSweep(Result &out)
{
    if (!Spans::get().armed())
        return;
    SweepRunStats r = Sweep::lastRunStats();
    out.values["sweep.calls"] += 1;
    out.values["sweep.steals"] += double(r.steals);
    out.values["sweep.wall_ms"] += r.wallMillis;
    out.values["sweep.busy_ms"] += r.busyMillis;
    out.values["sweep.thread_ms"] += r.threads * r.wallMillis;
}

} // namespace texbench
