#include "core/shard_replay.hh"

#include <map>
#include <numeric>
#include <utility>

#include "common/logging.hh"
#include "core/sweep.hh"
#include "perf/perf_counters.hh"

namespace texcache {

unsigned
resolveShards(unsigned shards)
{
    return shards ? shards : Sweep::threadCount();
}

namespace {

/** Chunk range of segment @p seg of @p segs (contiguous, exhaustive). */
std::pair<uint64_t, uint64_t>
segmentRange(uint64_t chunks, unsigned seg, unsigned segs)
{
    return {chunks * seg / segs, chunks * (seg + 1) / segs};
}

/** Segments for a time-partitioned pass: never more than chunks. */
unsigned
segmentCount(const TraceSource &src, unsigned shards)
{
    return static_cast<unsigned>(std::min<uint64_t>(
        shards, std::max<uint64_t>(1, src.chunkCount())));
}

/** Time-partitioned stack pass over the whole stream, reconciled. */
ShardedStackProfile
stackPass(const TraceSource &src, const SceneLayout &layout,
          unsigned line_bytes, unsigned shards)
{
    perf::addSimulatedAccesses(src.records());
    unsigned segs = segmentCount(src, shards);
    std::vector<unsigned> ids(segs);
    std::iota(ids.begin(), ids.end(), 0u);
    auto results = Sweep::run(ids, [&](unsigned seg) {
        auto [b, e] = segmentRange(src.chunkCount(), seg, segs);
        StackSegmentPass pass(line_bytes);
        replaySegment(src, layout, b, e,
                      [&](const Addr *a, size_t n) {
                          pass.accessRange(a, n);
                      });
        return pass.finish();
    });
    std::vector<StackShardPass> passes;
    passes.reserve(results.size());
    for (auto &r : results)
        passes.push_back(std::move(r.value));
    return mergeStackShards(passes, line_bytes);
}

/**
 * Set-partitioned pass, one window of chunks at a time: the workers
 * decode, map and scatter contiguous slices of the window, then every
 * (shard, member) simulation consumes its buckets in slice order. Two
 * Sweep::runs per window (rather than a barrier inside one) keep 8
 * shards on a 1-thread pool correct: the points of a run may execute
 * serially.
 */
std::vector<CacheStats>
setPass(const TraceSource &src, const SceneLayout &layout,
        const std::vector<CacheConfig> &configs, unsigned shards)
{
    perf::addSimulatedAccesses(src.records());
    SetPartition part(configs, shards);
    std::vector<SetShardSim> sims;
    sims.reserve(shards);
    for (unsigned s = 0; s < shards; ++s)
        sims.emplace_back(configs, s, part);
    if (shards == 1) {
        replaySegment(src, layout, 0, src.chunkCount(),
                      [&](const Addr *a, size_t n) {
                          sims[0].accessRange(a, n);
                      });
        return sims[0].stats();
    }

    const unsigned nslices = shards * kScatterSlicesPerShard;
    std::vector<SetBuckets> slices;
    slices.reserve(nslices);
    for (unsigned k = 0; k < nslices; ++k)
        slices.emplace_back(part);
    std::vector<unsigned> sliceIds(nslices);
    std::iota(sliceIds.begin(), sliceIds.end(), 0u);
    std::vector<unsigned> simIds(shards * configs.size());
    std::iota(simIds.begin(), simIds.end(), 0u);

    const uint64_t chunks = src.chunkCount();
    const uint64_t window = scatterWindow(shards, src.chunkRecords());
    for (uint64_t w = 0; w < chunks; w += window) {
        uint64_t n = std::min(window, chunks - w);
        Sweep::run(sliceIds, [&](unsigned k) {
            auto [b, e] = segmentRange(n, k, nslices);
            slices[k].clear();
            replaySegment(src, layout, w + b, w + e,
                          [&](const Addr *a, size_t m) {
                              slices[k].scatter(a, m);
                          });
            return true;
        });
        Sweep::run(simIds, [&](unsigned id) {
            sims[id / configs.size()].consume(id % configs.size(),
                                              slices.data(), nslices);
            return true;
        });
    }
    std::vector<std::vector<CacheStats>> per;
    per.reserve(shards);
    for (const SetShardSim &sim : sims)
        per.push_back(sim.stats());
    return mergeShardStats(per);
}

/**
 * Stats of a fully associative LRU cache of @p size_bytes derived
 * from the reconciled profile. A flush-free FA LRU's occupancy grows
 * by one per miss until full and then stays full, so its eviction
 * count is misses - min(capacity, misses); @p derive_evictions
 * selects between that (CacheSim semantics - runCache, runCacheGroup)
 * and zero (collapsed-pass semantics - runFaSweep, runCacheSweep).
 */
CacheStats
faStats(const ShardedStackProfile &prof, uint64_t size_bytes,
        unsigned line_bytes, bool derive_evictions)
{
    CacheStats s;
    s.accesses = prof.accesses;
    s.misses = prof.misses(size_bytes);
    s.coldMisses = prof.cold;
    if (derive_evictions) {
        uint64_t capacity = size_bytes / line_bytes;
        s.evictions = s.misses - std::min(capacity, s.misses);
    }
    return s;
}

/** Shared engine of the group/sweep runners (they differ only in FA
 *  eviction semantics). */
std::vector<CacheStats>
runConfigsSharded(const TraceSource &src, const SceneLayout &layout,
                  const std::vector<CacheConfig> &configs,
                  unsigned shards, bool fa_evictions)
{
    fatal_if(configs.empty(), "sharded sweep with no configs");

    std::vector<CacheConfig> sa;
    std::vector<size_t> sa_idx;
    std::map<unsigned, std::vector<size_t>> fa_by_line;
    for (size_t i = 0; i < configs.size(); ++i) {
        if (configs[i].assoc == CacheConfig::kFullyAssoc) {
            fa_by_line[configs[i].lineBytes].push_back(i);
        } else {
            sa.push_back(configs[i]);
            sa_idx.push_back(i);
        }
    }

    std::vector<CacheStats> out(configs.size());
    if (!sa.empty()) {
        std::vector<CacheStats> stats = setPass(src, layout, sa, shards);
        for (size_t k = 0; k < sa_idx.size(); ++k)
            out[sa_idx[k]] = stats[k];
    }
    for (const auto &[line, idx] : fa_by_line) {
        ShardedStackProfile prof =
            stackPass(src, layout, line, shards);
        for (size_t i : idx)
            out[i] = faStats(prof, configs[i].sizeBytes, line,
                             fa_evictions);
    }
    return out;
}

} // namespace

uint64_t
scatterWindow(unsigned shards, uint32_t chunk_records)
{
    return uint64_t(shards) * kScatterSlicesPerShard *
           std::max<uint64_t>(1, kScatterSliceRecords / chunk_records);
}

ShardedStackProfile
profileTraceSharded(const TraceSource &src, const SceneLayout &layout,
                    unsigned line_bytes, unsigned shards)
{
    return stackPass(src, layout, line_bytes, resolveShards(shards));
}

CacheStats
runCacheSharded(const TraceSource &src, const SceneLayout &layout,
                const CacheConfig &config, unsigned shards)
{
    shards = resolveShards(shards);
    if (config.assoc == CacheConfig::kFullyAssoc) {
        // Set partitioning degenerates for one set; the segmented
        // stack pass parallelizes instead (CacheSim semantics, so
        // evictions are derived).
        ShardedStackProfile prof =
            stackPass(src, layout, config.lineBytes, shards);
        return faStats(prof, config.sizeBytes, config.lineBytes, true);
    }
    return setPass(src, layout, {config}, shards)[0];
}

MissBreakdown
classifySharded(const TraceSource &src, const SceneLayout &layout,
                const CacheConfig &config, unsigned shards)
{
    shards = resolveShards(shards);
    CacheStats s = runCacheSharded(src, layout, config, shards);
    ShardedStackProfile prof =
        stackPass(src, layout, config.lineBytes, shards);
    uint64_t fa_misses = prof.misses(config.sizeBytes);

    // Mirrors MissClassifier::breakdown() - the FA twin's misses and
    // cold misses are exactly the profile's at this capacity.
    MissBreakdown b;
    b.accesses = s.accesses;
    b.misses = s.misses;
    b.cold = s.coldMisses;
    b.conflict = s.misses > fa_misses ? s.misses - fa_misses : 0;
    uint64_t fa_noncold = fa_misses - prof.cold;
    b.capacity = std::min(fa_noncold, b.misses - b.cold - b.conflict);
    return b;
}

std::vector<CacheStats>
runFaSweepSharded(const TraceSource &src, const SceneLayout &layout,
                  unsigned line_bytes,
                  const std::vector<uint64_t> &sizes, unsigned shards)
{
    fatal_if(sizes.empty(), "capacity sweep with no sizes");
    ShardedStackProfile prof =
        stackPass(src, layout, line_bytes, resolveShards(shards));
    std::vector<CacheStats> out;
    out.reserve(sizes.size());
    for (uint64_t size : sizes)
        out.push_back(faStats(prof, size, line_bytes, false));
    return out;
}

std::vector<CacheStats>
runCacheGroupSharded(const TraceSource &src, const SceneLayout &layout,
                     const std::vector<CacheConfig> &configs,
                     unsigned shards)
{
    return runConfigsSharded(src, layout, configs,
                             resolveShards(shards), true);
}

std::vector<CacheStats>
runCacheSweepSharded(const TraceSource &src, const SceneLayout &layout,
                     const std::vector<CacheConfig> &configs,
                     unsigned shards)
{
    return runConfigsSharded(src, layout, configs,
                             resolveShards(shards), false);
}

} // namespace texcache
