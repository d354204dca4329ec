/**
 * @file
 * Sharded, streamed replay of ONE simulation across the sweep pool.
 *
 * The sweep engine (core/sweep.hh) parallelizes across independent
 * sweep points; these runners parallelize *inside* a single point by
 * sharding the simulation itself (cache/shard_sim.hh) and consuming
 * the trace as a stream of chunks (trace/trace_source.hh):
 *
 *  - set-associative configurations: the stream is taken one bounded
 *    window of chunks at a time. The workers first cut the window into
 *    contiguous time slices and decode, map and scatter each slice
 *    once into per-shard buckets keyed by set (cache/shard_sim.hh,
 *    SetPartition); then each shard's member simulators read its
 *    buckets in slice order. Every record is decoded and mapped once
 *    and every address simulated once, and the window (scatterWindow)
 *    bounds the buckets' memory;
 *  - fully associative profiles: the chunk range is cut into
 *    contiguous segments profiled independently and reconciled
 *    exactly.
 *
 * All runners return statistics bit-identical to their serial
 * counterparts in core/experiment.hh for every shard count (the
 * decompositions are exact, not approximate), and peak memory stays
 * bounded by the chunk window regardless of trace length - the
 * billion-access runs of bench/micro_shard.cc never materialize a
 * trace.
 *
 * @p shards selects the decomposition width; 0 means the sweep
 * thread count. Shard count and thread count are independent: 8
 * shards on a 1-thread pool produce the same bytes as 8 shards on 8
 * threads (tests/test_shard_sim.cc sweeps both).
 */

#ifndef TEXCACHE_CORE_SHARD_REPLAY_HH
#define TEXCACHE_CORE_SHARD_REPLAY_HH

#include <algorithm>
#include <vector>

#include "cache/shard_sim.hh"
#include "cache/three_c.hh"
#include "core/scene_layout.hh"
#include "trace/trace_source.hh"

namespace texcache {

/** @p shards, or the sweep thread count when @p shards is 0. */
unsigned resolveShards(unsigned shards);

/** Records one map-and-scatter slice covers: one default chunk. */
constexpr uint64_t kScatterSliceRecords = kDefaultChunkRecords;

/**
 * Slices per shard in one window of the set-partitioned pass. Each
 * window ends two Sweep::runs, and a run waits for its slowest worker:
 * on a shared VM whose vCPUs are descheduled for milliseconds at a
 * time, every run pays for a deschedule that hits it, so the count of
 * runs sets the slowdown. 16 slices (2^20 records, 8 MiB of buckets
 * per shard per line size) keep that to ~24 runs per 46M-record replay,
 * and give the pool many points per phase to balance.
 */
constexpr unsigned kScatterSlicesPerShard = 16;

/**
 * Chunks per map-and-scatter window of the set-partitioned pass:
 * kScatterSlicesPerShard slices of kScatterSliceRecords (at least one
 * chunk) per shard. The window bounds the buckets' memory to about
 * kScatterSlicesPerShard * kScatterSliceRecords addresses per shard
 * per line size, however long the stream.
 */
uint64_t scatterWindow(unsigned shards, uint32_t chunk_records);

/**
 * Stream chunks [@p chunk_begin, @p chunk_end) of @p src, map each
 * span of records through @p layout, and hand the resulting address
 * spans to @p fn(const Addr *, size_t). The address buffer is reused
 * across spans, so memory stays O(kMapChunk) however long the range.
 */
template <typename Fn>
void
replaySegment(const TraceSource &src, const SceneLayout &layout,
              uint64_t chunk_begin, uint64_t chunk_end, Fn &&fn)
{
    std::vector<Addr> buf;
    src.visitChunks(
        chunk_begin, chunk_end, [&](const uint64_t *recs, size_t n) {
            for (size_t i = 0; i < n; i += SceneLayout::kMapChunk) {
                size_t take =
                    std::min(SceneLayout::kMapChunk, n - i);
                layout.mapPacked(recs + i, take, buf);
                fn(static_cast<const Addr *>(buf.data()), buf.size());
            }
        });
}

/** Sharded profileTrace: exact whole-stream stack profile. */
ShardedStackProfile profileTraceSharded(const TraceSource &src,
                                        const SceneLayout &layout,
                                        unsigned line_bytes,
                                        unsigned shards = 0);

/** Sharded runCache: bit-identical to the serial single replay. */
CacheStats runCacheSharded(const TraceSource &src,
                           const SceneLayout &layout,
                           const CacheConfig &config,
                           unsigned shards = 0);

/** Sharded classifyCache: the same 3-C breakdown, with the FA twin
 *  served by the reconciled stack profile. */
MissBreakdown classifySharded(const TraceSource &src,
                              const SceneLayout &layout,
                              const CacheConfig &config,
                              unsigned shards = 0);

/** Sharded runFaSweep: per-capacity stats from one segmented pass. */
std::vector<CacheStats>
runFaSweepSharded(const TraceSource &src, const SceneLayout &layout,
                  unsigned line_bytes,
                  const std::vector<uint64_t> &sizes,
                  unsigned shards = 0);

/** Sharded runCacheGroup (any mix of configurations). */
std::vector<CacheStats>
runCacheGroupSharded(const TraceSource &src, const SceneLayout &layout,
                     const std::vector<CacheConfig> &configs,
                     unsigned shards = 0);

/**
 * Sharded runCacheSweep. The sharded engine already collapses every
 * set-associative configuration into one filtered pass and every
 * fully associative line size into one segmented stack pass, so this
 * is the same engine as runCacheGroupSharded except that fully
 * associative results carry evictions == 0, matching runCacheSweep's
 * collapsed passes (see CacheStats::evictions).
 */
std::vector<CacheStats>
runCacheSweepSharded(const TraceSource &src, const SceneLayout &layout,
                     const std::vector<CacheConfig> &configs,
                     unsigned shards = 0);

} // namespace texcache

#endif // TEXCACHE_CORE_SHARD_REPLAY_HH
