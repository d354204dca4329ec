/**
 * @file
 * Exactness tests for the sharded replay engine: set-partitioned
 * CacheSim shards and time-partitioned stack-distance passes must
 * merge to byte-identical statistics against the serial simulators,
 * for every organization and shard count - that is the whole contract
 * (cache/shard_sim.hh, core/shard_replay.hh).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <vector>

#include "cache/cache_sim.hh"
#include "cache/shard_sim.hh"
#include "cache/stack_dist.hh"
#include "cache/three_c.hh"
#include "common/rng.hh"
#include "core/experiment.hh"
#include "core/scene_layout.hh"
#include "core/shard_replay.hh"
#include "core/sweep.hh"
#include "trace/chunked_trace.hh"
#include "trace/trace_source.hh"

using namespace texcache;

namespace {

/** A reuse-heavy synthetic address stream: random walk over a bounded
 *  footprint plus periodic returns to a hot region, so every stack
 *  distance band and both hit paths get exercised. */
std::vector<Addr>
syntheticStream(uint32_t seed, size_t n, uint64_t footprint)
{
    Rng rng(seed);
    std::vector<Addr> a;
    a.reserve(n);
    uint64_t cur = 0;
    for (size_t i = 0; i < n; ++i) {
        if (rng.below(8) == 0)
            cur = rng.below(256) * 4; // hot region revisit
        else
            cur = (cur + rng.below(2048)) % footprint;
        a.push_back(cur);
    }
    return a;
}

void
expectStatsEq(const CacheStats &got, const CacheStats &want,
              const std::string &what)
{
    EXPECT_EQ(got.accesses, want.accesses) << what;
    EXPECT_EQ(got.misses, want.misses) << what;
    EXPECT_EQ(got.coldMisses, want.coldMisses) << what;
    EXPECT_EQ(got.evictions, want.evictions) << what;
}

/** Histogram equality modulo trailing zeros (merged histograms may be
 *  sized differently than the serial profiler's). */
void
expectHistEq(const std::vector<uint64_t> &got,
             const std::vector<uint64_t> &want)
{
    size_t n = std::max(got.size(), want.size());
    for (size_t d = 0; d < n; ++d) {
        uint64_t g = d < got.size() ? got[d] : 0;
        uint64_t w = d < want.size() ? want[d] : 0;
        EXPECT_EQ(g, w) << "histogram bin " << d;
    }
}

/** Run the time-partitioned pass over @p cuts-defined segments and
 *  merge. Segments are replayed in order, as the sharded runner's
 *  merge step does. */
ShardedStackProfile
segmentedProfile(const std::vector<Addr> &a, unsigned line_bytes,
                 const std::vector<size_t> &cuts)
{
    std::vector<StackShardPass> passes;
    size_t begin = 0;
    for (size_t cut : cuts) {
        StackSegmentPass pass(line_bytes);
        pass.accessRange(a.data() + begin, cut - begin);
        passes.push_back(pass.finish());
        begin = cut;
    }
    StackSegmentPass last(line_bytes);
    last.accessRange(a.data() + begin, a.size() - begin);
    passes.push_back(last.finish());
    return mergeStackShards(passes, line_bytes);
}

std::vector<size_t>
evenCuts(size_t n, unsigned segs)
{
    std::vector<size_t> cuts;
    for (unsigned s = 1; s < segs; ++s)
        cuts.push_back(n * s / segs);
    return cuts;
}

} // namespace

// ---- Set partitioning ----------------------------------------------

namespace {

/** Serial reference: one lone, unfiltered CacheSim per config. */
std::vector<CacheStats>
serialStats(const std::vector<Addr> &a,
            const std::vector<CacheConfig> &configs)
{
    std::vector<CacheStats> out;
    for (const CacheConfig &c : configs) {
        CacheSim sim(c);
        for (Addr addr : a)
            sim.access(addr);
        out.push_back(sim.stats());
    }
    return out;
}

/**
 * Scatter @p a in uneven time slices (@p cuts, ending at a.size()),
 * consume them per shard in stream order, as one window of the
 * sharded runner, and compare the merge against the serial replay for
 * every shard count - and the one-shard GroupSim replay too. Each
 * slice's buckets first scatter the whole stream and clear() it, so a
 * filter that kept its table across clear() would drop lines that are
 * not the most recent of their set in the slice's own past.
 */
void
expectShardedMatchesSerial(const std::vector<Addr> &a,
                           const std::vector<CacheConfig> &configs,
                           const std::vector<size_t> &cuts,
                           const std::string &what)
{
    std::vector<CacheStats> serial = serialStats(a, configs);
    for (unsigned shards : {1u, 2u, 3u, 4u, 6u, 8u}) {
        SetPartition part(configs, shards);
        std::vector<SetBuckets> slices;
        size_t begin = 0;
        for (size_t cut : cuts) {
            slices.emplace_back(part);
            slices.back().scatter(a.data(), a.size());
            slices.back().clear();
            slices.back().scatter(a.data() + begin, cut - begin);
            begin = cut;
        }
        std::vector<std::vector<CacheStats>> per;
        for (unsigned s = 0; s < shards; ++s) {
            SetShardSim shard(configs, s, part);
            for (size_t m = 0; m < configs.size(); ++m)
                shard.consume(m, slices.data(), slices.size());
            per.push_back(shard.stats());
        }
        std::vector<CacheStats> merged = mergeShardStats(per);
        ASSERT_EQ(merged.size(), configs.size());
        for (size_t i = 0; i < configs.size(); ++i)
            expectStatsEq(merged[i], serial[i],
                          what + " " + configs[i].str() + " @" +
                              std::to_string(shards) + " shards");
    }

    // One shard owns every set: the unscattered replay.
    GroupSim one(configs);
    one.accessRange(a.data(), a.size());
    std::vector<CacheStats> direct = one.stats();
    for (size_t i = 0; i < configs.size(); ++i)
        expectStatsEq(direct[i], serial[i],
                      what + " " + configs[i].str() + " direct");
}

} // namespace

TEST(SetShard, MergesExactlyAcrossConfigsAndShardCounts)
{
    std::vector<Addr> a = syntheticStream(7, 60000, 1 << 18);
    const std::vector<size_t> cuts = {a.size() / 7, a.size() / 2,
                                      a.size()};
    std::vector<CacheConfig> configs;
    Rng rng(11);
    const uint64_t sizes[] = {8 << 10, 16 << 10, 32 << 10, 64 << 10};
    const unsigned lines[] = {16, 32, 64};
    const unsigned assocs[] = {1, 2, 4, 8, CacheConfig::kFullyAssoc};
    for (int i = 0; i < 8; ++i)
        configs.push_back({sizes[rng.below(4)], lines[rng.below(3)],
                           assocs[rng.below(5)]});
    // Mixed line sizes for certain, and a member with fewer sets (4)
    // than the widest shard counts.
    configs.push_back({4 << 10, 16, 2});
    configs.push_back({8 << 10, 128, 1});
    configs.push_back({1 << 10, 64, 4});
    expectShardedMatchesSerial(a, configs, cuts, "random");

    // One line size, set counts 32 through 2048 (past the 1024-key
    // cap), with and without an FA member (one set: the filter keys
    // on the previous line only).
    std::vector<CacheConfig> ladder;
    for (uint64_t sets = 32; sets <= 2048; sets <<= 1)
        ladder.push_back({sets * 2 * 32, 32, 2});
    ladder.push_back({64 << 10, 32, 1});
    expectShardedMatchesSerial(a, ladder, cuts, "ladder");
    ladder.push_back({4 << 10, 32, CacheConfig::kFullyAssoc});
    expectShardedMatchesSerial(a, ladder, cuts, "ladder+fa");

    // Line X (0) is the most recent line of its set in the 1024-set
    // member but not in the 32-set one, where Y (line 32) came after
    // it: dropping the second X would leave the 32-set member's LRU
    // order wrong, so Z (line 64) would evict X instead of Y and the
    // final Y would hit where it must miss.
    const Addr X = 0, Y = 32 * 64, Z = 64 * 64;
    std::vector<Addr> hand = {X, Y, X, Z, Y, X, Z, Z, Y, Y, X};
    std::vector<CacheConfig> pair = {{4 << 10, 64, 2},
                                     {64 << 10, 64, 1}};
    expectShardedMatchesSerial(hand, pair, {hand.size()}, "hand-built");
    expectShardedMatchesSerial(hand, pair, {3, 5, hand.size()},
                               "hand-built sliced");
}

TEST(SetShard, EveryAccessLandsOnExactlyOneShard)
{
    std::vector<Addr> a = syntheticStream(3, 20000, 1 << 16);
    std::vector<CacheConfig> configs{
        {16 << 10, 32, 2}, {64 << 10, 64, 1}, {1 << 10, 64, 4}};
    for (unsigned shards : {2u, 3u, 4u, 8u}) {
        SetPartition part(configs, shards);
        ASSERT_EQ(part.groups(), 2u);
        SetBuckets slice(part);
        slice.scatter(a.data(), a.size());
        // Each access is either filtered (a hit in every member of its
        // group) or in exactly one bucket.
        for (unsigned g = 0; g < part.groups(); ++g) {
            size_t total = slice.filtered(g);
            for (unsigned s = 0; s < shards; ++s) {
                const Addr *b = slice.data(g, s);
                for (size_t i = 0; i < slice.size(g, s); ++i)
                    ASSERT_EQ(part.shardOf(g, b[i]), s);
                total += slice.size(g, s);
            }
            EXPECT_EQ(total, a.size()) << shards << " shards";
        }
        // Every set of every member has a single owner.
        for (size_t i = 0; i < configs.size(); ++i) {
            std::map<uint64_t, unsigned> owner;
            for (Addr addr : a) {
                uint64_t set =
                    addr / configs[i].lineBytes % configs[i].numSets();
                unsigned s = part.shardOf(part.groupOf(i), addr);
                EXPECT_EQ(owner.emplace(set, s).first->second, s)
                    << configs[i].str() << " set " << set;
            }
        }
        uint64_t total = 0;
        for (unsigned s = 0; s < shards; ++s) {
            SetShardSim shard(configs, s, part);
            shard.consume(0, &slice, 1);
            total += shard.stats()[0].accesses;
        }
        EXPECT_EQ(total, a.size()) << shards << " shards";
    }
}

// ---- Time partitioning ---------------------------------------------

TEST(StackShard, SegmentedProfileMatchesSerial)
{
    std::vector<Addr> a = syntheticStream(19, 50000, 1 << 17);
    StackDistProfiler serial(32);
    for (Addr addr : a)
        serial.access(addr);

    for (unsigned segs : {1u, 2u, 3u, 4u, 7u, 8u}) {
        ShardedStackProfile merged =
            segmentedProfile(a, 32, evenCuts(a.size(), segs));
        EXPECT_EQ(merged.accesses, serial.accesses()) << segs;
        EXPECT_EQ(merged.cold, serial.coldMisses()) << segs;
        expectHistEq(merged.histogram(), serial.histogram());
        for (uint64_t size = 32; size <= (1 << 18); size <<= 1)
            EXPECT_EQ(merged.misses(size), serial.misses(size))
                << segs << " segments @" << size << "B";
    }
}

TEST(StackShard, SkewedCutsMatchSerial)
{
    // Pathological partitions: a 1-access segment, an empty-adjacent
    // cut, and a giant tail must all reconcile exactly.
    std::vector<Addr> a = syntheticStream(23, 9000, 1 << 14);
    StackDistProfiler serial(64);
    for (Addr addr : a)
        serial.access(addr);
    ShardedStackProfile merged =
        segmentedProfile(a, 64, {1, 2, 17, 8000});
    EXPECT_EQ(merged.accesses, serial.accesses());
    EXPECT_EQ(merged.cold, serial.coldMisses());
    expectHistEq(merged.histogram(), serial.histogram());
}

TEST(StackShard, CyclicTopKPatternAcrossBoundaries)
{
    // <= 8 distinct lines cycles stay entirely inside the profiler's
    // top-K fast path; a boundary mid-cycle is the adversarial case
    // for finish()'s stack reconstruction (the map entries of top
    // lines are stale by design).
    std::vector<Addr> a;
    for (int rep = 0; rep < 400; ++rep)
        for (uint64_t line = 0; line < 7; ++line)
            a.push_back(line * 32);
    // Shift phase so segment boundaries never align with cycles.
    for (int rep = 0; rep < 100; ++rep)
        for (uint64_t line = 7; line-- > 2;)
            a.push_back(line * 32);

    StackDistProfiler serial(32);
    for (Addr addr : a)
        serial.access(addr);
    for (unsigned segs : {2u, 3u, 5u}) {
        ShardedStackProfile merged =
            segmentedProfile(a, 32, evenCuts(a.size(), segs));
        EXPECT_EQ(merged.cold, serial.coldMisses()) << segs;
        expectHistEq(merged.histogram(), serial.histogram());
    }
}

TEST(StackShard, OracleDistancesAreGlobal)
{
    LruStackOracle o;
    EXPECT_EQ(o.touch(1), 0u); // cold
    EXPECT_EQ(o.touch(2), 0u); // cold; stack: 2,1
    EXPECT_EQ(o.touch(1), 2u); // stack: 1,2
    EXPECT_EQ(o.touch(2), 2u); // stack: 2,1
    o.promote(1);              // stack: 1,2
    EXPECT_EQ(o.touch(2), 2u);
    EXPECT_EQ(o.touch(2), 1u);
    EXPECT_EQ(o.lines(), 2u);
}

TEST(StackShard, OraclePromoteOfAbsentLineDies)
{
    LruStackOracle o;
    o.touch(1);
    EXPECT_DEATH(o.promote(99), "absent");
}

// ---- Core runners over rendered traces -----------------------------

namespace {

struct Fixture
{
    SceneSpec spec = SceneSpec::quadScene(64, 128, 2.0f);
    RasterOrder order = RasterOrder::horizontal();
    TraceStore store;
    Scene scene = spec.build();
    SceneLayout layout;
    const TexelTrace &trace;

    Fixture()
        : layout(scene,
                 [] {
                     LayoutParams p;
                     p.kind = LayoutKind::Nonblocked;
                     return p;
                 }()),
          trace(store.trace(spec, order))
    {}
};

Fixture &
fix()
{
    static Fixture f;
    return f;
}

std::vector<CacheConfig>
testConfigs()
{
    return {{8 << 10, 32, 1},
            {8 << 10, 32, CacheConfig::kFullyAssoc},
            {16 << 10, 64, 4},
            {32 << 10, 32, 2},
            {32 << 10, 64, CacheConfig::kFullyAssoc}};
}

} // namespace

namespace {

/** Brute-force reference: one lone, unfiltered runCache per config. */
std::vector<CacheStats>
perConfigStats(const TexelTrace &trace, const SceneLayout &layout,
               const std::vector<CacheConfig> &configs)
{
    std::vector<CacheStats> out;
    for (const CacheConfig &c : configs)
        out.push_back(runCache(trace, layout, c));
    return out;
}

} // namespace

TEST(ShardReplay, SweepAndGroupMatchSerial)
{
    Fixture &f = fix();
    std::vector<CacheConfig> configs = testConfigs();
    // Mixed line sizes (16/32/64 B) in one call, and a member with
    // fewer sets (4) than the widest shard counts.
    configs.push_back({4 << 10, 16, 1});
    configs.push_back({1 << 10, 64, 4});
    // One line size with set counts 32 through 1024 beside an FA
    // member (the 32 B group above already holds FA and 32-set ones).
    std::vector<CacheConfig> ladder;
    for (uint64_t sets = 32; sets <= 1024; sets <<= 1)
        ladder.push_back({sets * 4 * 128, 128, 4});
    ladder.push_back({16 << 10, 128, CacheConfig::kFullyAssoc});
    const unsigned shardCounts[] = {1, 2, 3, 4, 6, 8};

    MemoryTraceSource mem(f.trace);
    for (const auto &family : {configs, ladder}) {
        std::vector<CacheStats> sweepSerial =
            runCacheSweep(f.trace, f.layout, family);
        std::vector<CacheStats> groupSerial =
            runCacheGroup(f.trace, f.layout, family);
        std::vector<CacheStats> lone =
            perConfigStats(f.trace, f.layout, family);
        for (size_t i = 0; i < family.size(); ++i)
            expectStatsEq(groupSerial[i], lone[i],
                          "serial group " + family[i].str());
        for (unsigned shards : shardCounts) {
            std::string at = " @" + std::to_string(shards) + " shards";
            std::vector<CacheStats> sweep =
                runCacheSweepSharded(mem, f.layout, family, shards);
            std::vector<CacheStats> group =
                runCacheGroupSharded(mem, f.layout, family, shards);
            for (size_t i = 0; i < family.size(); ++i) {
                expectStatsEq(sweep[i], sweepSerial[i],
                              "sweep " + family[i].str() + at);
                expectStatsEq(group[i], lone[i],
                              "group " + family[i].str() + at);
            }
        }
    }

    // A long small-chunk source: 24 frames in 512-record chunks (4224
    // chunks) give two scatter windows at 2 shards with frame-final
    // partial chunks inside them, and a chunk count that is no
    // multiple of any window. Only the set-associative members take
    // the scatter path, so only they replay the long stream, against
    // lone unfiltered replays. Reused slices must reset their filters
    // between windows.
    constexpr uint64_t kFrames = 24;
    TexelTrace frames;
    frames.reserve(f.trace.size() * kFrames);
    for (uint64_t i = 0; i < kFrames; ++i)
        frames.appendPacked(f.trace.packed().data(), f.trace.size());
    MemoryTraceSource chunked(f.trace, kFrames, 512);
    std::vector<CacheConfig> sa;
    for (const auto &family : {configs, ladder})
        for (const CacheConfig &c : family)
            if (c.assoc != CacheConfig::kFullyAssoc)
                sa.push_back(c);
    std::vector<CacheStats> longSerial =
        perConfigStats(frames, f.layout, sa);
    for (unsigned shards : shardCounts) {
        std::string at = " @" + std::to_string(shards) + " shards";
        EXPECT_NE(chunked.chunkCount() %
                      scatterWindow(shards, chunked.chunkRecords()),
                  0u)
            << at;
        std::vector<CacheStats> group =
            runCacheGroupSharded(chunked, f.layout, sa, shards);
        for (size_t i = 0; i < sa.size(); ++i)
            expectStatsEq(group[i], longSerial[i],
                          "long " + sa[i].str() + at);
        if (shards == 1)
            continue;
        // The sweep stats describe the whole call: per window, one
        // scatter run over the slices and one consume run over the
        // (shard, member) pairs.
        uint64_t window = scatterWindow(shards, chunked.chunkRecords());
        uint64_t windows = (chunked.chunkCount() + window - 1) / window;
        EXPECT_EQ(Sweep::lastRunStats().points,
                  windows * shards * (kScatterSlicesPerShard + sa.size()))
            << at;
    }
}

TEST(ShardReplay, SingleReplayDerivesFaEvictions)
{
    Fixture &f = fix();
    MemoryTraceSource mem(f.trace);
    // The FA single-replay path goes through the stack profiler and
    // *derives* evictions; serial runCache counts them in an explicit
    // FA LRU cache. They must agree - including the eviction count.
    CacheConfig fa{8 << 10, 32, CacheConfig::kFullyAssoc};
    CacheStats serial = runCache(f.trace, f.layout, fa);
    ASSERT_GT(serial.evictions, 0u);
    expectStatsEq(runCacheSharded(mem, f.layout, fa, 4), serial,
                  "fa single");
    CacheConfig sa{16 << 10, 32, 2};
    expectStatsEq(runCacheSharded(mem, f.layout, sa, 4),
                  runCache(f.trace, f.layout, sa), "sa single");
}

TEST(ShardReplay, ClassificationMatchesSerial)
{
    Fixture &f = fix();
    MemoryTraceSource mem(f.trace);
    CacheConfig c{16 << 10, 32, 2};
    MissBreakdown want = classifyCache(f.trace, f.layout, c);
    MissBreakdown got = classifySharded(mem, f.layout, c, 4);
    EXPECT_EQ(got.accesses, want.accesses);
    EXPECT_EQ(got.misses, want.misses);
    EXPECT_EQ(got.cold, want.cold);
    EXPECT_EQ(got.capacity, want.capacity);
    EXPECT_EQ(got.conflict, want.conflict);
}

TEST(ShardReplay, ProfileMatchesSerialAtAllSizes)
{
    Fixture &f = fix();
    MemoryTraceSource mem(f.trace);
    StackDistProfiler serial = profileTrace(f.trace, f.layout, 32);
    ShardedStackProfile merged =
        profileTraceSharded(mem, f.layout, 32, 4);
    EXPECT_EQ(merged.accesses, serial.accesses());
    EXPECT_EQ(merged.cold, serial.coldMisses());
    for (uint64_t size : cacheSizeSweep(1 << 10, 1 << 20))
        EXPECT_EQ(merged.misses(size), serial.misses(size))
            << size << "B";
}

TEST(ShardReplay, FaSweepMatchesProfiler)
{
    Fixture &f = fix();
    MemoryTraceSource mem(f.trace);
    std::vector<uint64_t> sizes = cacheSizeSweep(4 << 10, 256 << 10);
    std::vector<CacheStats> sharded =
        runFaSweepSharded(mem, f.layout, 32, sizes, 3);
    StackDistProfiler serial = profileTrace(f.trace, f.layout, 32);
    ASSERT_EQ(sharded.size(), sizes.size());
    for (size_t i = 0; i < sizes.size(); ++i) {
        EXPECT_EQ(sharded[i].accesses, serial.accesses());
        EXPECT_EQ(sharded[i].misses, serial.misses(sizes[i]));
        EXPECT_EQ(sharded[i].coldMisses, serial.coldMisses());
        // The collapsed sweep does not model evictions (multi_sim's
        // FaCapacitySweep contract) - sharded must match that too.
        EXPECT_EQ(sharded[i].evictions, 0u);
    }
}

TEST(ShardReplay, FileSourceMatchesMemorySource)
{
    Fixture &f = fix();
    std::string dir = ::testing::TempDir() + "texcache-shard-replay";
    std::filesystem::create_directories(dir);
    std::string path = f.store.spillTrace(f.spec, f.order, dir);

    // The spilled stream is byte-identical to the materialized trace.
    ChunkedTraceFile cf = ChunkedTraceFile::mustOpen(path);
    TexelTrace back = cf.readAll();
    ASSERT_EQ(back.size(), f.trace.size());
    EXPECT_TRUE(back.packed() == f.trace.packed());

    FileTraceSource file(path);
    MemoryTraceSource mem(f.trace);
    std::vector<CacheConfig> configs = testConfigs();
    std::vector<CacheStats> fromFile =
        runCacheGroupSharded(file, f.layout, configs, 3);
    std::vector<CacheStats> fromMem =
        runCacheGroupSharded(mem, f.layout, configs, 3);
    for (size_t i = 0; i < configs.size(); ++i)
        expectStatsEq(fromFile[i], fromMem[i], configs[i].str());
    std::filesystem::remove_all(dir);
}

TEST(ShardReplay, FrameReplicationMatchesConcatenation)
{
    Fixture &f = fix();
    TexelTrace three;
    three.reserve(f.trace.size() * 3);
    for (int i = 0; i < 3; ++i)
        three.appendPacked(f.trace.packed().data(), f.trace.size());

    MemoryTraceSource replicated(f.trace, 3);
    EXPECT_EQ(replicated.records(), three.size());
    std::vector<CacheConfig> configs = testConfigs();
    std::vector<CacheStats> serial =
        runCacheGroup(three, f.layout, configs);
    std::vector<CacheStats> sharded =
        runCacheGroupSharded(replicated, f.layout, configs, 4);
    for (size_t i = 0; i < configs.size(); ++i)
        expectStatsEq(sharded[i], serial[i], configs[i].str());

    // And the FA profile over the replicated stream.
    StackDistProfiler serialProf = profileTrace(three, f.layout, 32);
    ShardedStackProfile prof =
        profileTraceSharded(replicated, f.layout, 32, 4);
    EXPECT_EQ(prof.accesses, serialProf.accesses());
    EXPECT_EQ(prof.cold, serialProf.coldMisses());
    for (uint64_t size : cacheSizeSweep(1 << 10, 1 << 19))
        EXPECT_EQ(prof.misses(size), serialProf.misses(size));
}

TEST(ShardReplay, ResolveShardsDefaultsToThreadCount)
{
    EXPECT_EQ(resolveShards(0), Sweep::threadCount());
    EXPECT_EQ(resolveShards(5), 5u);
}
