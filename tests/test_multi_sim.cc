/** @file
 * Correctness of the single-pass multi-configuration simulators
 * (cache/multi_sim.hh) against brute-force per-config CacheSim
 * replays: the sweep engine must be an optimization, never an
 * approximation. Covers synthetic random streams, the adversarial
 * stack patterns for the profiler's top-of-stack fast path, and the
 * four real benchmark scenes end to end through runFaSweep /
 * runCacheSweep.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cache/multi_sim.hh"
#include "core/experiment.hh"
#include "core/scene_layout.hh"

using namespace texcache;

namespace {

/** Texture-like synthetic stream: local walk with occasional jumps. */
std::vector<Addr>
syntheticStream(size_t n, uint32_t seed)
{
    std::vector<Addr> out;
    out.reserve(n);
    uint32_t x = seed;
    uint64_t cursor = 0;
    for (size_t i = 0; i < n; ++i) {
        x = x * 1664525u + 1013904223u;
        if ((x >> 24) < 8)
            cursor = (x >> 4) & 0xfffff;
        else
            cursor = (cursor + ((x >> 8) & 0xff)) & 0xfffff;
        out.push_back(cursor);
    }
    return out;
}

/** Brute-force reference: one full CacheSim replay of @p config. */
CacheStats
bruteForce(const std::vector<Addr> &stream, const CacheConfig &config)
{
    CacheSim sim(config);
    for (Addr a : stream)
        sim.access(a);
    return sim.stats();
}

/** Compare the counters both sides model; @p evictions when both
 *  have CacheSim semantics (the collapsed FA sweep reports none). */
void
expectSame(const CacheStats &got, const CacheStats &want,
           const std::string &what, bool evictions = false)
{
    EXPECT_EQ(got.accesses, want.accesses) << what;
    EXPECT_EQ(got.misses, want.misses) << what;
    EXPECT_EQ(got.coldMisses, want.coldMisses) << what;
    if (evictions) {
        EXPECT_EQ(got.evictions, want.evictions) << what;
    }
}

/** GroupSim over @p stream, fed in spans of @p span, against one
 *  brute-force CacheSim per config - evictions included. */
void
expectGroupMatchesBruteForce(const std::vector<Addr> &stream,
                             const std::vector<CacheConfig> &configs,
                             size_t span, const std::string &what)
{
    GroupSim group(configs);
    for (size_t i = 0; i < stream.size(); i += span)
        group.accessRange(stream.data() + i,
                          std::min(span, stream.size() - i));
    std::vector<CacheStats> got = group.stats();
    ASSERT_EQ(got.size(), configs.size());
    for (size_t i = 0; i < configs.size(); ++i)
        expectSame(got[i], bruteForce(stream, configs[i]),
                   what + " " + configs[i].str(), true);
}

const std::vector<uint64_t> kSizes = {2 << 10, 8 << 10, 32 << 10,
                                      128 << 10};
const unsigned kLines[] = {32, 128};

} // namespace

TEST(FaCapacitySweep, MatchesBruteForceOnRandomStream)
{
    std::vector<Addr> stream = syntheticStream(200000, 7);
    for (unsigned line : kLines) {
        FaCapacitySweep sweep(line, kSizes);
        sweep.accessRange(stream.data(), stream.size());
        std::vector<CacheStats> got = sweep.stats();
        ASSERT_EQ(got.size(), kSizes.size());
        for (size_t i = 0; i < kSizes.size(); ++i) {
            CacheStats want = bruteForce(
                stream, {kSizes[i], line, CacheConfig::kFullyAssoc});
            expectSame(got[i], want,
                       "line=" + std::to_string(line) +
                           " size=" + std::to_string(kSizes[i]));
        }
    }
}

TEST(FaCapacitySweep, HandlesUnsortedSizesAndTinyCaches)
{
    std::vector<Addr> stream = syntheticStream(50000, 99);
    std::vector<uint64_t> sizes = {64 << 10, 1 << 10, 4 << 10, 256};
    FaCapacitySweep sweep(64, sizes);
    sweep.accessRange(stream.data(), stream.size());
    std::vector<CacheStats> got = sweep.stats();
    for (size_t i = 0; i < sizes.size(); ++i) {
        CacheStats want =
            bruteForce(stream, {sizes[i], 64, CacheConfig::kFullyAssoc});
        expectSame(got[i], want, "size=" + std::to_string(sizes[i]));
    }
}

// Adversarial patterns for the profiler's top-of-stack fast path: tight
// cycles that live entirely inside the array, cycles one longer than
// it, and interleavings that repeatedly promote deep lines across the
// array boundary.
TEST(FaCapacitySweep, StackFastPathBoundaryPatterns)
{
    std::vector<std::vector<Addr>> streams;
    for (size_t cycle : {2u, 4u, 8u, 9u, 16u}) {
        std::vector<Addr> s;
        for (int rep = 0; rep < 200; ++rep)
            for (size_t i = 0; i < cycle; ++i)
                s.push_back(i * 64);
        streams.push_back(std::move(s));
    }
    {
        // Sawtooth: 0..n..0 touches every depth from 1 to n.
        std::vector<Addr> s;
        for (int rep = 0; rep < 50; ++rep) {
            for (int i = 0; i < 24; ++i)
                s.push_back(static_cast<Addr>(i) * 64);
            for (int i = 23; i >= 0; --i)
                s.push_back(static_cast<Addr>(i) * 64);
        }
        streams.push_back(std::move(s));
    }
    std::vector<uint64_t> sizes = {256, 512, 1024, 4096};
    for (size_t k = 0; k < streams.size(); ++k) {
        FaCapacitySweep sweep(64, sizes);
        sweep.accessRange(streams[k].data(), streams[k].size());
        std::vector<CacheStats> got = sweep.stats();
        for (size_t i = 0; i < sizes.size(); ++i) {
            CacheStats want = bruteForce(
                streams[k], {sizes[i], 64, CacheConfig::kFullyAssoc});
            expectSame(got[i], want,
                       "stream=" + std::to_string(k) +
                           " size=" + std::to_string(sizes[i]));
        }
    }
}

TEST(GroupSim, MatchesIndividualSims)
{
    std::vector<Addr> stream = syntheticStream(100000, 21);
    std::vector<CacheConfig> configs = {
        {16 << 10, 64, 1},
        {16 << 10, 64, 2},
        {16 << 10, 64, 4},
        {16 << 10, 64, CacheConfig::kFullyAssoc},
    };
    expectGroupMatchesBruteForce(stream, configs, stream.size(),
                                 "family");

    // One line size, set counts 32 through 1024 (past the filter's
    // 1024-key cap) and an FA member that narrows the filter to the
    // previous line; mixed with a second line size, in odd spans.
    std::vector<CacheConfig> ladder;
    for (uint64_t sets = 32; sets <= 2048; sets <<= 1)
        ladder.push_back({sets * 2 * 32, 32, 2});
    ladder.push_back({64 << 10, 32, 1});
    ladder.push_back({4 << 10, 32, CacheConfig::kFullyAssoc});
    expectGroupMatchesBruteForce(stream, ladder, 1000, "ladder");
    ladder.pop_back(); // without the FA member: a 32-key filter
    ladder.push_back({8 << 10, 128, 4});
    expectGroupMatchesBruteForce(stream, ladder, 777, "ladder+128B");

    // Line X is the most recent line of its set in the 1024-set member
    // but not in the 32-set one, where Y came after it: the filter
    // must keep the second X, or the 32-set member's LRU order goes
    // wrong and the final Y hits where it must miss.
    const Addr X = 0, Y = 32 * 64, Z = 64 * 64;
    std::vector<Addr> handBuilt = {X, Y, X, Z, Y, X, Z, Z, Y};
    std::vector<CacheConfig> pair = {{4 << 10, 64, 2},
                                     {64 << 10, 64, 1}};
    expectGroupMatchesBruteForce(handBuilt, pair, handBuilt.size(),
                                 "hand-built");
    expectGroupMatchesBruteForce(handBuilt, pair, 1, "hand-built/1");
}

// The end-to-end contract on the real workloads: for every benchmark
// scene, the collapsed sweep reproduces per-config runCache replays
// exactly - at three capacities and two line sizes, through the real
// trace -> layout mapping.
TEST(RunFaSweep, MatchesRunCacheOnAllFourScenes)
{
    TraceStore store;
    std::vector<uint64_t> sizes = {4 << 10, 16 << 10, 64 << 10};
    for (BenchScene s : allBenchScenes()) {
        RasterOrder order;
        order.dir = paperScanDirection(s);
        const TexelTrace &trace = store.trace(s, order);
        LayoutParams params;
        params.kind = LayoutKind::Nonblocked;
        SceneLayout layout(store.scene(s), params);
        for (unsigned line : {32u, 64u}) {
            std::vector<CacheStats> got =
                runFaSweep(trace, layout, line, sizes);
            ASSERT_EQ(got.size(), sizes.size());
            for (size_t i = 0; i < sizes.size(); ++i) {
                CacheStats want = runCache(
                    trace, layout,
                    {sizes[i], line, CacheConfig::kFullyAssoc});
                expectSame(got[i], want,
                           std::string(benchSceneName(s)) + " line=" +
                               std::to_string(line) +
                               " size=" + std::to_string(sizes[i]));
            }
        }
    }
}

// runCacheSweep routes a mixed FA + set-associative config list
// through the fewest passes; the result must align with the input
// order and match per-config replays bit for bit.
TEST(RunCacheSweep, MixedConfigListMatchesPerConfigReplays)
{
    TraceStore store;
    RasterOrder order;
    order.dir = paperScanDirection(BenchScene::Goblet);
    const TexelTrace &trace = store.trace(BenchScene::Goblet, order);
    LayoutParams params;
    params.kind = LayoutKind::Blocked;
    params.blockW = 4;
    params.blockH = 4;
    SceneLayout layout(store.scene(BenchScene::Goblet), params);

    std::vector<CacheConfig> configs = {
        {8 << 10, 64, CacheConfig::kFullyAssoc},
        {8 << 10, 64, 2},
        {32 << 10, 64, CacheConfig::kFullyAssoc},
        {8 << 10, 64, 1},
        {8 << 10, 32, CacheConfig::kFullyAssoc},
        {32 << 10, 64, 4},
    };
    std::vector<CacheStats> got = runCacheSweep(trace, layout, configs);
    ASSERT_EQ(got.size(), configs.size());
    for (size_t i = 0; i < configs.size(); ++i)
        expectSame(got[i], runCache(trace, layout, configs[i]),
                   configs[i].str(),
                   configs[i].assoc != CacheConfig::kFullyAssoc);
}
