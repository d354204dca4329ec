/** @file
 * The sweep runner's contract (core/sweep.hh): parallel execution
 * returns results bit-identical to serial execution and in identical
 * (point) order, regardless of thread count, load skew, or which
 * worker stole what; exceptions propagate; per-point wall-clock is
 * captured.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "cache/cache_sim.hh"
#include "core/sweep.hh"

using namespace texcache;

namespace {

/** Scoped TEXCACHE_THREADS override (restores the prior value). */
class ThreadEnv
{
  public:
    explicit ThreadEnv(const char *value)
    {
        const char *old = std::getenv("TEXCACHE_THREADS");
        had_ = old != nullptr;
        if (old)
            saved_ = old;
        if (value)
            setenv("TEXCACHE_THREADS", value, 1);
        else
            unsetenv("TEXCACHE_THREADS");
    }
    ~ThreadEnv()
    {
        if (had_)
            setenv("TEXCACHE_THREADS", saved_.c_str(), 1);
        else
            unsetenv("TEXCACHE_THREADS");
    }

  private:
    bool had_;
    std::string saved_;
};

/** Deterministic per-point work with a heavily skewed cost. */
uint64_t
skewedWork(size_t i)
{
    // Point cost varies by ~3 orders of magnitude so slices are
    // unbalanced and stealing must happen for the pool to finish
    // anywhere near evenly.
    uint64_t iters = 100 + (i * 2654435761u) % 100000;
    uint64_t h = 1469598103934665603ull ^ i;
    for (uint64_t k = 0; k < iters; ++k) {
        h ^= k;
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace

TEST(Sweep, ThreadCountHonorsEnvOverride)
{
    {
        ThreadEnv env("3");
        EXPECT_EQ(Sweep::threadCount(), 3u);
    }
    {
        ThreadEnv env("1");
        EXPECT_EQ(Sweep::threadCount(), 1u);
    }
    {
        ThreadEnv env(nullptr);
        EXPECT_GE(Sweep::threadCount(), 1u);
    }
}

TEST(SweepDeathTest, RejectsInvalidThreadCounts)
{
    // TEXCACHE_THREADS is user configuration: zero, negative or
    // non-numeric values are a fatal() error, not a silent fallback.
    for (const char *bad : {"0", "-2", "abc", "", "3x"}) {
        ThreadEnv env(bad);
        EXPECT_EXIT(Sweep::threadCount(),
                    testing::ExitedWithCode(1), "TEXCACHE_THREADS")
            << "value '" << bad << "'";
    }
}

TEST(Sweep, RecordsRunStats)
{
    ThreadEnv env("2");
    std::vector<size_t> points(64);
    std::iota(points.begin(), points.end(), 0);
    Sweep::run(points, skewedWork);
    SweepRunStats s = Sweep::lastRunStats();
    EXPECT_EQ(s.points, 64u);
    EXPECT_EQ(s.threads, 2u);
    EXPECT_GT(s.wallMillis, 0.0);
    EXPECT_GT(s.busyMillis, 0.0);
    EXPECT_GT(s.utilization(), 0.0);
    EXPECT_LE(s.utilization(), 1.0);
}

TEST(Sweep, RunGroupPublishesTheSumOfItsRuns)
{
    ThreadEnv env("2");
    std::vector<size_t> points(64);
    std::iota(points.begin(), points.end(), 0);
    std::vector<size_t> few(points.begin(), points.begin() + 5);

    Sweep::run(few, skewedWork);
    SweepRunStats alone = Sweep::lastRunStats();
    EXPECT_EQ(alone.points, 5u);

    SweepRunStats a, b;
    {
        SweepRunGroup outer;
        Sweep::run(points, skewedWork);
        a = Sweep::lastRunStats();
        {
            // A nested group folds into the outer one.
            SweepRunGroup inner;
            Sweep::run(points, skewedWork);
        }
        b = Sweep::lastRunStats();
        // Nothing is published while the group is open: the last
        // stats are still those of the run before it.
        EXPECT_EQ(a.points, alone.points);
        EXPECT_EQ(b.points, alone.points);
        {
            // A point's own group records nothing.
            Sweep::run(few, [](size_t i) {
                SweepRunGroup nested;
                return i;
            });
        }
    }
    SweepRunStats g = Sweep::lastRunStats();
    EXPECT_EQ(g.points, 64u + 64u + 5u);
    EXPECT_EQ(g.threads, 2u);
    EXPECT_GT(g.wallMillis, 0.0);
    EXPECT_GT(g.busyMillis, 0.0);
    EXPECT_GT(g.utilization(), 0.0);
    EXPECT_LE(g.utilization(), 1.0);

    // Runs after the group publish alone again.
    Sweep::run(few, skewedWork);
    EXPECT_EQ(Sweep::lastRunStats().points, 5u);

    // A group that held no run says so.
    {
        SweepRunGroup empty;
    }
    EXPECT_EQ(Sweep::lastRunStats().points, 0u);
    EXPECT_EQ(Sweep::lastRunStats().wallMillis, 0.0);
}

TEST(Sweep, StealsAreNeverEmpty)
{
    // Worker 1 owns points 1 and 2 and sleeps in point 1. Worker 0
    // finishes point 0 and must take point 2 in one steal, not spin
    // on empty steals of a one-point range until worker 1 wakes.
    ThreadEnv env("2");
    std::vector<int> points{0, 1, 2};
    std::vector<SweepResult<int>> r = Sweep::run(points, [](int i) {
        if (i == 1)
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return i;
    });
    ASSERT_EQ(r.size(), 3u);
    EXPECT_EQ(r[2].value, 2);
    // One steal, or two if worker 1 started late and lost point 1 too.
    EXPECT_LE(Sweep::lastRunStats().steals, 2u);
}

TEST(Sweep, ParallelBitIdenticalAndIdenticallyOrderedToSerial)
{
    std::vector<size_t> points(512);
    std::iota(points.begin(), points.end(), 0);

    std::vector<uint64_t> serial;
    {
        ThreadEnv env("1");
        for (const auto &r : Sweep::run(points, skewedWork))
            serial.push_back(r.value);
    }
    for (const char *threads : {"2", "4", "8"}) {
        ThreadEnv env(threads);
        auto par = Sweep::run(points, skewedWork);
        ASSERT_EQ(par.size(), serial.size()) << threads << " threads";
        for (size_t i = 0; i < serial.size(); ++i)
            ASSERT_EQ(par[i].value, serial[i])
                << threads << " threads, point " << i;
    }
}

TEST(Sweep, SimulatorPointsMatchSerial)
{
    // The intended use: each point owns a CacheSim over a shared
    // read-only stream; parallel stats must equal serial stats.
    std::vector<Addr> stream;
    uint32_t x = 5;
    for (int i = 0; i < 50000; ++i) {
        x = x * 1664525u + 1013904223u;
        stream.push_back((x >> 6) & 0xffff8);
    }
    std::vector<CacheConfig> points;
    for (uint64_t size : {4 << 10, 16 << 10, 64 << 10})
        for (unsigned assoc : {1u, 2u, CacheConfig::kFullyAssoc})
            points.push_back({size, 64, assoc});

    auto runOne = [&](const CacheConfig &cfg) {
        CacheSim sim(cfg);
        for (Addr a : stream)
            sim.access(a);
        return sim.stats().misses;
    };

    std::vector<uint64_t> serial;
    {
        ThreadEnv env("1");
        for (const auto &r : Sweep::run(points, runOne))
            serial.push_back(r.value);
    }
    ThreadEnv env("4");
    auto par = Sweep::run(points, runOne);
    for (size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(par[i].value, serial[i]) << points[i].str();
}

TEST(Sweep, EmptyAndSinglePointLists)
{
    ThreadEnv env("4");
    std::vector<int> none;
    EXPECT_TRUE(Sweep::run(none, [](int v) { return v; }).empty());

    std::vector<int> one = {41};
    auto r = Sweep::run(one, [](int v) { return v + 1; });
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r[0].value, 42);
}

TEST(Sweep, MorePointsThanASliceEach)
{
    // More threads than points: the pool must clamp, not deadlock.
    ThreadEnv env("16");
    std::vector<int> points = {1, 2, 3};
    auto r = Sweep::run(points, [](int v) { return v * v; });
    ASSERT_EQ(r.size(), 3u);
    EXPECT_EQ(r[0].value, 1);
    EXPECT_EQ(r[1].value, 4);
    EXPECT_EQ(r[2].value, 9);
}

TEST(Sweep, CapturesPerPointWallClock)
{
    ThreadEnv env("2");
    std::vector<int> points = {3, 12};
    auto r = Sweep::run(points, [](int ms) {
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
        return ms;
    });
    ASSERT_EQ(r.size(), 2u);
    EXPECT_GE(r[0].millis, 2.0);
    EXPECT_GE(r[1].millis, 10.0);
}

TEST(Sweep, PropagatesExceptions)
{
    ThreadEnv env("4");
    std::vector<size_t> points(64);
    std::iota(points.begin(), points.end(), 0);
    EXPECT_THROW(Sweep::run(points,
                            [](size_t i) -> int {
                                if (i == 37)
                                    throw std::runtime_error("point 37");
                                return static_cast<int>(i);
                            }),
                 std::runtime_error);
}
