/**
 * @file
 * Tests for the host perf-counter layer (src/perf/). Hardware
 * counters are frequently unavailable (containers, paranoid sysctl,
 * non-Linux), so every test here must pass in BOTH states: the
 * availability-dependent assertions are gated on perf::available()
 * and the degradation contract is asserted when it is false.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "perf/perf_counters.hh"

using namespace texcache;

TEST(PerfCounters, AvailabilityIsStableAndExplained)
{
    bool first = perf::available();
    // Stable after process start: repeated queries agree.
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(first, perf::available());
    if (first) {
        EXPECT_TRUE(perf::unavailableReason().empty());
    } else {
        // Degradation is explained, never silent.
        EXPECT_FALSE(perf::unavailableReason().empty());
    }
}

TEST(PerfCounters, ReadMatchesAvailability)
{
    perf::Reading r = perf::read();
    EXPECT_EQ(perf::available(), r.available);
    if (!r.available) {
        // Unavailable reads are all-zero, so downstream ratio helpers
        // divide by nothing and consumers can emit them blindly.
        EXPECT_EQ(r.cycles, 0u);
        EXPECT_EQ(r.instructions, 0u);
        EXPECT_EQ(r.llcLoads, 0u);
        EXPECT_EQ(r.llcMisses, 0u);
        EXPECT_EQ(r.branchMisses, 0u);
        EXPECT_EQ(r.ipc(), 0.0);
        EXPECT_EQ(r.llcMissRate(), 0.0);
    }
}

TEST(PerfCounters, CumulativeReadsAreMonotone)
{
    if (!perf::available())
        GTEST_SKIP() << "perf unavailable: "
                     << perf::unavailableReason();
    perf::Reading a = perf::read();
    // Burn some user-space work between the two readings.
    volatile uint64_t sink = 0;
    for (uint64_t i = 0; i < 2000000; ++i)
        sink = sink + i * 2654435761u;
    perf::Reading b = perf::read();
    EXPECT_GE(b.cycles, a.cycles);
    EXPECT_GE(b.instructions, a.instructions);
    // The busy loop retired a visible number of instructions.
    perf::Reading d = b.since(a);
    EXPECT_GT(d.instructions, 100000u);
    EXPECT_GT(d.cycles, 0u);
    EXPECT_GT(d.ipc(), 0.0);
}

TEST(PerfCounters, SinceSubtractsCounterWise)
{
    perf::Reading a, b;
    a.available = b.available = true;
    a.cycles = 100;
    a.instructions = 50;
    a.llcLoads = 10;
    a.llcMisses = 4;
    a.branchMisses = 2;
    b.cycles = 300;
    b.instructions = 450;
    b.llcLoads = 30;
    b.llcMisses = 5;
    b.branchMisses = 2;
    b.multiplexed = true;

    perf::Reading d = b.since(a);
    EXPECT_TRUE(d.available);
    EXPECT_TRUE(d.multiplexed); // flags OR together
    EXPECT_EQ(d.cycles, 200u);
    EXPECT_EQ(d.instructions, 400u);
    EXPECT_EQ(d.llcLoads, 20u);
    EXPECT_EQ(d.llcMisses, 1u);
    EXPECT_EQ(d.branchMisses, 0u);
    EXPECT_DOUBLE_EQ(d.ipc(), 2.0);
    EXPECT_DOUBLE_EQ(d.llcMissRate(), 0.05);
}

TEST(PerfCounters, SimulatedAccessesAccumulateAcrossThreads)
{
    // The denominator works regardless of counter availability - it
    // is plain software accounting.
    uint64_t before = perf::simulatedAccesses();
    perf::addSimulatedAccesses(1000);
    EXPECT_EQ(perf::simulatedAccesses(), before + 1000);

    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([] {
            for (int i = 0; i < 100; ++i)
                perf::addSimulatedAccesses(10);
        });
    for (std::thread &th : threads)
        th.join();
    EXPECT_EQ(perf::simulatedAccesses(), before + 1000 + 4 * 100 * 10);
}
