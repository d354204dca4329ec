/**
 * @file
 * Shared pieces of the benchmark driver: timing, the in-memory span
 * recorder, the raw-result writer and the CacheStats digest.
 *
 * The driver only measures and checks; every derived number (medians,
 * the tail percentile, per-layer self time, error rate) is computed
 * from its raw output by perfbench/ledger.py.
 */

#ifndef TEXBENCH_BENCH_HH
#define TEXBENCH_BENCH_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "cache/cache_sim.hh"
#include "common/json.hh"
#include "core/experiment.hh"
#include "trace/trace_source.hh"

namespace texbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Command-line settings every workload receives. */
struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /** figures only: run one cold job and exit (a set-up sample). */
    bool oneshot = false;
    std::string workDir; ///< private scratch directory for the run
    std::string texcached; ///< daemon binary (service)
};

/**
 * Spans recorded around the driver's calls into the library: name,
 * start, end, parent and the op (job or request) they belong to.
 * Disarmed, a Scope costs one branch. Parents are tracked per thread.
 */
class Spans
{
  public:
    struct Span
    {
        std::string name;
        int64_t startNs = 0;
        int64_t endNs = 0;
        int64_t parent = -1;
        uint64_t op = 0;
    };

    static Spans &get();

    bool armed() const { return armed_.load(std::memory_order_relaxed); }
    void arm(bool on) { armed_.store(on, std::memory_order_relaxed); }

    int64_t open(const std::string &name, uint64_t op);
    void close(int64_t id);

    const std::vector<Span> &all() const { return spans_; }
    /** Nanoseconds since the recorder's epoch. */
    int64_t now() const;

  private:
    Spans();

    std::atomic<bool> armed_{false};
    Clock::time_point epoch_;
    std::mutex mutex_;
    std::vector<Span> spans_; ///< guarded by mutex_
};

/** RAII span; a no-op while the recorder is disarmed. */
class Scope
{
  public:
    Scope(const std::string &name, uint64_t op);
    ~Scope();

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    int64_t id_ = -1;
    int64_t saved_ = -1;
};

/** FNV-1a over every field of every result, in order. */
class Digest
{
  public:
    void add(uint64_t v);
    void add(const texcache::CacheStats &s);
    void add(const std::vector<texcache::CacheStats> &v);
    std::string hex() const;

  private:
    uint64_t h_ = 1469598103934665603ull;
};

/** The jobs' digests, comma-separated, for ledger.py to check. */
std::string joinDigests(const std::vector<std::string> &digests);

/** Sum of CacheStats::accesses over @p v: simulated config-accesses. */
uint64_t configAccesses(const std::vector<texcache::CacheStats> &v);

/** Peak resident set (VmHWM) of process @p pid in MiB; 0 if unreadable. */
double peakRssMib(long pid);

/**
 * Restart this process's peak resident set from its current one
 * (Linux clear_refs), so the next peakRssMib() is one job's peak.
 * Without it the peak is the process's lifetime peak, which depends on
 * how earlier jobs' frees landed in the allocator's per-thread arenas.
 */
void resetPeakRss();

/**
 * The raw result a workload hands back to the Python side: flat
 * named numbers and sample lists, named checks, plus the spans.
 */
struct Result
{
    std::map<std::string, double> values;
    std::map<std::string, std::vector<double>> samples;
    std::map<std::string, std::string> strings;
    /** (what, passed) for every output check made. */
    std::vector<std::pair<std::string, bool>> checks;

    void check(const std::string &what, bool ok);
    void write(const std::string &path) const;
};

/** What the layer probes replay, and through which configurations. */
struct ProbeInput
{
    const texcache::SceneLayout *layout = nullptr;
    const texcache::TexelTrace *slice = nullptr;
    unsigned line = 32;
    std::vector<uint64_t> faSizes;
    std::vector<texcache::CacheConfig> family;
    texcache::CacheConfig classify;
};

/** The first @p records records of @p trace. */
texcache::TexelTrace sliceOf(const texcache::TexelTrace &trace,
                             size_t records);

/** mapRange and the serial cache runners over in.slice. */
void probeSerial(const ProbeInput &in, Result &out, uint64_t op);

/** The sharded runners over @p src, default shards and shards=1. */
void probeSharded(const ProbeInput &in,
                  const texcache::TraceSource &src, Result &out,
                  uint64_t op);

/** Decode every chunk of @p src with a no-op visitor. */
void probeDecode(const texcache::TraceSource &src, Result &out,
                 uint64_t op);

/** TraceStore::spillTrace into @p dir; returns the file. */
std::string probeSpill(const texcache::SceneSpec &spec,
                       const texcache::RasterOrder &order,
                       const std::string &dir, Result &out,
                       uint64_t op);

/** Accumulate Sweep::lastRunStats() of the call that just returned. */
void noteSweep(Result &out);

int runFigures(const Args &args, Result &out);
int runStream(const Args &args, Result &out);
int runService(const Args &args, Result &out);

} // namespace texbench

#endif // TEXBENCH_BENCH_HH
