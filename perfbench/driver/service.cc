/**
 * @file
 * The `service` workload: a closed loop of client connections (half
 * the cores) from this process driving a spawned texcached over its
 * AF_UNIX socket.
 * The mix is hot quad sweeps from a small template pool (foldable),
 * cold classify requests with unique names (never foldable) and a
 * few percent of paper-scene requests (Goblet working_set, Guitar
 * sweep) that block the single dispatcher for 50-175 ms. Set-up
 * warms every template's scene into the daemon's TraceStore, so the
 * timed phase exercises TraceStore hits, not renders. Every response
 * is byte-compared with runServiceRequest on an in-process store.
 */

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "common/json_reader.hh"
#include "core/sweep.hh"
#include "service/request.hh"
#include "service/socket.hh"

extern char **environ;

using namespace texcache;
using namespace texcache::service;

namespace texbench {

namespace {

/** Relative to the work directory, which the driver chdirs into:
 *  an AF_UNIX path must fit in 108 bytes wherever the checkout is. */
constexpr const char *kSocket = "texcached.sock";
constexpr unsigned kSetupSamples = 5;
constexpr unsigned kRetryBudget = 1000;

/** One client connection; closes its socket on destruction. */
class Conn
{
  public:
    Conn() : fd_(connectUnix(kSocket)) {}
    ~Conn()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;

    bool ok() const { return fd_ >= 0; }

    bool
    call(std::string_view body, std::string &resp)
    {
        return fd_ >= 0 && writeFrame(fd_, body) && readFrame(fd_, resp);
    }

  private:
    int fd_;
};

bool
isError(const std::string &resp, const char *code)
{
    json::Value v;
    json::ParseError err;
    if (!json::parse(resp, v, err) || !v.isObject())
        return false;
    const json::Value *status = v.find("status");
    const json::Value *c = v.find("code");
    return status && status->isString() && status->str() == "error" &&
           c && c->isString() && c->str() == code;
}

/** A spawned texcached; stopped (and reaped) on destruction. */
class Daemon
{
  public:
    explicit Daemon(const std::string &binary)
    {
        ::unlink(kSocket);
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_addopen(&fa, 1, "texcached.log",
                                         O_WRONLY | O_CREAT | O_APPEND,
                                         0644);
        posix_spawn_file_actions_adddup2(&fa, 1, 2);
        const char *argv[] = {"texcached", "--socket", kSocket,
                              "--snapshot-ms", "0", nullptr};
        int rc = posix_spawn(&pid_, binary.c_str(), &fa, nullptr,
                             const_cast<char **>(argv), environ);
        posix_spawn_file_actions_destroy(&fa);
        if (rc != 0)
            pid_ = -1;
    }

    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Wait until a ping round-trips (false if the daemon died). */
    bool
    waitReady()
    {
        auto t0 = Clock::now();
        while (alive() && secondsSince(t0) < 60.0) {
            Conn c;
            std::string resp;
            if (c.ok() && c.call("{\"kind\":\"ping\"}", resp))
                return true;
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        return false;
    }

    bool
    alive()
    {
        if (pid_ < 0)
            return false;
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            return false;
        }
        return true;
    }

    pid_t pid() const { return pid_; }

    /** Drain through the shutdown request; kill if that fails. */
    void
    stop()
    {
        if (pid_ < 0)
            return;
        {
            Conn c;
            std::string resp;
            c.call("{\"kind\":\"shutdown\"}", resp);
        }
        auto t0 = Clock::now();
        int status = 0;
        while (::waitpid(pid_, &status, WNOHANG) == 0) {
            if (secondsSince(t0) > 30.0) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, &status, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        pid_ = -1;
    }

  private:
    pid_t pid_ = -1;
};

/** Daemon-side counters read through the stats control request. */
struct DaemonStats
{
    double accepted = 0, batchable = 0, batches = 0;
    double queueDepthP99 = 0, latencyUsP50 = 0;
    double renders = 0;
    bool ok = false;
};

double
numberAt(const json::Value &root, const char *key, const char *sub = "")
{
    const json::Value *v = root.find(key);
    if (v && *sub)
        v = v->isObject() ? v->find(sub) : nullptr;
    return v && v->isNumber() ? v->number() : 0.0;
}

DaemonStats
readStats()
{
    DaemonStats s;
    Conn c;
    std::string resp;
    json::Value v;
    json::ParseError err;
    if (!c.call("{\"kind\":\"stats\"}", resp) ||
        !json::parse(resp, v, err) || !v.isObject())
        return s;
    s.accepted = numberAt(v, "accepted");
    s.batchable = numberAt(v, "batchable");
    s.batches = numberAt(v, "batches");
    s.queueDepthP99 = numberAt(v, "queue_depth", "p99");
    s.latencyUsP50 = numberAt(v, "latency_us", "p50");
    // TraceStore accounting is exported only through the metrics
    // exposition.
    if (c.call("{\"kind\":\"metrics\"}", resp)) {
        std::istringstream is(resp);
        std::string line;
        const std::string key = "texcache_service_trace_store_renders ";
        while (std::getline(is, line))
            if (line.rfind(key, 0) == 0)
                s.renders = std::strtod(line.c_str() + key.size(),
                                        nullptr);
    }
    s.ok = true;
    return s;
}

/**
 * Folded requests per batch on the foldable subset: every
 * non-batchable request is a batch of its own, so it leaves the
 * denominator.
 */
double
foldFactor(const DaemonStats &a, const DaemonStats &b)
{
    double batchable = b.batchable - a.batchable;
    double other = (b.accepted - a.accepted) - batchable;
    double batches = (b.batches - a.batches) - other;
    return batches > 0 ? batchable / batches : 0.0;
}

/** Byte-compares responses with runServiceRequest on its own store. */
class Reference
{
  public:
    /** The in-process manifest for @p body ("" if it fails to parse). */
    const std::string &
    of(const std::string &body)
    {
        auto it = cache_.find(body);
        if (it != cache_.end())
            return it->second;
        ServiceRequest req;
        std::string want;
        if (!parseRequest(body, req))
            want = runServiceRequest(store_, req);
        return cache_.emplace(body, std::move(want)).first->second;
    }

    TraceStore &store() { return store_; }

  private:
    TraceStore store_;
    std::map<std::string, std::string> cache_;
};

/**
 * parseRequest and runServiceRequest in process under spans, on a
 * store that already holds every scene (so execute is the simulation,
 * as in the warmed daemon).
 */
void
timeInProcess(Reference &ref, const std::vector<std::string> &bodies,
              Result &out, uint64_t op)
{
    for (const std::string &body : bodies) {
        ServiceRequest req;
        RequestError err;
        {
            Scope s("service.parseRequest", op);
            err = parseRequest(body, req);
        }
        if (err)
            continue;
        std::string kind = req.kindName();
        std::string resp;
        {
            Scope s("service.runServiceRequest." + kind, op);
            resp = runServiceRequest(ref.store(), req);
        }
        noteSweep(out);
    }
}

void
recordDaemon(const DaemonStats &before, const DaemonStats &after,
             Result &out)
{
    out.values["service.fold_factor"] = foldFactor(before, after);
    out.values["service.batches"] = after.batches - before.batches;
    out.values["service.queue_depth_p99"] = after.queueDepthP99;
    out.values["service.latency_us_p50"] = after.latencyUsP50;
    out.values["count.trace_store.renders"] +=
        after.renders - before.renders;
    out.values["count.trace_store.lookups"] +=
        after.batches - before.batches;
}

// ---------------------------------------------------------------- mix

/** 4 batch keys x 3 config variants; repeats fold into one pass. */
std::vector<std::string>
hotTemplates()
{
    const char *keys[4] = {
        "\"scene\":\"quad\",\"quad\":{\"tex\":64,\"screen\":128},"
        "\"order\":\"horizontal\",\"layout\":{\"kind\":\"blocked\","
        "\"block_w\":4,\"block_h\":4}",
        "\"scene\":\"quad\",\"quad\":{\"tex\":64,\"screen\":128},"
        "\"order\":{\"dir\":\"horizontal\",\"tiled\":true,\"tile_w\":8,"
        "\"tile_h\":8},\"layout\":{\"kind\":\"blocked\",\"block_w\":4,"
        "\"block_h\":4}",
        "\"scene\":\"quad\",\"quad\":{\"tex\":64,\"screen\":128},"
        "\"order\":\"horizontal\",\"layout\":{\"kind\":\"nonblocked\"}",
        "\"scene\":\"quad\",\"quad\":{\"tex\":128,\"screen\":128,"
        "\"repeat\":2},\"order\":\"horizontal\",\"layout\":{\"kind\":"
        "\"blocked\",\"block_w\":4,\"block_h\":4}",
    };
    const char *variants[3] = {
        "\"sweep\":{\"sizes\":[1024,2048,4096,8192],\"lines\":[32]}",
        "\"configs\":[{\"size\":4096,\"line\":32,\"assoc\":2},"
        "{\"size\":8192,\"line\":32,\"assoc\":4}]",
        "\"sweep\":{\"sizes\":[2048,4096,8192,16384],\"lines\":[64]}",
    };
    std::vector<std::string> out;
    for (int k = 0; k < 4; ++k)
        for (int v = 0; v < 3; ++v)
            out.push_back("{\"kind\":\"sweep\",\"name\":\"hot-" +
                          std::to_string(k) + "-" + std::to_string(v) +
                          "\"," + keys[k] + "," + variants[v] + "}");
    return out;
}

std::vector<std::string>
paperBodies()
{
    return {
        "{\"kind\":\"working_set\",\"name\":\"paper-goblet\","
        "\"scene\":\"Goblet\",\"order\":\"horizontal\","
        "\"layout\":{\"kind\":\"nonblocked\"},\"sweep\":{\"sizes\":"
        "[1024,2048,4096,8192,16384,32768,65536,131072],"
        "\"lines\":[32]}}",
        "{\"kind\":\"sweep\",\"name\":\"paper-guitar\","
        "\"scene\":\"Guitar\",\"order\":\"horizontal\","
        "\"layout\":{\"kind\":\"blocked\",\"block_w\":4,\"block_h\":4},"
        "\"sweep\":{\"sizes\":[4096,16384,32768],\"lines\":[32],"
        "\"assocs\":[1,2,4]}}",
    };
}

/** Cold request @p i: classify, unique name, never foldable. */
std::string
coldBody(uint64_t i, uint64_t h)
{
    return "{\"kind\":\"classify\",\"name\":\"cold-" +
           std::to_string(i) +
           "\",\"scene\":\"quad\",\"quad\":{\"tex\":64,\"screen\":128},"
           "\"order\":\"horizontal\",\"layout\":{\"kind\":\"blocked\","
           "\"block_w\":4,\"block_h\":4},\"configs\":[{\"size\":" +
           std::to_string(1024u << (h % 5)) +
           ",\"line\":32,\"assoc\":2}]}";
}

uint64_t
splitmix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Request @p i of the seed's order. Every block of 100 requests holds
 * 3 paper-scene requests, 25 cold ones and each hot template 6 times.
 * The paper requests sit at fixed, evenly spaced slots: Goblet
 * working_set at 0 and 66, the Guitar sweep at 33. The seed shuffles
 * the other 97. A fixed mix keeps the daemon's work per request the
 * same on every seed, and even spacing keeps the tail from hanging on
 * whether two paper requests happened to arrive together. A Guitar
 * request and the requests queued behind it are the slowest of a run,
 * so req_tail_ms is one of the slower Guitar episodes. With one per
 * block (~25 a run) it sits nearer their middle than their worst,
 * which moves with the host's worst seconds.
 */
std::string
bodyFor(uint64_t seed, uint64_t i, const std::vector<std::string> &hot,
        const std::vector<std::string> &paper)
{
    constexpr unsigned kBlock = 100, kPaper = 3, kCold = 25;
    constexpr unsigned kSpacing = kBlock / kPaper;
    constexpr unsigned kRest = kBlock - kPaper;
    static_assert((kRest - kCold) % 12 == 0);
    const uint64_t block = i / kBlock;
    const unsigned pos = unsigned(i % kBlock);
    if (pos % kSpacing == 0 && pos / kSpacing < kPaper)
        return paper[pos / kSpacing == 1 ? 1 : 0];

    unsigned slot[kRest];
    for (unsigned k = 0; k < kRest; ++k)
        slot[k] = k;
    uint64_t h = splitmix(seed) ^ splitmix(block);
    for (unsigned k = kRest - 1; k > 0; --k) {
        h = splitmix(h);
        std::swap(slot[k], slot[h % (k + 1)]);
    }
    const unsigned s =
        slot[pos - std::min(kPaper, pos / kSpacing + 1)];
    if (s < kCold)
        return coldBody(i, splitmix(seed ^ i));
    return hot[(s - kCold) % hot.size()];
}

double
sumAccesses(const json::Value &v)
{
    double n = 0;
    if (!v.isObject())
        return 0;
    for (const auto &[key, child] : v.members()) {
        if (key == "accesses" && child.isNumber())
            n += child.number();
        else
            n += sumAccesses(child);
    }
    return n;
}

/** Simulated config-accesses a response reports (its stats tree). */
double
manifestAccesses(const std::string &resp)
{
    json::Value v;
    json::ParseError err;
    if (!json::parse(resp, v, err) || !v.isObject())
        return 0;
    const json::Value *stats = v.find("stats");
    return stats ? sumAccesses(*stats) : 0;
}

struct Sent
{
    uint64_t index = 0;
    double ms = 0.0;
    unsigned tries = 0; ///< sends, counting queue_full refusals
    bool traced = false;
    bool transportOk = true;
    std::string resp;
};

/** Warm the daemon with every distinct template; false on failure. */
bool
warm(const std::vector<std::string> &bodies)
{
    Conn c;
    std::string resp;
    for (const std::string &b : bodies)
        if (!c.call(b, resp) || isError(resp, "queue_full"))
            return false;
    return true;
}

/**
 * The layout and cache layers in process on the mix's Guitar request:
 * its trace and scene come from the reference store, which already
 * holds them, so nothing is built or rendered here.
 */
void
probeCache(Reference &ref, Result &out, uint64_t op)
{
    const SceneSpec spec(BenchScene::Guitar);
    const TexelTrace &trace =
        ref.store().trace(spec, RasterOrder::horizontal());
    TexelTrace slice = sliceOf(trace, size_t(1) << 21);
    LayoutParams p;
    p.kind = LayoutKind::Blocked;
    p.blockW = 4;
    p.blockH = 4;
    SceneLayout lay(ref.store().scene(spec), p);
    ProbeInput in;
    in.layout = &lay;
    in.slice = &slice;
    in.line = 32;
    in.faSizes = cacheSizeSweep(1 << 10, 128 << 10);
    for (uint64_t size : {4u << 10, 16u << 10, 32u << 10})
        for (unsigned assoc : {1u, 2u, 4u})
            in.family.push_back({size, 32, assoc});
    in.classify = {16 << 10, 32, 2};
    probeSerial(in, out, op);
}

} // namespace

int
runService(const Args &args, Result &out)
{
    std::filesystem::create_directories(args.workDir);
    std::filesystem::current_path(args.workDir);
    // Half the cores: with one client per core, each Guitar request
    // holds up a request from every other client, and on a 4-vCPU VM
    // shared with other tenants req_tail_ms moved about twice as much
    // from run to run (IQR/median 0.47 against 0.19 over 7 seeds).
    const unsigned clients =
        std::max(1u, std::thread::hardware_concurrency() / 2);
    out.values["clients"] = clients;
    const std::vector<std::string> hot = hotTemplates();
    const std::vector<std::string> paper = paperBodies();
    std::vector<std::string> templates = hot;
    templates.insert(templates.end(), paper.begin(), paper.end());
    templates.push_back(coldBody(~0ull, 0));

    // Set-up samples: spawn -> first ping -> every template warmed.
    // The last daemon stays up for the timed phase.
    std::unique_ptr<Daemon> daemon;
    for (unsigned i = 0; i < kSetupSamples; ++i) {
        daemon.reset();
        auto t0 = Clock::now();
        daemon = std::make_unique<Daemon>(args.texcached);
        if (!daemon->waitReady() || !warm(templates)) {
            std::cerr << "texbench: texcached failed to start or warm "
                         "(see texcached.log)\n";
            return 1;
        }
        out.samples["setup_s"].push_back(secondsSince(t0));
    }
    DaemonStats before = readStats();

    // The closed loop: each client sends its next request when the
    // previous one is answered, until the run's seconds are spent. In
    // the traced run the second half of the requests are traced.
    std::atomic<uint64_t> cursor{0};
    std::atomic<bool> stopPing{false};
    std::vector<std::vector<Sent>> sent(clients);
    Spans::get().arm(args.trace);
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(args.seconds));
    const auto half = start + (deadline - start) / 2;
    std::vector<std::thread> loop;
    for (unsigned c = 0; c < clients; ++c) {
        loop.emplace_back([&, c] {
            Conn conn;
            std::string resp;
            while (Clock::now() < deadline) {
                Sent s;
                s.index = cursor.fetch_add(1);
                s.traced = args.trace && Clock::now() >= half;
                const std::string body =
                    bodyFor(args.seed, s.index, hot, paper);
                auto t0 = Clock::now();
                {
                    std::unique_ptr<Scope> span;
                    if (s.traced)
                        span = std::make_unique<Scope>("bench.request",
                                                       s.index + 1);
                    while (s.tries < kRetryBudget) {
                        ++s.tries;
                        if (!conn.call(body, resp)) {
                            s.transportOk = false;
                            break;
                        }
                        if (!isError(resp, "queue_full"))
                            break;
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(1));
                    }
                    if (s.tries == kRetryBudget &&
                        isError(resp, "queue_full"))
                        s.transportOk = false;
                }
                s.ms = 1e3 * secondsSince(t0);
                s.resp = s.transportOk ? resp : std::string();
                bool dead = !s.transportOk;
                sent[c].push_back(std::move(s));
                if (dead)
                    break;
            }
        });
    }
    std::thread pinger;
    if (args.trace) {
        // Control requests bypass the queue: their round trip under
        // load is the transport and accept path alone.
        pinger = std::thread([&] {
            Conn conn;
            std::string resp;
            while (!stopPing.load()) {
                auto t0 = Clock::now();
                if (!conn.call("{\"kind\":\"ping\"}", resp))
                    break;
                out.samples["ping_us"].push_back(1e6 * secondsSince(t0));
                std::this_thread::sleep_for(std::chrono::milliseconds(10));
            }
        });
    }
    for (std::thread &t : loop)
        t.join();
    const double loopS = secondsSince(start);
    stopPing.store(true);
    if (pinger.joinable())
        pinger.join();
    Spans::get().arm(false);

    DaemonStats after = readStats();
    out.check("service: daemon alive after the timed phase",
              daemon->alive() && after.ok);
    out.samples["peak_rss_mib"].push_back(peakRssMib(daemon->pid()));
    recordDaemon(before, after, out);
    daemon.reset();

    // Correctness after timing, so reference work never competes
    // with the daemon for cores. Each request's sends and outcome go
    // to ledger.py, which turns them into attempted/failed counts.
    Reference ref;
    uint64_t completed = 0;
    double accesses = 0;
    std::map<std::string, double> accessesOf;
    for (const std::string &t : templates)
        ref.of(t);
    for (auto &list : sent) {
        for (Sent &s : list) {
            const std::string body = bodyFor(args.seed, s.index, hot, paper);
            const bool ok = s.transportOk && s.resp == ref.of(body);
            out.samples["request_tries"].push_back(s.tries);
            out.samples["request_ok"].push_back(ok);
            if (!ok)
                continue;
            ++completed;
            auto it = accessesOf.find(body);
            if (it == accessesOf.end())
                it = accessesOf.emplace(body, manifestAccesses(s.resp))
                         .first;
            accesses += it->second;
            out.samples[s.traced ? "req_ms.traced" : "req_ms"].push_back(
                s.ms);
        }
    }
    out.values["ops_per_s"] = double(completed) / loopS;
    out.samples["maccess_per_s"].push_back(accesses / loopS / 1e6);

    if (args.trace) {
        // The service layer in process: parse and execute each kind.
        std::vector<std::string> bodies = templates;
        for (uint64_t i = 0; i < 20; ++i)
            bodies.push_back(coldBody(i, i));
        Spans::get().arm(true);
        timeInProcess(ref, bodies, out, cursor.load() + 1);
        probeCache(ref, out, cursor.load() + 2);
        Spans::get().arm(false);
    }
    return 0;
}

} // namespace texbench
