/**
 * @file
 * texbench: the benchmark driver. Runs one workload against the
 * texcache library (and, for `service`, a spawned texcached) and
 * writes the raw measurements as JSON for perfbench/run.py.
 *
 * Usage:
 *   texbench --workload figures|stream|service --seed N --seconds S
 *            --trace 0|1 --work-dir DIR --out FILE --texcached PATH
 *            [--oneshot]
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <filesystem>
#include <iostream>

#include "core/sweep.hh"
#include "core/version.hh"
#include "bench.hh"

namespace texbench {

Spans::Spans() : epoch_(Clock::now()) {}

Spans &
Spans::get()
{
    static Spans s;
    return s;
}

int64_t
Spans::now() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
}

namespace {
thread_local int64_t tCurrentSpan = -1;
} // namespace

int64_t
Spans::open(const std::string &name, uint64_t op)
{
    Span s;
    s.name = name;
    s.parent = tCurrentSpan;
    s.op = op;
    std::lock_guard<std::mutex> lk(mutex_);
    s.startNs = now();
    spans_.push_back(std::move(s));
    return static_cast<int64_t>(spans_.size()) - 1;
}

void
Spans::close(int64_t id)
{
    int64_t t = now();
    std::lock_guard<std::mutex> lk(mutex_);
    spans_[static_cast<size_t>(id)].endNs = t;
}

Scope::Scope(const std::string &name, uint64_t op)
{
    Spans &s = Spans::get();
    if (!s.armed())
        return;
    id_ = s.open(name, op);
    saved_ = tCurrentSpan;
    tCurrentSpan = id_;
}

Scope::~Scope()
{
    if (id_ < 0)
        return;
    Spans::get().close(id_);
    tCurrentSpan = saved_;
}

void
Digest::add(uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xff;
        h_ *= 1099511628211ull;
    }
}

void
Digest::add(const texcache::CacheStats &s)
{
    add(s.accesses);
    add(s.misses);
    add(s.coldMisses);
    add(s.evictions);
}

void
Digest::add(const std::vector<texcache::CacheStats> &v)
{
    add(uint64_t(v.size()));
    for (const texcache::CacheStats &s : v)
        add(s);
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

std::string
joinDigests(const std::vector<std::string> &digests)
{
    std::string s;
    for (const std::string &d : digests)
        s += (s.empty() ? "" : ",") + d;
    return s;
}

uint64_t
configAccesses(const std::vector<texcache::CacheStats> &v)
{
    uint64_t n = 0;
    for (const texcache::CacheStats &s : v)
        n += s.accesses;
    return n;
}

double
peakRssMib(long pid)
{
    std::ifstream f("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

void
Result::check(const std::string &what, bool ok)
{
    checks.emplace_back(what, ok);
    if (!ok)
        std::cerr << "texbench: check failed: " << what << "\n";
}

void
Result::write(const std::string &path) const
{
    std::ofstream os(path);
    texcache::JsonWriter w(os, false);
    w.beginObject();
    w.key("values");
    w.beginObject();
    for (const auto &[k, v] : values)
        w.kv(k, v);
    w.endObject();
    w.key("samples");
    w.beginObject();
    for (const auto &[k, list] : samples) {
        w.key(k);
        w.beginArray();
        for (double v : list)
            w.value(v);
        w.endArray();
    }
    w.endObject();
    w.key("strings");
    w.beginObject();
    for (const auto &[k, v] : strings)
        w.kv(k, v);
    w.endObject();
    w.key("checks");
    w.beginArray();
    for (const auto &[what, ok] : checks) {
        w.beginArray();
        w.value(what);
        w.value(ok);
        w.endArray();
    }
    w.endArray();
    // Spans as [name, start_ns, end_ns, parent, op] rows.
    w.key("spans");
    w.beginArray();
    for (const Spans::Span &s : Spans::get().all()) {
        w.beginArray();
        w.value(s.name);
        w.value(s.startNs);
        w.value(s.endNs);
        w.value(s.parent);
        w.value(s.op);
        w.endArray();
    }
    w.endArray();
    w.endObject();
    os << "\n";
    if (!os)
        std::cerr << "texbench: cannot write " << path << "\n";
}

} // namespace texbench

using namespace texbench;

namespace {

bool
parseArgs(int argc, char **argv, Args &a, std::string &out)
{
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (k == "--oneshot") {
            a.oneshot = true;
            continue;
        }
        if (!(v = next())) {
            std::cerr << "texbench: " << k << " needs a value\n";
            return false;
        }
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(v, nullptr);
        else if (k == "--trace")
            a.trace = std::strcmp(v, "0") != 0;
        else if (k == "--work-dir")
            a.workDir = v;
        else if (k == "--out")
            out = v;
        else if (k == "--texcached")
            a.texcached = v;
        else {
            std::cerr << "texbench: unknown option " << k << "\n";
            return false;
        }
    }
    if (a.workload.empty() || out.empty() || a.workDir.empty() ||
        a.texcached.empty() || !(a.seconds > 0)) {
        std::cerr << "texbench: --workload, --out, --work-dir, "
                     "--texcached and a positive --seconds are required\n";
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    std::string out;
    if (!parseArgs(argc, argv, args, out))
        return 2;

#ifdef __OPTIMIZE__
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
    if (!optimized || std::strcmp(TEXCACHE_BUILD_TYPE, "Debug") == 0) {
        std::cerr << "texbench: refusing to time a Debug or unoptimized ("
                  << TEXCACHE_BUILD_TYPE << ") build\n";
        return 2;
    }

    // The service workload changes directory; every path is fixed first.
    args.workDir = std::filesystem::absolute(args.workDir).string();
    args.texcached = std::filesystem::absolute(args.texcached).string();
    out = std::filesystem::absolute(out).string();

    Result result;
    result.strings["build_type"] = TEXCACHE_BUILD_TYPE;
    result.strings["compiler"] = TEXCACHE_COMPILER;
    result.values["threads"] = texcache::Sweep::threadCount();

    int rc = 2;
    if (args.workload == "figures")
        rc = runFigures(args, result);
    else if (args.workload == "stream")
        rc = runStream(args, result);
    else if (args.workload == "service")
        rc = runService(args, result);
    else
        std::cerr << "texbench: unknown workload " << args.workload
                  << "\n";
    if (rc == 0)
        result.write(out);
    return rc;
}
