"""Arithmetic of the benchmark: the numbers run.py prints are derived
here from the driver's raw output, so they can be tested on their own
(test_ledger.py).

Span rows are [name, start_ns, end_ns, parent_index, op]. A span's
layer is the first dot-separated part of its name: scene, pipeline,
trace, layout, cache, core, service, or bench for the driver's own
wrappers (a job, a request).
"""

from statistics import median

LAYERS = ["scene", "pipeline", "trace", "layout", "cache", "core",
          "service", "bench"]

END_TO_END = [
    ("setup_s", "s"),
    ("job_s", "s"),
    ("maccess_per_s", "M/s"),
    ("req_p50_ms", "ms"),
    ("req_tail_ms", "ms"),
    ("req_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
]

# (metric, unit, span names, work-count keys, scale). The value is the
# summed duration of the named spans divided by the summed counts
# ("count.<span>" values the driver records beside its spans), times
# scale. With no count keys it is per call, except scene build and
# render, which are per op that made them (a figures job builds four
# scenes).
_UNIT_COSTS = [
    ("scene.build_ms", "ms", ["scene.makeScene"], None, 1e-6),
    ("pipeline.render_ms", "ms", ["pipeline.render"], None, 1e-6),
    ("pipeline.ns_per_fragment", "ns", ["pipeline.render"],
     ["count.pipeline.render"], 1.0),
    ("trace.spill_ms", "ms", ["trace.spillTrace"], None, 1e-6),
    ("trace.decode_ns_per_record", "ns", ["trace.visitChunks"],
     ["count.trace.visitChunks"], 1.0),
    ("layout.map_ns_per_record", "ns",
     ["layout.mapRange", "layout.mapPacked"],
     ["count.layout.mapRange", "count.layout.mapPacked"], 1.0),
    ("cache.fa_ns_per_access", "ns", ["cache.runFaSweep"],
     ["count.cache.runFaSweep"], 1.0),
    ("cache.sa_ns_per_access", "ns", ["cache.runCacheGroup"],
     ["count.cache.runCacheGroup"], 1.0),
    ("cache.classify_ns_per_access", "ns", ["cache.classifyCache"],
     ["count.cache.classifyCache"], 1.0),
    ("core.shard_replay.fa_ns_per_access", "ns",
     ["core.runFaSweepSharded"], ["count.core.runFaSweepSharded"], 1.0),
    ("core.shard_replay.sa_ns_per_access", "ns",
     ["core.runCacheGroupSharded"],
     ["count.core.runCacheGroupSharded"], 1.0),
    ("service.parse_us", "us", ["service.parseRequest"], None, 1e-3),
    ("service.execute_ms.sweep", "ms",
     ["service.runServiceRequest.sweep"], None, 1e-6),
    ("service.execute_ms.classify", "ms",
     ["service.runServiceRequest.classify"], None, 1e-6),
    ("service.execute_ms.working_set", "ms",
     ["service.runServiceRequest.working_set"], None, 1e-6),
]

PER_LAYER = (
    [(name, unit) for name, unit, _, _, _ in _UNIT_COSTS]
    + [
        ("pipeline.fragments", "count"),
        ("pipeline.records", "count"),
        ("core.sweep.utilization", "ratio"),
        ("core.sweep.steals", "count"),
        ("core.run_sweep_ms", "ms"),
        ("core.shard_replay.fa_speedup", "x"),
        ("core.shard_replay.sa_speedup", "x"),
        ("core.trace_store.hit_ratio", "ratio"),
        ("core.trace_store.renders", "count"),
        ("service.ping_rtt_us", "us"),
        ("service.fold_factor", "ratio"),
        ("service.batches", "count"),
        ("service.queue_depth_p99", "count"),
        ("service.latency_us_p50", "us"),
        ("service.queue_full_retries", "count"),
        ("bench.trace_overhead", "ratio"),
        ("error_rate", "ratio"),
    ]
    + [(layer + ".self_ms", "ms") for layer in LAYERS]
)

# Layers a workload never calls, with the reason. Their metrics are
# absent (null) from that workload's ledger, never written as 0.
BYPASSED = {
    "figures": {
        "trace": "figures renders traces in memory; it never spills "
                 "or streams a trace file",
        "core.shard_replay": "figures replays serially through "
                             "runCacheSweep; no job takes the sharded "
                             "path",
        "service": "figures calls the library in process; it never "
                   "talks to texcached",
    },
    "stream": {
        "service": "stream calls the library in process; it never "
                   "talks to texcached",
    },
    "service": {
        "scene": "texcached builds every scene during set-up; the "
                 "timed phase only hits its TraceStore",
        "pipeline": "texcached renders only during set-up; the timed "
                    "phase never renders",
        "trace": "texcached keeps its traces in memory; nothing is "
                 "spilled or streamed",
        "core.shard_replay": "no service request takes the sharded "
                             "replay path",
        "core.self_ms": "the driver makes no core call of its own here; "
                        "the sweep pool runs inside "
                        "service.runServiceRequest (core.run_sweep_ms)",
    },
}


def absent(workload):
    """{metric: reason} for the per-layer metrics @p workload bypasses:
    a key of BYPASSED names a layer or one metric."""
    out = {}
    for layer, reason in BYPASSED[workload].items():
        for name, _ in PER_LAYER:
            if name == layer or name.startswith(layer + "."):
                out[name] = reason
    return out


# The per-layer metrics every workload measures: the ones the result
# line carries (BENCHMARK.json's per_layer). The rest are in the
# ledger only, where a bypassing workload marks them absent.
RESULT_PER_LAYER = [
    (name, unit) for name, unit in PER_LAYER
    if not any(name in absent(w) for w in BYPASSED)
]


def tail(samples):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples_beyond). The sample at sorted
    index i has n-1-i samples above it, so the highest qualifying one
    is index n-11, the 100*(n-10)/n-th percentile. With fewer than 11
    samples no percentile qualifies; the maximum is returned with
    nothing beyond it, and the caller records that count.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of no samples")
    if n < 11:
        return xs[-1], 100.0, 0
    i = n - 11
    return xs[i], 100.0 * (i + 1) / n, n - 1 - i


def error_rate(attempted, failed):
    """Failed ops over attempted ops."""
    if attempted < 1:
        raise ValueError("no ops attempted")
    return failed / attempted


def request_counts(tries, ok):
    """(attempted, failed, queue_full_retries) over a run's requests.

    tries[i] is how many times request i was sent and ok[i] whether
    its final response matched the reference. A queue_full refusal is
    retried as the same request: the retry adds to neither count, only
    to the retries.
    """
    if len(tries) != len(ok):
        raise ValueError("tries and outcomes differ in length")
    if any(t < 1 for t in tries):
        raise ValueError("a request was never sent")
    failed = sum(1 for x in ok if not x)
    return len(tries), failed, int(sum(tries) - len(tries))


def account(raw, want_digest=None, extra_digests=()):
    """(attempted, failed, queue_full_retries) over one run.

    The ops are the output checks the driver made, the jobs whose
    result digest was recorded, and the service requests. A job fails
    when its digest differs from @p want_digest, or, with no pin, from
    the digest most of the run's jobs agree on.
    """
    checks = raw["checks"]
    attempted = len(checks)
    failed = sum(1 for _, passed in checks if not passed)
    digests = list(extra_digests)
    if raw["strings"].get("job_digests"):
        digests += raw["strings"]["job_digests"].split(",")
    if digests:
        if want_digest is None:
            want_digest = max(sorted(set(digests)), key=digests.count)
        attempted += len(digests)
        failed += sum(1 for d in digests if d != want_digest)
    retries = 0
    samples = raw["samples"]
    if "request_tries" in samples:
        a, f, retries = request_counts(samples["request_tries"],
                                       samples.get("request_ok", []))
        attempted += a
        failed += f
    return attempted, failed, retries


def covered(intervals, lo, hi):
    """Length of [lo, hi) covered by the union of intervals."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Per-span self time: duration minus child coverage (ns)."""
    children = {}
    for row in spans:
        parent = row[3]
        if parent >= 0:
            children.setdefault(parent, []).append((row[1], row[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        out.append(end - start - covered(children.get(i, []), start, end))
    return out


def layer_of(name):
    return name.split(".", 1)[0]


def layer_self_ms(spans, ops=None):
    """Self time per layer in ms, over the spans of @p ops (all if
    None)."""
    selfs = self_times(spans)
    out = {layer: 0.0 for layer in LAYERS}
    for row, s in zip(spans, selfs):
        if ops is not None and row[4] not in ops:
            continue
        layer = layer_of(row[0])
        out[layer] = out.get(layer, 0.0) + s / 1e6
    return out


def _span_sums(spans):
    sums, calls, ops = {}, {}, {}
    for name, start, end, _, op in spans:
        sums[name] = sums.get(name, 0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        ops.setdefault(name, set()).add(op)
    return sums, calls, ops


def per_layer(raw, workload):
    """Every per-layer metric from one traced run's raw output, and
    {metric: reason} for the ones @p workload bypasses, which are
    None."""
    spans = raw["spans"]
    values = raw["values"]
    samples = raw["samples"]
    sums, calls, ops = _span_sums(spans)
    m = {}
    for name, _, span_names, count_keys, scale in _UNIT_COSTS:
        ns = sum(sums.get(s, 0) for s in span_names)
        if count_keys:
            n = sum(values.get(k, 0) for k in count_keys)
        elif span_names[0] in ("scene.makeScene", "pipeline.render"):
            n = len(set().union(*(ops.get(s, set())
                                  for s in span_names)))
        else:
            n = sum(calls.get(s, 0) for s in span_names)
        m[name] = ns * scale / n if n else None

    m["pipeline.fragments"] = values.get("pipeline.fragments")
    m["pipeline.records"] = values.get("pipeline.records")
    sweep_calls = values.get("sweep.calls", 0)
    for key in ("core.sweep.utilization", "core.sweep.steals",
                "core.run_sweep_ms"):
        m[key] = None
    if sweep_calls:
        m["core.sweep.utilization"] = (values["sweep.busy_ms"]
                                       / values["sweep.thread_ms"])
        m["core.sweep.steals"] = values["sweep.steals"] / sweep_calls
        m["core.run_sweep_ms"] = values["sweep.wall_ms"] / sweep_calls
    for kind, span in (("fa", "core.runFaSweepSharded"),
                       ("sa", "core.runCacheGroupSharded")):
        fast = sums.get(span, 0) / values.get("count." + span, 0) \
            if values.get("count." + span) else None
        slow = sums.get(span + ".serial", 0) \
            / values.get("count." + span + ".serial", 0) \
            if values.get("count." + span + ".serial") else None
        m["core.shard_replay.%s_speedup" % kind] = \
            slow / fast if fast and slow else None
    lookups = values.get("count.trace_store.lookups", 0)
    renders = values.get("count.trace_store.renders", 0)
    m["core.trace_store.renders"] = renders
    m["core.trace_store.hit_ratio"] = \
        1.0 - renders / lookups if lookups else None
    pings = samples.get("ping_us", [])
    m["service.ping_rtt_us"] = median(pings) if pings else None
    for key in ("fold_factor", "batches", "queue_depth_p99",
                "latency_us_p50"):
        m["service." + key] = values.get("service." + key)
    m["service.queue_full_retries"] = raw["queue_full_retries"]

    untraced = samples.get("job_s") or samples.get("req_ms")
    traced = samples.get("job_s.traced") or samples.get("req_ms.traced")
    m["bench.trace_overhead"] = (median(traced) / median(untraced) - 1.0
                                 if traced and untraced else None)
    m["error_rate"] = error_rate(raw["attempted"], raw["failed"])
    for layer, ms in layer_self_ms(spans).items():
        m[layer + ".self_ms"] = ms
    reasons = absent(workload)
    for name in reasons:
        m[name] = None
    return m, reasons


def end_to_end(raw):
    """Every end-to-end metric from one untraced run's raw output.

    A workload's op is what one user waits for: a figures job, a
    stream replay job, a service request. job_s and the request
    latencies are over ops; maccess_per_s is simulated config-accesses
    (one per configuration per access) per host second.
    """
    s = raw["samples"]
    v = raw["values"]
    ops_ms = s["req_ms"]
    tail_ms, pct, beyond = tail(ops_ms)
    return {
        "setup_s": median(s["setup_s"]),
        "job_s": median(ops_ms) / 1e3,
        "maccess_per_s": median(s["maccess_per_s"]),
        "req_p50_ms": median(ops_ms),
        "req_tail_ms": tail_ms,
        "req_per_s": v["ops_per_s"],
        "peak_rss_mib": median(s["peak_rss_mib"]),
    }, {"req_tail_percentile": pct, "req_tail_beyond": beyond,
        "req_samples": len(ops_ms)}
