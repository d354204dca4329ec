#!/usr/bin/env python3
"""texcache benchmark: builds the library, the texcached daemon and the
driver from this checkout, runs one workload, checks its outputs and
prints the metrics as one JSON line (the last line of stdout).

    python3 perfbench/run.py --workload figures|stream|service \
        [--seed N] [--seconds S] [--trace 0|1]

--trace 0 prints the end-to-end metrics, measured with the driver's
spans off; --trace 1 prints the per-layer ledger from a traced run and
writes every span to .bench_build/run/<workload>/ledger.json.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
import ledger  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("figures", "stream", "service")
BUILD_TYPE = "RelWithDebInfo"
# Instrumentation the program arms before main(); it would perturb
# every number, so the benchmark refuses to run under it.
ARMED_ENV = ("TEXCACHE_TRACE", "TEXCACHE_PROF_HZ")
# Settings that would break cold-start hygiene or write outside the
# checkout; they are removed from the program's environment.
DROPPED_ENV = ("TEXCACHE_TRACE_CACHE_DIR", "TEXCACHE_STATS_DIR")
# A figures run: one cold process per set-up sample (the main
# process's first job is the last one).
FIGURES_SETUP_PROCESSES = 2
# Every driver process of a run ends within this many seconds after
# the build, or the run fails.
RUN_TIMEOUT_S = 160


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
    recorded = {k: v for k, v in os.environ.items()
                if k.startswith("TEXCACHE_") and k not in ARMED_ENV}
    return env, recorded


def build(nproc):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("texcache sources not found under %s (src/CMakeLists.txt)"
             % ROOT)
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    with open(log, "w") as out:
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
        steps.append(["cmake", "--build", str(BUILD), "-j", str(nproc),
                      "--target", "texbench", "texcached", "simd_probe"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                sys.stderr.write(log.read_text()[-4000:])
                fail("build failed (%s)" % log)


def run_driver(args, work, out_name, env, deadline, extra=()):
    """Run texbench to completion and return its raw output. It runs in
    its own process group, so a texcached it spawned goes with it
    whether it exits, crashes or overruns @p deadline."""
    out = work / out_name
    cmd = [str(BUILD / "texbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work),
           "--out", str(out), "--texcached", str(BUILD / "texcached")
           ] + list(extra)
    log_path = work / (out_name + ".log")
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT, env=env, start_new_session=True)
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            rc = None
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    if rc is None:
        fail("driver timed out (%s)" % log_path)
    if rc != 0 or not out.is_file():
        sys.stderr.write(log_path.read_text()[-4000:])
        fail("driver exited with %d" % rc)
    return json.loads(out.read_text())


def pinned_digest(workload, seed):
    """The exact result digest pinned for this run's inputs, or None.

    figures' inputs depend on the seed only through Flight's camera
    time (seed % 8), so seeds 0, 8, 16, ... share the default seed's
    pin; stream's inputs do not depend on the seed at all. Elsewhere
    the run's jobs must agree with each other, and the driver's
    sharded-versus-serial slice checks carry the exactness.
    """
    pins = json.loads((HERE / "pins.json").read_text())
    if workload == "stream" or (workload == "figures" and seed % 8 == 0):
        return pins[workload]
    return None


def source_digest():
    """SHA-256 (first 16 hex) over the sources built: identifies the
    code where there is no git SHA."""
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode() + b"\0")
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_revision():
    """HEAD's SHA, with "-dirty" if the tree has changes, or None
    outside a git checkout. Read on every run: the SHA the build
    configured into version.hh is the first run's in this build
    directory. Git looks no higher than the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             env=env, capture_output=True, text=True,
                             timeout=10)
        if sha.returncode != 0:
            return None
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return sha.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")


def simd_isa(env):
    try:
        return subprocess.run([str(BUILD / "simd_probe"), "--best"],
                              capture_output=True, text=True, env=env,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    armed = [k for k in ARMED_ENV if os.environ.get(k)]
    if armed:
        fail("refusing to run with %s set: the program's own "
             "instrumentation arms before main and perturbs every "
             "number" % ", ".join(armed), 2)
    nproc = os.cpu_count() or 1
    env, recorded = child_env()

    t0 = time.monotonic()
    build(nproc)
    build_s = time.monotonic() - t0

    deadline = time.monotonic() + RUN_TIMEOUT_S
    work = BUILD / "run" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    cold_samples, cold_digests = [], []
    if args.workload == "figures" and not args.trace:
        for i in range(FIGURES_SETUP_PROCESSES):
            one = run_driver(args, work, "oneshot%d.json" % i, env,
                             deadline, ["--oneshot"])
            cold_samples.append(one["samples"])
            cold_digests += one["strings"]["job_digests"].split(",")
    raw = run_driver(args, work, "raw.json", env, deadline)
    for one in cold_samples:
        for key in ("setup_s", "peak_rss_mib"):
            raw["samples"][key] += one[key]
    attempted, failed, retries = ledger.account(
        raw, pinned_digest(args.workload, args.seed), cold_digests)
    raw["attempted"], raw["failed"] = attempted, failed
    raw["queue_full_retries"] = retries

    host = {
        "git_sha": git_revision(),
        "source_sha256": source_digest(),
        "build_type": raw["strings"]["build_type"],
        "compiler": raw["strings"]["compiler"],
        "nproc": nproc,
        "simd_isa": simd_isa(env),
        "threads": int(raw["values"]["threads"]),
        "clients": (int(raw["values"]["clients"])
                    if "clients" in raw["values"] else None),
        "texcache_env": recorded,
        "dropped_env": [k for k in DROPPED_ENV if k in os.environ],
        "build_s": round(build_s, 3),
        # perf_event_open counters are not read: omitted, not zero.
    }
    print("host " + json.dumps(host, sort_keys=True))
    print("error_rate %g: %d of %d ops failed, %d queue_full retries" % (
        ledger.error_rate(attempted, failed), failed, attempted, retries))
    for what, ok in raw["checks"]:
        if not ok:
            print("check FAILED: " + what)

    if args.trace:
        values, reasons = ledger.per_layer(raw, args.workload)
        units = ledger.RESULT_PER_LAYER
        unmeasured = sorted(k for k, _ in ledger.PER_LAYER
                            if values[k] is None and k not in reasons)
        if unmeasured:
            fail("metrics not measured: " + ", ".join(unmeasured))
        print("ledger " + json.dumps(values, sort_keys=True))
        for name in sorted(reasons):
            print("absent %s: %s" % (name, reasons[name]))
        timed_ops = {row[4] for row in raw["spans"]
                     if row[0] in ("bench.job", "bench.request")}
        per_op = ledger.layer_self_ms(raw["spans"], timed_ops)
        n = max(1, len(timed_ops))
        print("ledger self ms per traced op (%d ops): %s" % (
            len(timed_ops), json.dumps(
                {k: round(v / n, 3) for k, v in per_op.items()})))
        (work / "ledger.json").write_text(json.dumps(
            {"spans": raw["spans"], "metrics": values, "absent": reasons,
             "host": host}))
    else:
        values, notes = ledger.end_to_end(raw)
        units = ledger.END_TO_END
        print("req_tail_ms is p%.2f with %d of %d samples beyond it" % (
            notes["req_tail_percentile"], notes["req_tail_beyond"],
            notes["req_samples"]))

    absent = sorted(k for k, _ in units if values.get(k) is None)
    if absent:
        fail("metrics not measured: " + ", ".join(absent))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
