#!/usr/bin/env python3
"""The repository's benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. It builds the binaries under test
(`simulate`, `analyze`, `queryd`, `dynaddrd`) and the benchmark's own
harness into $CARGO_TARGET_DIR (default `.bench_build`), runs the workload,
prints a readable table, and prints as its last line one JSON object with
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
are the end-to-end metrics of BENCHMARK.json, with `--trace 1` its per-layer
metrics. The full record (metrics, diagnostics, host fingerprint, noise)
is saved under $CARGO_TARGET_DIR/perfbench-results/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time

WORKLOADS = ("pipeline", "query-hot", "query-cold", "live")
HARNESS_TIMEOUT_S = 170
# Path-specific quantities printed per workload, read from the run's diagnostics
# and printed beside the bounded metrics: (label, unit, detail path).
NAMED = {
    "pipeline": [("analyze_s", "s", ("analyze_s",)), ("analyze_batch_s", "s", ("analyze_batch_s",))],
    "query-hot": [("rps", "req/s", ("rps",)), ("p50_us", "us", ("latency", "p50_us")),
                  ("p99_us", "us", ("latency", "p99_us"))],
    "live": [("ingest_rows_per_s", "rows/s", ("ingest_rows_per_s",)),
             ("p50_us", "us", ("latency", "p50_us")), ("p99_us", "us", ("latency", "p99_us"))],
}
NAMED["query-cold"] = NAMED["query-hot"]


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def cpu_times():
    """Aggregate jiffies from /proc/stat: (total, steal)."""
    try:
        with open("/proc/stat") as f:
            fields = [int(v) for v in f.readline().split()[1:]]
    except OSError:
        return None
    steal = fields[7] if len(fields) > 7 else 0
    # guest time is already counted inside user/nice.
    return sum(fields[:8]), steal


def host_fingerprint(root):
    model = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "kernel": platform.release(),
        "git_rev": rev,
        "source_sha256": source_digest(root),
    }


def source_digest(root):
    """Hash of the sources the benchmark builds, for checkouts without git."""
    h = hashlib.sha256()
    paths = ["Cargo.toml", "Cargo.lock"]
    for top in ("crates", "vendor", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "__pycache__"))
            paths += [os.path.relpath(os.path.join(dirpath, n), root) for n in sorted(filenames)]
    for rel in paths:
        try:
            with open(os.path.join(root, rel), "rb") as f:
                h.update(rel.encode() + b"\0" + f.read())
        except OSError:
            pass
    return h.hexdigest()


def build(root, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "dynaddr-bench", "-p", "dynaddr-query",
         "-p", "dynaddr-daemon", "--bins"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join("perfbench", "harness", "Cargo.toml")],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def run_harness(cmd):
    """Runs the harness in its own process group; on timeout the whole group
    (servers included) is killed and reaped."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"harness exceeded {HARNESS_TIMEOUT_S}s")
    if proc.returncode != 0:
        fail(f"harness exited with {proc.returncode}")
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        fail("harness printed no result")
    return json.loads(lines[-1])


def dig(d, path):
    for k in path:
        if not isinstance(d, dict) or k not in d:
            return None
        d = d[k]
    return d


def print_table(args, spec, res):
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"  correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
    for f in res.get("failures", [])[:10]:
        print(f"  failure: {f}")
    names = spec["per_layer" if args.trace else "end_to_end"]
    for m in names:
        v = res["metrics"].get(m["name"])
        shown = "missing" if v is None else f"{v['value']:.6g}"
        print(f"  {m['name']:<40} {shown:>16} {m['unit']}")
    if not args.trace:
        detail = res.get("detail", {})
        for label, unit, path in NAMED[args.workload]:
            v = dig(detail, path)
            extra = ""
            if path[0] == "latency" and isinstance(detail.get("latency"), dict):
                lat = detail["latency"]
                extra = f"  (n={lat['samples']}, {lat['beyond_p99']} beyond p99)"
            shown = "missing" if v is None else f"{v:.6g}"
            print(f"  {label:<40} {shown:>16} {unit}{extra}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    for need in ("Cargo.toml", "crates", spec_path):
        if not os.path.exists(os.path.join(root, need)):
            fail(f"{need} not found: run from the root of a dynaddr checkout", 2)
    with open(spec_path) as f:
        spec = json.load(f)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(root, target)

    results = os.path.join(target, "perfbench-results")
    work = os.path.join(target, "perfbench-work", f"{args.workload}-{os.getpid()}")
    harness = os.path.join(target, "release", "perfbench-harness")
    cmd = [harness, args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--bin", os.path.join(target, "release"), "--work", work,
           "--results", results]
    before = cpu_times()
    started = time.time()
    res = run_harness(cmd)
    after = cpu_times()

    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    missing = [n for n in wanted if n not in res["metrics"]]
    if missing:
        res["correct"] = False
        res.setdefault("failures", []).append(f"metrics not produced: {', '.join(missing)}")
    noise = {"wall_s": time.time() - started}
    if before and after and after[0] > before[0]:
        noise["steal_share"] = (after[1] - before[1]) / (after[0] - before[0])
    noise["generator_cpu_s"] = dig(res, ("detail", "generator_cpu_s"))
    noise["harness_cpu_s"] = dig(res, ("detail", "harness_cpu_s"))
    record = dict(res, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, host=host_fingerprint(root), noise=noise)
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)

    print_table(args, spec, res)
    print("  host: " + json.dumps(record["host"]))
    print("  noise: " + json.dumps(noise))
    final = {
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {n: res["metrics"][n] for n in wanted if n in res["metrics"]},
    }
    print(json.dumps(final))
    sys.exit(0 if final["correct"] else 1)


if __name__ == "__main__":
    main()
