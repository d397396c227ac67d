#!/usr/bin/env python3
"""msfbench entry point: build, run one workload, print the result.

    python3 msfbench/run.py --workload static-random --seed 1 --seconds 45 --trace 0

Run from the root of a checkout.  The first run configures and builds
msfbench/ (the smpmsf libraries, the shipped smpmsf-server and
msfbench-runner) into .bench_build/msfbench; later runs rebuild
incrementally.  Each run works in .bench_work/<workload>-s<seed>-t<trace>/,
which keeps the raw runner output (result.json) and, for --trace 1, the
Chrome trace (trace.json).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports every
end_to_end metric of BENCHMARK.json, --trace 1 every per_layer metric.
The line before it carries the run details (seed, host profile, sample
counts, offered load, speedup over the best sequential solve).
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "msfbench"
WORK = ROOT / ".bench_work"
RUNNER_TIMEOUT_S = 150


def log(msg):
    print(f"msfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (a no-op once cached) and builds only the two targets the
    runs need."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("no smpmsf sources next to msfbench/ - nothing to build")
    # Compilers and the runner keep their temporary files in the checkout.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                    "msfbench_runner", "smpmsf_server"],
                   check=True, stdout=sys.stderr)
    return BUILD / "msfbench-runner", BUILD / "smpmsf-tools" / "smpmsf-server"


def run_measurement(cmd):
    """Runs the runner in its own process group so a timeout also stops the
    server it started; waits for every process to end."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"runner did not finish within {RUNNER_TIMEOUT_S} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RuntimeError(f"runner exited with status {proc.returncode}")
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError("runner printed no result")
    return json.loads(lines[-1])


def get(doc, path):
    for key in path.split("."):
        doc = doc[key]
    return float(doc)


def derived_values(raw):
    """End-to-end sums and the per-layer numbers read from the server's
    `stats` documents taken before and after the measured window.

    Counters are differenced over the window.  `stats` has no reset and its
    percentiles and queue high-water mark are not differencable, so the
    server-side p50s and serve.max_queue_depth cover the server's lifetime;
    before the window that is only the eight sequential warm-up requests
    (one each of the mix's kinds, pathmax twice), so they are the window's
    figures to within those requests."""
    v = dict(raw["values"])
    v["setup_s"] = v["graph.load_s"] + v["serve.setup_s"]
    v["peak_rss_mb"] = v["core.peak_rss_mb"] + v["serve.peak_rss_mb"]
    before, after = raw["detail"]["stats_before"], raw["detail"]["stats_after"]

    def delta(path):
        return get(after, path) - get(before, path)

    writes = delta("coalescing.coalesced_writes")
    hits, misses = delta("query_index.hits"), delta("query_index.misses")
    fsyncs = delta("persist.fsyncs")
    v["serve.max_queue_depth"] = get(after, "queue.max_depth")
    v["serve.rejected"] = (delta("queue.rejected_overload")
                           + delta("serving.rejected_rate_limited"))
    v["serve.write_server_p50_ms"] = get(after, "ops.insert.latency_us.p50") / 1e3
    v["serve.query_server_p50_ms"] = get(after, "ops.pathmax.latency_us.p50") / 1e3
    v["query.index_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    v["persist.wal_bytes_per_write"] = delta("persist.wal_bytes") / writes if writes else 0.0
    v["persist.writes_per_fsync"] = writes / fsyncs if fsyncs else 0.0
    v["net.client_overhead_us"] = (v["client_connected_p50_us"]
                                   - get(after, "ops.connected.latency_us.p50"))
    return v


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink graph and offered rate (smoke tests)")
    ap.add_argument("--corrupt", choices=("forest", "reply"),
                    help="damage one checked result (gate tests)")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise SystemExit(f"unknown workload {args.workload}")
    runner, server = build()

    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [str(runner), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", str(server), "--work", str(work), "--scale", str(args.scale)]
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    try:
        raw = run_measurement(cmd)
    finally:
        # Keep only the small artefacts; graph files and data dirs go.
        for p in work.iterdir():
            if p.name != "trace.json":
                shutil.rmtree(p) if p.is_dir() else p.unlink()
    (work / "result.json").write_text(json.dumps(raw, indent=1) + "\n")

    values = derived_values(raw)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in declared:
        value = values.get(m["name"])
        if value is None or not math.isfinite(value):
            raise RuntimeError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    detail = {k: val for k, val in raw["detail"].items()
              if k not in ("stats_before", "stats_after")}
    detail["errors"] = raw["errors"]
    print(json.dumps({"detail": detail}))
    correct = raw["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.CalledProcessError,
            json.JSONDecodeError, KeyError) as exc:
        log(f"error: {exc}")
        sys.exit(1)
