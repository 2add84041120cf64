"""molrmog benchmark: four workloads, end-to-end metrics, traced per-layer metrics.

    python3 bench/run.py --workload estimation --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 12 --trace 0

Run from the repository root.  Every measurement happens in a fresh child
interpreter (bench/child.py) started with the BLAS thread variables set to 1,
single-threaded.  With --trace 0 the run reports the end-to-end metrics
(wall_s, setup_s, peak_rss_mb; fail_frac as failed/attempted checks); with
--trace 1 it reports the per-layer metrics of a traced run instead.  The last
line of stdout is one JSON object; the lines before it print every metric with
its unit, the environment, and the statistical gate values that are recorded
rather than checked.  Raw results and spans go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("estimation", "sampling", "curvature", "pipeline")
# launches per run whose launch-to-ready time is a setup_s sample
SETUP_LAUNCHES = 5
# a run must end within 180 s; leave room to stop a stuck child
DEADLINE_S = 170.0
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
                "NUMEXPR_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def metric_units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json names it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def tail(values):
    """(percentile, value) for the highest of the usual percentiles that has at
    least ten samples beyond it, or None when there are fewer than 20 samples."""
    n = len(values)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - p / 100.0) >= 10:
            ordered = sorted(values)
            return p, ordered[max(0, math.ceil(p / 100.0 * n) - 1)]
    return None


def launch(args, name: str, mode: str, deadline: float):
    """Start one child; return (launch-to-READY seconds, Popen)."""
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--mode", mode]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ, **BLAS_THREADS)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    try:
        while True:
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([proc.stdout], [], [], max(0.0, remaining))
            if not ready:
                raise BenchError(f"{name}: child did not set up in time")
            line = proc.stdout.readline()
            if not line:
                raise BenchError(f"{name}: child exited during set-up "
                                 f"(code {proc.wait()})")
            if line.strip() == b"READY":
                return time.perf_counter() - t0, proc
    except BaseException:
        stop(proc)
        raise


def stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def finish(proc, deadline: float, name: str) -> dict | None:
    """Wait for the child; return its result line (None for a set-up launch)."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError(f"{name}: run exceeded the time limit")
    if proc.returncode != 0:
        raise BenchError(f"{name}: child exited with code {proc.returncode}")
    lines = out.decode("utf-8").strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def run_workload(args, name: str, deadline: float) -> dict:
    setup, speed = [], []  # raw set-up seconds; kernel time over nominal

    def setup_only(count):
        for _ in range(count):
            s, proc = launch(args, name, "setup", deadline)
            setup.append(s)
            speed.append(finish(proc, deadline, name)["kernel_over_nominal"])

    # set-up samples before and after the timed run, so that they span the
    # machine's state over the whole run rather than a few seconds of it
    extra = 0 if args.trace else SETUP_LAUNCHES - 1
    setup_only(extra // 2)
    s, proc = launch(args, name, "run", deadline)
    raw = finish(proc, deadline, name)
    if raw is None:
        raise BenchError(f"{name}: child printed no result")
    setup_only(extra - extra // 2)
    checks = raw["checks"]
    failed = sum(1 for c in checks if not c[1])
    res = {"workload": name, "seed": args.seed, "trace": args.trace, "env": raw["env"],
           "attempted": len(checks), "failed": failed, "error": raw["error"],
           "checks": checks, "values": raw["values"], "op_walls": raw["op_walls"]}
    if args.trace:
        units = metric_units()
        res["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in raw["layers"].items()}
        res["traced_walls"] = raw["traced_walls"]
        res["spans_file"] = raw["spans_file"]
    else:
        setup.append(s)
        speed.append(raw["kernel_over_nominal"])
        res.update(ref_walls=raw["ref_walls"], op_scaled=raw["op_scaled"],
                   setup_samples=setup, setup_kernel_over_nominal=speed)
        values = {"wall_s": statistics.median(raw["op_scaled"]),
                  "setup_s": statistics.median(t / k for t, k in zip(setup, speed)),
                  "peak_rss_mb": raw["peak_rss_mb"]}
        units = metric_units()
        res["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return res


def report(res: dict) -> None:
    name = res["workload"]
    env = dict(res["env"])
    sizes = env.pop("sizes")
    print(f"[{name}] env {json.dumps(env, sort_keys=True)}")
    print(f"[{name}] sizes {json.dumps(sizes, sort_keys=True)}")
    for key, m in res["metrics"].items():
        print(f"[{name}] {key} = {m['value']:.6g} {m['unit']}")
    walls = res["op_walls"]
    if not res["trace"]:
        t = tail(walls)
        spread = (f"p{t[0]:g} {t[1]:.6g} s" if t else
                  "no percentile has ten samples beyond it")
        print(f"[{name}] raw wall_s over {len(walls)} ops: median "
              f"{statistics.median(walls):.6g} s, {spread}; reference kernel median "
              f"{statistics.median(res['ref_walls']):.4g} s")
        print(f"[{name}] raw setup_s over {len(res['setup_samples'])} launches: "
              + ", ".join(f"{s:.4g}" for s in res["setup_samples"])
              + "; kernel time over nominal "
              + ", ".join(f"{s:.4g}" for s in res["setup_kernel_over_nominal"]))
    else:
        print(f"[{name}] traced ops {len(res['traced_walls'])}, untraced ops {len(walls)}; "
              f"spans in {res['spans_file']}")
    frac = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"[{name}] fail_frac = {frac:.6g} frac ({res['failed']} of {res['attempted']} checks)")
    for c in res["checks"]:
        if not c[1]:
            print(f"[{name}] FAILED check {c[0]}: value {c[2]!r} limit {c[3]!r}")
    if res["error"]:
        print(f"[{name}] op raised: {res['error']}")
    if res["values"]:
        print(f"[{name}] recorded values (last op) {json.dumps(res['values'][-1], default=float)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own smoke test")
    args = ap.parse_args(argv)

    missing = [p for p in ("src/molrmog/__init__.py", "configs/example.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a molrmog checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            res = run_workload(args, name, deadline)
            out_dir = BENCH / "out"
            out_dir.mkdir(exist_ok=True)
            (out_dir / f"result-{name}-s{args.seed}-trace{args.trace}.json").write_text(
                json.dumps(res, indent=1, default=float) + "\n", encoding="utf-8")
            report(res)
            results.append(res)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
