"""One benchmark process: set up a workload, then (unless --mode setup) time it.

Started by run.py in a fresh interpreter with the BLAS thread variables
already set.  Prints `READY` once the inputs exist (run.py times launch to
that line as `setup_s`) and, in run mode, one JSON line with the raw results.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

t_import = time.perf_counter()
import molrmog.cli  # noqa: E402

IMPORT_S = time.perf_counter() - t_import

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def environment(wl) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cpu_count": os.cpu_count(),
        "blas_threads_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "sizes": wl.sizes,
    }


# Reference kernel: a fixed mix of the work molrmog does, with no molrmog
# code: small matmuls, exp/sum reductions, tiny solves and interpreter loops
# on an L2-sized array, then reductions over a 3 MB array.  This shared
# machine's speed drifts by up to 40% between runs; op time over the kernel's
# time measured beside it drifts far less.
REF_SMALL_ITERS = 600
REF_LARGE_ITERS = 20


class ReferenceKernel:
    """Allocates its arrays once (about 7 MB, resident from the first call
    on), so its share of peak_rss_mb is a constant offset."""

    nominal = 0.25  # seconds; scaled time = raw time * nominal / kernel time

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal((4000, 6))
        self.large = rng.standard_normal((65536, 6))
        self.A = rng.standard_normal((6, 2))
        self.y = np.empty((65536, 2))
        self.z = np.empty_like(self.large)

    def __call__(self) -> float:
        eye, ones = np.eye(3), np.ones(3)
        acc = 0.0
        t0 = time.perf_counter()
        for i in range(REF_SMALL_ITERS):
            y = self.small @ self.A
            acc += float(np.exp(-0.5 * np.sum(y * y, axis=1)).sum())
            acc += sum(j * 0.5 for j in range(200))
            acc += float(np.linalg.solve(eye + 0.1 * i, ones)[0])
        for _ in range(REF_LARGE_ITERS):
            np.matmul(self.large, self.A, out=self.y)
            acc += float(np.exp(-0.5 * np.einsum("ij,ij->i", self.y, self.y)).sum())
            np.subtract(self.large, self.large.mean(axis=0), out=self.z)
            np.multiply(self.z, self.z, out=self.z)
            acc += float(self.z.sum())
        wall = time.perf_counter() - t0
        if not np.isfinite(acc):
            raise RuntimeError("reference kernel produced a non-finite result")
        return wall


class SpawnKernel:
    """Starts an interpreter that imports numpy, scipy.linalg and
    scipy.special.  Process start and import dominate every pipeline
    subcommand, and the compute kernel does not track their speed: over ten
    pipeline runs, scaled wall_s spread 8% (quartile distance over median)
    where raw wall_s spread 24%."""

    nominal = 0.5

    def __call__(self) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy, scipy.linalg, scipy.special"],
                       check=True, timeout=60)
        return time.perf_counter() - t0


class Segments:
    """Splits timed work into segments, each followed by one kernel run
    outside the timed interval.  A segment's scaled time is its raw time *
    kernel.nominal / the mean of the kernel times just before and after it."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.refs = [kernel()]
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self._t0 = 0.0

    def start(self) -> None:
        self._t0 = time.perf_counter()

    def cut(self) -> None:
        """End the current segment and start the next one."""
        wall = time.perf_counter() - self._t0
        self.refs.append(self.kernel())
        self.raw.append(wall)
        mean_ref = 0.5 * (self.refs[-2] + self.refs[-1])
        self.scaled.append(wall * self.kernel.nominal / mean_ref)
        self.start()


def timed_phase(wl, budget: float, state: dict, tracer=None, kernel=None,
                scaled=None) -> list[float]:
    """Repeat the op for about `budget` seconds of op time and return the raw
    op walls.  Runs at least one op, and no further op once half a mean op
    more would pass the budget.  Checks run between ops, outside the timed
    interval.  With a kernel, ops are timed by Segments (an op may cut itself
    into several) and their scaled walls are appended to `scaled`."""
    walls = []
    seg = Segments(kernel) if kernel is not None else None
    while not walls or sum(walls) + 0.5 * sum(walls) / len(walls) < budget:
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                res = tracer.op(lambda: wl.op(tracer=tracer))
            elif seg is not None:
                first = len(seg.raw)
                seg.start()
                res = wl.op(cut=seg.cut)
                seg.cut()
            else:
                res = wl.op()
        except Exception:  # a raising op fails all of its checks
            traceback.print_exc()
            state["checks"].extend(workloads.failed_checks(wl.planned))
            state["error"] = traceback.format_exc(limit=1).strip().splitlines()[-1]
            break
        if seg is not None:
            walls.append(sum(seg.raw[first:]))
            scaled.append(sum(seg.scaled[first:]))
        else:
            walls.append(time.perf_counter() - t0)
        state["checks"].extend(wl.check(res))
        state["values"].append(wl.values(res))
    if seg is not None:
        state["refs"] = seg.refs
    return walls


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    wl = workloads.make(args.workload, args.seed, args.smoke, ROOT)
    wl.setup()
    print("READY", flush=True)
    compute = ReferenceKernel()
    setup_speed = compute() / compute.nominal
    if args.mode == "setup":
        print(json.dumps({"kernel_over_nominal": setup_speed}), flush=True)
        return 0

    state = {"checks": [], "values": [], "error": None}
    out = {"env": environment(wl)}
    if not args.trace:
        scaled = []
        kernel = SpawnKernel() if wl.spawns_processes else compute
        out["op_walls"] = timed_phase(wl, args.seconds, state, kernel=kernel, scaled=scaled)
        out["op_scaled"] = scaled
        out["ref_walls"] = state.get("refs", [])
        out["kernel_over_nominal"] = setup_speed
        out["peak_rss_mb"] = (wl.peak_rss_mb() if hasattr(wl, "peak_rss_mb") else
                              resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    else:
        if args.workload == "pipeline":
            # traced in-process, so its untraced reference runs in-process too
            wl.in_process = True
        untraced = timed_phase(wl, args.seconds / 2, state)
        tracer = Tracer()
        tracer.install()
        cpu0 = time.process_time()
        try:
            traced = timed_phase(wl, args.seconds / 2, state, tracer)
        finally:
            tracer.uninstall()
        cpu = time.process_time() - cpu0
        n = max(1, len(traced))
        layers = tracer.metrics(n)
        layers["cli.import_s"] = IMPORT_S
        layers["proc.cpu_s"] = cpu / n
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        out["layers"] = layers
        out["op_walls"] = untraced
        out["traced_walls"] = traced
        spans = ROOT / "bench" / "out" / f"spans-{args.workload}-s{args.seed}.csv"
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(spans)
        out["spans_file"] = str(spans.relative_to(ROOT))
    try:
        state["checks"].extend(wl.final_checks())
    except Exception:
        traceback.print_exc()
        state["error"] = state["error"] or "final checks raised"
        state["checks"].extend(workloads.failed_checks(["final_checks"]))
    out["checks"] = [c.row() for c in state["checks"]]
    out["values"] = state["values"]
    out["error"] = state["error"]
    print(json.dumps(out, default=float), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
