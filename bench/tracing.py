"""Span tracing of molrmog's public functions, installed from outside the package.

`Tracer.install` rebinds every module-level name through which molrmog code
(and this benchmark) looks up one of the traced functions, so a call made
inside `objective.estimation_gap_experiment` to its imported `encode` passes
through the same wrapper as a direct call.  Nothing in `src/` is edited.

Spans are kept in memory as flat tuples and reduced to per-layer metrics after
the traced phase.  A span's self time is its duration minus its direct
children; the wrapper's own bookkeeping (argument inspection, repeat
detection, stat of written files) is recorded as `trace.bookkeeping`
pseudo-spans so it is charged to no layer.
"""

from __future__ import annotations

import functools
import math
import time
import weakref
from collections import defaultdict
from pathlib import Path

# timed layers; schedule.coefficients is only counted (too cheap to time)
LAYERS = ("model", "score", "calculus", "objective", "optimizer", "sampler", "cli")
SUBCOMMANDS = ("gen", "score-check", "estimation", "hessian", "overlap", "train",
               "sample", "report")

# per-span metrics, reported as "<span>.<statistic>"
SPAN_METRICS = (
    ("score.latent_score", "calls self_s rows ns_per_row_comp"),
    ("score.ambient_score", "calls self_s rows ns_per_row_comp"),
    ("score.ambient_responsibilities", "self_s"),
    ("model.encode", "calls self_s repeat_frac"),
    ("model.sample_data", "self_s"),
    ("model.forward_noise", "self_s"),
    ("objective.stacked_errors", "calls self_s"),
    ("objective.estimation_gap_experiment", "self_s"),
    ("sampler.reverse_sample", "self_s"),
    ("sampler.sample_quality", "self_s"),
    ("calculus.exact_jacobian.free", "calls self_s rows"),
    ("calculus.exact_jacobian.tied", "calls self_s"),
    ("calculus.hessian_empirical", "self_s"),
    ("calculus.sample_noised", "self_s"),
    ("calculus.score_of", "calls repeat_frac"),
    ("optimizer.loss_and_grad", "calls self_s"),
    ("optimizer.estimate_local_constants", "self_s"),
    ("cli.write_csv", "self_s"),
)

BOOKKEEPING = "trace.bookkeeping"
OP = "harness.op"


def _arg(args, kwargs, i: int, name: str):
    """Argument i of a traced call, whether passed by position or name."""
    return args[i] if len(args) > i else kwargs[name]


def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    k = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
    return ordered[k]


class Tracer:
    """In-memory span recorder with per-op repeat detection."""

    def __init__(self):
        # (name, parent index, start, end, rows, comps, repeat)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.coefficient_calls = 0
        self._seen: dict[tuple, tuple] = {}
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None, 0, 0, False])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def _bookkeeping(self, start: float) -> None:
        """Record [start, now] as an unattributed child of the open span."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([BOOKKEEPING, parent, start, time.perf_counter(), 0, 0, False])

    def _repeat(self, key_objs: tuple, extra) -> bool:
        """True if these objects (by identity, checked alive) plus `extra`
        were already passed earlier in the current op."""
        key = tuple(id(o) for o in key_objs) + (extra,)
        refs = self._seen.get(key)
        if refs is not None and all(r() is o for r, o in zip(refs, key_objs)):
            return True
        try:
            self._seen[key] = tuple(weakref.ref(o) for o in key_objs)
        except TypeError:  # object without weakref support: never a repeat
            pass
        return False

    def span(self, name: str, fn, info=None, post=None):
        """Wrap fn so each call records a span.

        info(args, kwargs) -> (name, rows, comps, repeat) runs before the span
        opens; post(args, kwargs, result) -> rows runs after it closes; both
        are charged to bookkeeping.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sname, rows, comps, repeat = name, 0, 0, False
            if info is not None:
                t0 = time.perf_counter()
                sname, rows, comps, repeat = info(args, kwargs)
                self._bookkeeping(t0)
            idx = self._open(sname)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            rec = self.spans[idx]
            rec[4], rec[5], rec[6] = rows, comps, repeat
            if post is not None:
                t0 = time.perf_counter()
                rec[4] = post(args, kwargs, result)
                self._bookkeeping(t0)
            return result

        return traced

    def op(self, fn):
        """Run one workload op under a root span; repeats reset per op."""
        self._seen.clear()
        idx = self._open(OP)
        try:
            return fn()
        finally:
            self._close(idx)

    # -- installation -------------------------------------------------------

    def _rebind(self, modules, attr: str, wrapper_for) -> None:
        owner = modules[0]
        orig = getattr(owner, attr)
        wrapped = wrapper_for(orig)
        for mod in modules:
            if getattr(mod, attr, None) is orig:
                self._restore.append((mod, attr, orig))
                setattr(mod, attr, wrapped)

    def install(self) -> None:
        """Rebind the traced names in every molrmog module that holds them."""
        import molrmog
        import molrmog.cli as cli
        from molrmog import (calculus, model, objective, optimizer, sampler,
                             schedule, score)

        mods = [molrmog, schedule, model, score, calculus, objective, optimizer,
                sampler, cli]
        SymmetricParams = score.SymmetricParams

        def owner_first(owner):
            return [owner] + [m for m in mods if m is not owner]

        def plain(owner, attr, info=None, post=None):
            name = f"{owner.__name__.split('.')[-1]}.{attr}"
            self._rebind(owner_first(owner), attr,
                         lambda f: self.span(name, f, info, post))

        def counted(f):
            @functools.wraps(f)
            def counting(*args, **kwargs):
                self.coefficient_calls += 1
                return f(*args, **kwargs)
            return counting

        self._rebind(owner_first(schedule), "coefficients", counted)

        def encode_info(a, k):
            sub, x = _arg(a, k, 0, "sub"), _arg(a, k, 1, "x")
            return "model.encode", _rows(x), 0, self._repeat((sub, x), None)

        plain(model, "encode", encode_info)
        for attr in ("sample_data", "forward_noise", "build_model"):
            plain(model, attr)

        def latent_info(a, k):
            comps = len(_arg(a, k, 0, "params").components)
            return "score.latent_score", _rows(_arg(a, k, 4, "x")), comps, False

        def ambient_info(a, k):
            comps = sum(len(s.components) for s in _arg(a, k, 0, "model").subspaces)
            return "score.ambient_score", _rows(_arg(a, k, 3, "x")), comps, False

        plain(score, "latent_score", latent_info)
        plain(score, "ambient_score", ambient_info)
        for attr in ("ambient_responsibilities", "ambient_log_density",
                     "mixture_log_density"):
            plain(score, attr)

        def score_of_info(a, k):
            params, x = _arg(a, k, 0, "params"), _arg(a, k, 4, "x")
            repeat = self._repeat((params, x), float(_arg(a, k, 3, "t")))
            return "calculus.score_of", _rows(x), 0, repeat

        def jacobian_info(a, k):
            params = _arg(a, k, 0, "params")
            kind = "tied" if isinstance(params, SymmetricParams) else "free"
            return f"calculus.exact_jacobian.{kind}", _rows(_arg(a, k, 4, "X")), 0, False

        plain(calculus, "score_of", score_of_info)
        plain(calculus, "exact_jacobian", jacobian_info)
        for attr in ("sample_noised", "hessian_empirical", "overlap_analysis"):
            plain(calculus, attr)

        for attr in ("stacked_errors", "estimation_gap_experiment", "make_theta_grid"):
            plain(objective, attr)
        for attr in ("loss_and_grad", "estimate_local_constants", "gd_train",
                     "init_near", "contraction_check"):
            plain(optimizer, attr)
        for attr in ("reverse_sample", "sample_quality"):
            plain(sampler, attr)

        def csv_bytes(a, k, result):
            return Path(_arg(a, k, 0, "path")).stat().st_size

        plain(cli, "write_csv", post=csv_bytes)
        plain(cli, "run")
        for sub in SUBCOMMANDS:
            orig = cli.DISPATCH[sub]
            self._restore.append((cli.DISPATCH, sub, orig))
            cli.DISPATCH[sub] = self.span(f"cli.{sub}", orig)

    def uninstall(self) -> None:
        for target, attr, orig in reversed(self._restore):
            if isinstance(target, dict):
                target[attr] = orig
            else:
                setattr(target, attr, orig)
        self._restore.clear()

    # -- reduction ------------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, parent, start, end, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[3] - s[2] - c for s, c in zip(self.spans, child)]

    def _gaps(self, parent_name: str, child_name: str | None) -> list[float]:
        """Per-iteration durations: from each direct child's start to the next
        one's, the last one ending with the parent."""
        kids = defaultdict(list)
        for name, parent, start, *_rest in self.spans:
            if parent >= 0 and self.spans[parent][0] == parent_name and (
                    child_name is None or name == child_name) and name != BOOKKEEPING:
                kids[parent].append(start)
        out = []
        for parent, starts in kids.items():
            starts.sort()
            ends = starts[1:] + [self.spans[parent][3]]
            out.extend(e - s for s, e in zip(starts, ends))
        return out

    def metrics(self, n_ops: int) -> dict[str, float]:
        """Per-op layer metrics named as in BENCHMARK.json (units there)."""
        selfs = self.self_times()
        calls = defaultdict(int)
        self_s = defaultdict(float)
        incl = defaultdict(float)
        rows = defaultdict(int)
        row_comps = defaultdict(int)
        repeats = defaultdict(int)
        layer_self = defaultdict(float)
        for (name, _p, start, end, r, c, rep), st in zip(self.spans, selfs):
            calls[name] += 1
            self_s[name] += st
            incl[name] += end - start
            rows[name] += r
            row_comps[name] += r * c
            repeats[name] += int(rep)
            layer_self[name.split(".")[0]] += st

        per = 1.0 / n_ops
        stat = {
            "calls": lambda n: calls[n] * per,
            "self_s": lambda n: self_s[n] * per,
            "rows": lambda n: rows[n] * per,
            "ns_per_row_comp": lambda n: (1e9 * self_s[n] / row_comps[n]
                                          if row_comps[n] else 0.0),
            "repeat_frac": lambda n: repeats[n] / calls[n] if calls[n] else 0.0,
        }
        m = {}
        for span, stats in SPAN_METRICS:
            for st in stats.split():
                m[f"{span}.{st}"] = stat[st](span)
        steps = self._gaps("sampler.reverse_sample", None)
        iters = self._gaps("optimizer.gd_train", "optimizer.loss_and_grad")
        for name, gaps in (("sampler.step_ms", steps), ("optimizer.iter_ms", iters)):
            m[f"{name}.p50"] = 1e3 * _percentile(gaps, 50)
            m[f"{name}.p99"] = 1e3 * _percentile(gaps, 99)
        gd_calls = calls["optimizer.gd_train"]
        m["optimizer.gd_iters"] = len(iters) / gd_calls if gd_calls else 0.0
        m["schedule.coefficients.calls"] = self.coefficient_calls * per
        for sub in SUBCOMMANDS:
            m[f"cli.{sub}.wall_s"] = incl[f"cli.{sub}"] * per
        m["cli.write_csv.bytes"] = rows["cli.write_csv"] * per  # post() stores bytes
        m["cli.self_s"] = layer_self["cli"] * per
        for layer in LAYERS:
            m[f"layer.{layer}.self_s"] = layer_self[layer] * per
        m["harness.self_s"] = layer_self["harness"] * per
        m["trace.bookkeeping_s"] = layer_self["trace"] * per
        m["trace.wall_s"] = incl[OP] * per
        return m

    def dump(self, path: Path) -> None:
        """Write every span as CSV: name, parent, start, end, self, rows, comps, repeat."""
        selfs = self.self_times()
        lines = ["index,name,parent,start_s,end_s,self_s,rows,comps,repeat"]
        t0 = self.spans[0][2] if self.spans else 0.0
        for i, ((name, parent, start, end, r, c, rep), st) in enumerate(zip(self.spans, selfs)):
            lines.append(f"{i},{name},{parent},{start - t0!r},{end - t0!r},{st!r},{r},{c},{int(rep)}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
