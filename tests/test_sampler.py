import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from conftest import prior_init

from molrmog import score
from molrmog.errors import DimensionMismatch, NaNDetected, ValidationError
from molrmog.model import build_model
from molrmog.sampler import (
    SamplerConfig,
    model_score_fn,
    reverse_sample,
    sample_quality,
)
from molrmog.schedule import make_schedule

@pytest.fixture
def thread_starts(monkeypatch):
    """List every thread started, with the process reporting two CPUs, so
    that a sampler choosing a thread by CPU count would start one."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    started = []
    start = threading.Thread.start

    def recorded(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recorded)
    return started


def centered_gaussian_score(sched, var0):
    """Exact score of N(0, (s^2 var0 + gamma^2) I) at every time."""

    def fn(x, t):
        v = sched.s(t) ** 2 * var0 + sched.gamma(t) ** 2
        return -x / v

    return fn


def test_config_validation():
    with pytest.raises(ValidationError):
        SamplerConfig(steps=-1, n=10)
    with pytest.raises(ValidationError):
        SamplerConfig(steps=10, n=0)


def test_zero_steps_returns_init(vp_sched, thread_starts):
    init = np.random.default_rng(0).standard_normal((5, 3))
    out = reverse_sample(lambda x, t: -x, vp_sched, SamplerConfig(steps=0, n=5), init=init)
    assert np.array_equal(out, init)
    out[:] = 0.0
    assert not np.array_equal(out, init)  # returned array is a copy
    assert thread_starts == []


def test_init_validation(vp_sched, thread_starts):
    with pytest.raises(DimensionMismatch):
        reverse_sample(lambda x, t: -x, vp_sched, SamplerConfig(steps=1, n=5),
                       init=np.zeros(5))
    # init must agree with cfg.n, before any draw or thread
    with pytest.raises(DimensionMismatch, match=r"\(7, 3\)"):
        reverse_sample(lambda x, t: -x, vp_sched, SamplerConfig(steps=5, n=10),
                       init=np.zeros((7, 3)))
    assert thread_starts == []
    out = reverse_sample(lambda x, t: -x, vp_sched, SamplerConfig(steps=0, n=7),
                         init=np.ones((7, 3)))
    assert np.array_equal(out, np.ones((7, 3)))


def test_reproducible_for_fixed_seed(vp_sched):
    cfg = SamplerConfig(steps=50, n=200, seed=42)
    a = reverse_sample(lambda x, t: -x, vp_sched, cfg, init=prior_init(vp_sched, cfg, 2))
    b = reverse_sample(lambda x, t: -x, vp_sched, cfg, init=prior_init(vp_sched, cfg, 2))
    assert np.array_equal(a, b)


def test_single_gaussian_closure():
    """Reversing a pure Gaussian forward process recovers its marginal at
    t_min: mean 0 and the predicted isotropic variance."""
    sched = make_schedule("vp", 8.0, 0.01, 1.0)
    var0 = 0.5
    score = centered_gaussian_score(sched, var0)
    cfg = SamplerConfig(steps=400, n=60000, seed=1)
    y = reverse_sample(score, sched, cfg, init=prior_init(sched, cfg, 2))
    v_target = sched.s(0.01) ** 2 * var0 + sched.gamma(0.01) ** 2
    assert np.mean(y, axis=0) == pytest.approx([0.0, 0.0], abs=0.02)
    assert np.var(y, axis=0) == pytest.approx([v_target, v_target], rel=0.05)


def test_step_refinement_reduces_moment_error():
    """Trial-averaged variance error of the Gaussian closure does not grow
    when the step count doubles."""
    sched = make_schedule("vp", 8.0, 0.01, 1.0)
    var0 = 0.5
    score = centered_gaussian_score(sched, var0)
    v_target = sched.s(0.01) ** 2 * var0 + sched.gamma(0.01) ** 2
    errs = []
    for steps in (25, 400):
        trial = []
        for seed in range(4):
            cfg = SamplerConfig(steps=steps, n=20000, seed=seed)
            y = reverse_sample(score, sched, cfg, init=prior_init(sched, cfg, 1))
            trial.append(abs(np.var(y) - v_target))
        errs.append(np.mean(trial))
    assert errs[1] < errs[0]


def test_nan_detection(vp_sched):
    def bad_score(x, t):
        return np.full_like(x, np.nan)

    with pytest.raises(NaNDetected):
        cfg = SamplerConfig(steps=5, n=4)
        reverse_sample(bad_score, vp_sched, cfg, init=prior_init(vp_sched, cfg, 2))
    # one NaN, +inf or -inf entry at step k is caught at that step by the
    # state's min and max
    k = 3
    for value in (np.nan, np.inf, -np.inf):
        calls = []

        def score_fn(x, t):
            calls.append(t)
            out = -x
            if len(calls) == k + 1:
                out[1, 0] = value  # the state's entry turns to value too
            return out

        with pytest.raises(NaNDetected, match=f"at reverse step {k}$"):
            cfg = SamplerConfig(steps=6, n=4)
            reverse_sample(score_fn, vp_sched, cfg, init=prior_init(vp_sched, cfg, 2))
        assert len(calls) == k + 1, value


def test_fill_scales_without_a_ufunc_buffer(vp_sched, monkeypatch):
    """Each step scales its C-ordered draw into the column-major noise buffer
    through the transposes, so numpy's iterator allocates no 64 KB buffer:
    from a step's draw to the next step's score, a (5000, 4) call's traced
    peak rises less than 8 KB above the arrays it holds at the draw."""
    rises = []
    after_draw = []

    class PeakAfterDraw:
        def __init__(self, seed):
            self._rng = np.random.Generator(np.random.PCG64(seed))

        def standard_normal(self, *args, **kwargs):
            drawn = self._rng.standard_normal(*args, **kwargs)
            after_draw.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return drawn

    def score_fn(x, t):
        if after_draw:
            rises.append(tracemalloc.get_traced_memory()[1] - after_draw[-1])
        return x

    cfg = SamplerConfig(steps=4, n=5000, seed=5)
    init = prior_init(vp_sched, cfg, 4)
    monkeypatch.setattr(np.random, "default_rng", PeakAfterDraw)
    reverse_sample(score_fn, vp_sched, cfg, init=init)  # one-time allocations
    rises.clear()
    after_draw.clear()
    tracemalloc.start()
    try:
        reverse_sample(score_fn, vp_sched, cfg, init=init)
    finally:
        tracemalloc.stop()
    assert len(rises) == cfg.steps - 1
    assert max(rises) < 8 * 1024, rises


class ScoreFailed(Exception):
    pass


@pytest.mark.parametrize("failure", ["score_raises", "nan", "score_raises_at_0"],
                         ids=lambda failure: f"{failure}-inline")  # the inline noise draw
def test_failing_step_leaves_no_thread(vp_sched, thread_starts, failure):
    """A score that raises at step k, or turns the state non-finite there,
    ends the call with its own exception, at step 0 too, and no thread runs
    beside any step."""
    before = threading.active_count()
    during = []
    k = 0 if failure == "score_raises_at_0" else 3

    def score_fn(x, t):
        during.append(threading.active_count())
        if len(during) == k + 1:
            if failure != "nan":
                raise ScoreFailed(f"step {k}")
            return np.full_like(x, np.nan)
        return -x

    expected = ScoreFailed if failure != "nan" else NaNDetected
    cfg = SamplerConfig(steps=20, n=50, seed=1)
    with pytest.raises(expected, match=f"step {k}"):
        reverse_sample(score_fn, vp_sched, cfg, init=prior_init(vp_sched, cfg, 2))
    assert len(during) == k + 1
    assert during == [before] * (k + 1)
    assert threading.active_count() == before
    assert thread_starts == []


def test_memory_is_bounded_in_steps(vp_sched, thread_starts):
    """The step buffers are reused, not kept per step, and no thread is
    started: the traced peak of a 400-step call exceeds that of a 4-step
    call by less than one (n, D) buffer (the time grid is the O(steps) part)."""
    n, dim = 5000, 4
    peaks = []
    for steps in (4, 4, 400):  # the first call also makes one-time allocations
        cfg = SamplerConfig(steps=steps, n=n)
        init = prior_init(vp_sched, cfg, dim)
        tracemalloc.start()
        try:
            reverse_sample(lambda x, t: -x, vp_sched, cfg, init=init)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert thread_starts == []
    assert peaks[2] - peaks[1] < n * dim * 8


def test_reverse_sample_factors_the_model_once(vp_sched, monkeypatch):
    """A 25-step reverse_sample through model_score_fn builds the
    t-independent stage of the ambient kernel once, the model's cached
    `ambient_mixture`; each step only rescales it for its t."""
    built = []
    init = score.FactoredMixture.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(score.FactoredMixture, "__init__", counted)
    model = build_model({"D": 3, "subspaces": [{"d": 2, "A_seed": 7, "components": [
        {"pi": 0.5, "mu": [1.0, 0.0], "U": [[0.5], [0.1]]},
        {"pi": 0.5, "mu": [-1.0, 0.5], "U": [[0.2, 0.1], [0.4, 0.0]]}]}]})
    cfg = SamplerConfig(steps=25, n=50, seed=1)
    reverse_sample(model_score_fn(model, vp_sched), vp_sched, cfg,
                   init=prior_init(vp_sched, cfg, model.D))
    assert len(built) == 1 and built[0] is model.ambient_mixture


def test_mixture_sampling_quality():
    model = build_model({
        "D": 4,
        "subspaces": [{
            "d": 2,
            "A_seed": 7,
            "components": [
                {"pi": 0.5, "mu": [2.0, 0.0], "U": [[0.6], [0.1]]},
                {"pi": 0.5, "mu": [-2.0, 0.5], "U": [[0.2], [0.5]]},
            ],
        }],
    })
    sched = make_schedule("vp", 8.0, 0.01, 1.0)
    cfg = SamplerConfig(steps=300, n=20000, seed=3)
    y = reverse_sample(model_score_fn(model, sched), sched, cfg, init=prior_init(sched, cfg, 4))
    rep = sample_quality(y, model, sched, sched.t_min)
    assert len(rep.rows) == 2
    assert sum(r.weight_emp for r in rep.rows) == pytest.approx(1.0, abs=1e-12)
    assert rep.max_weight_err < 0.02
    assert rep.max_mean_err < 0.1
    with pytest.raises(DimensionMismatch):
        sample_quality(y[:, :3], model, sched, sched.t_min)


def test_quality_on_direct_forward_samples(unit_sched):
    """Forward-noised true data scores perfectly on its own diagnostics."""
    from molrmog.model import forward_noise, sample_data

    model = build_model({
        "D": 3,
        "subspaces": [{
            "d": 1,
            "A_seed": 2,
            "components": [
                {"pi": 0.5, "mu": [4.0], "U": [[0.3]]},
                {"pi": 0.5, "mu": [-4.0], "U": [[0.3]]},
            ],
        }],
    })
    rng = np.random.default_rng(9)
    data = sample_data(model, 30000, rng)
    xt = forward_noise(data.x, unit_sched, unit_sched.t_min, rng)
    rep = sample_quality(xt, model, unit_sched, unit_sched.t_min)
    assert rep.max_weight_err < 0.01
    assert rep.max_mean_err < 0.01


TWO_SUBSPACES = {
    "D": 5,
    "subspaces": [
        {"d": 2, "A_seed": 1, "components": [
            {"pi": 0.5, "mu": [2.0, 0.0], "U": [[0.5], [0.1]]},
            {"pi": 0.5, "mu": [-2.0, 0.4], "U": [[0.3, 0.1], [0.4, -0.2]]}]},
        {"d": 2, "A_seed": 2, "components": [
            {"pi": 0.3, "mu": [0.0, 2.0], "U": [[0.2], [0.5]]},
            {"pi": 0.7, "mu": [0.5, -2.0], "U": [[0.4], [0.2]]}]},
    ],
}


def out_of_place_reverse_sample(score_fn, sched, cfg, init):
    """The plain Euler-Maruyama loop, one fresh array per operation."""
    rng = np.random.default_rng(cfg.seed)
    y = np.array(init, dtype=float, copy=True)
    times = np.linspace(sched.t_max, sched.t_min, cfg.steps + 1)
    dt = (sched.t_max - sched.t_min) / cfg.steps
    for i in range(cfg.steps):
        t = float(times[i])
        f = sched.f(t)
        g = sched.g(t)
        drift = f * y - (g * g) * score_fn(y, t)
        y = y - dt * drift + g * np.sqrt(dt) * rng.standard_normal(y.shape)
    return y


def _bit_identity_cases():
    """Every score kind at 1, 2 and 30 steps under sampler seed 5, and at 30
    steps under a second sampler seed (the ids without a step count)."""
    for steps in (30, 1, 2):
        for kind in ("exact", "view_of_input", "cached"):
            yield pytest.param(kind, steps, 5, id=f"{kind}-inline-steps{steps}")
    for kind in ("exact", "view_of_input", "cached"):
        yield pytest.param(kind, 30, 11, id=kind)


@pytest.mark.parametrize("kind,steps,seed", _bit_identity_cases())
def test_reverse_sample_bit_identical_to_out_of_place_loop(kind, steps, seed):
    """The in-place step reproduces the out-of-place loop bit for bit, and
    never writes into an array it handed to, or got from, score_fn."""
    model = build_model(TWO_SUBSPACES)
    sched = make_schedule("vp", 8.0, 0.01, 1.0)
    cfg = SamplerConfig(steps=steps, n=300, seed=seed)
    init = np.random.default_rng(6).standard_normal((cfg.n, model.D))
    cached = np.random.default_rng(7).standard_normal((cfg.n, model.D))
    fn = {"exact": model_score_fn(model, sched),
          "view_of_input": lambda x, t: x[:, ::-1],
          "cached": lambda x, t: cached}[kind]
    want = out_of_place_reverse_sample(fn, sched, cfg, init)

    calls = []

    def spy(x, t):
        out = fn(x, t)
        calls.append((x, x.copy(), out, out.copy()))
        return out

    init_before = init.copy()
    got = reverse_sample(spy, sched, cfg, init=init)
    assert np.all(np.isfinite(want))
    assert np.array_equal(got, want)
    assert np.array_equal(init, init_before)
    assert len(calls) == cfg.steps
    for x, x_then, out, out_then in calls:
        assert np.array_equal(x, x_then)
        assert np.array_equal(out, out_then)


def test_concurrent_samplers_keep_their_draw_order():
    """Three reverse_sample calls at once on their own threads (more threads
    than this machine's cores), under a 1 us switch interval: each still
    reproduces the serial loop bit for bit."""
    sched = make_schedule("vp", 8.0, 0.01, 1.0)
    cfgs = [SamplerConfig(steps=300, n=3, seed=seed) for seed in range(3)]
    init = np.random.default_rng(6).standard_normal((3, 2))
    want = [out_of_place_reverse_sample(lambda x, t: -x, sched, cfg, init) for cfg in cfgs]
    got = [None] * len(cfgs)

    def run(j):
        got[j] = reverse_sample(lambda x, t: -x, sched, cfgs[j], init=init)

    interval = sys.getswitchinterval()
    runners = [threading.Thread(target=run, args=(j,)) for j in range(len(cfgs))]
    sys.setswitchinterval(1e-6)
    try:
        for r in runners:
            r.start()
        for r in runners:
            r.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(r.is_alive() for r in runners)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_reverse_sample_returns_c_order_whatever_the_path_and_init_layout():
    """The state is column-major inside reverse_sample; what it returns is a
    C-ordered array with the same bits from a C-ordered or a column-major
    init, at zero steps too."""
    model = build_model(TWO_SUBSPACES)
    sched = make_schedule("vp", 8.0, 0.01, 1.0)
    init = np.random.default_rng(8).standard_normal((200, model.D))
    for steps in (0, 20):
        cfg = SamplerConfig(steps=steps, n=len(init), seed=9)
        got = [reverse_sample(model_score_fn(model, sched), sched, cfg,
                              init=np.array(init, order=order)) for order in "CF"]
        assert all(y.flags.c_contiguous for y in got)
        assert all(np.array_equal(y, got[0]) for y in got[1:])
        assert steps or np.array_equal(got[0], init)
