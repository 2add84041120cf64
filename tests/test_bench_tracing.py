"""The benchmark's tracer rebinds molrmog functions by name, so deleting or
renaming one of them breaks only traced bench runs; this keeps them bound."""

import importlib.util
from pathlib import Path

import numpy as np

from molrmog import calculus, model, objective, optimizer, sampler, score
from molrmog.model import build_model
from molrmog.objective import estimation_gap_experiment, make_theta_grid

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.Tracer()


def test_tracer_wraps_every_traced_name_and_restores_it(unit_sched):
    names = [(calculus, "score_of"), (calculus, "exact_jacobian"),
             (objective, "stacked_errors"), (score, "latent_score"),
             (model, "encode"), (optimizer, "loss_and_grad")]
    originals = [getattr(mod, attr) for mod, attr in names]
    tracer = load_tracer()
    try:
        tracer.install()
        restore = list(tracer._restore)
        for (mod, attr), orig in zip(names, originals):
            assert getattr(mod, attr).__wrapped__ is orig, (mod.__name__, attr)
        for target, attr, orig in restore:
            bound = target[attr] if isinstance(target, dict) else getattr(target, attr)
            assert bound.__wrapped__ is orig, attr
        # the experiment's per-sample loss runs through the traced name
        sub = {"d": 2, "A_seed": 7, "components": [
            {"pi": 1.0, "mu": [1.0, 0.0], "U": [[0.5], [0.1]]}]}
        mix = build_model({"D": 3, "subspaces": [sub]})
        grid = make_theta_grid(mix.subspaces, 0.25, 2, 3)
        estimation_gap_experiment(mix, grid, [16, 32], 1, unit_sched, 0.25, 5, n_mc=64)
        # one call per tile: the 2-point grid on 64, 16 and 32 rows is one tile
        # on the population set and one on each dataset
        assert tracer.metrics(1)["objective.stacked_errors.calls"] == 3
    finally:
        tracer.uninstall()
    for (mod, attr), orig in zip(names, originals):
        assert getattr(mod, attr) is orig
    for target, attr, orig in restore:
        assert (target[attr] if isinstance(target, dict) else getattr(target, attr)) is orig


def test_sampler_step_makes_one_traced_score_call(unit_sched):
    """One reverse step makes exactly one traced ambient score and one
    counted coefficient call, and every span closes on the main stack."""
    sub = {"d": 2, "A_seed": 7, "components": [
        {"pi": 0.5, "mu": [1.0, 0.0], "U": [[0.5], [0.1]]},
        {"pi": 0.5, "mu": [-1.0, 0.5], "U": [[0.2], [0.4]]}]}
    mix = build_model({"D": 3, "subspaces": [sub]})
    steps = 25
    tracer = load_tracer()
    try:
        tracer.install()
        init = np.random.default_rng(4).standard_normal((200, mix.D))
        sampler.reverse_sample(sampler.model_score_fn(mix, unit_sched), unit_sched,
                               sampler.SamplerConfig(steps=steps, n=200, seed=2), init=init)
        assert tracer._stack == []
        metrics = tracer.metrics(1)
    finally:
        tracer.uninstall()
    assert metrics["schedule.coefficients.calls"] == steps
    assert metrics["score.ambient_score.calls"] == steps
