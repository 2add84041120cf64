import numpy as np
import pytest

from conftest import empirical_loss, sm_errors
from molrmog import objective
from molrmog.score import BLOCK_ELEMENTS
from molrmog.errors import EmptyDataset, GridEmpty, TimeOutOfRange, ValidationError
from molrmog.model import build_model, encode, forward_noise, sample_data
from molrmog.objective import (
    ParameterBox,
    estimation_gap_experiment,
    flatten_theta_set,
    lipschitz_constants,
    make_theta_grid,
    estimation_gap_bound,
    scrambled_sobol,
    unflatten_theta_set,
)
from molrmog.score import LatentParams, SymmetricParams, latent_score, mixture_kernel
from test_acceptance import TWO_SUBSPACE_SPEC

# one L = 2 subspace of rank-one factors and one L = 1 subspace of rank two
MIXED_SPEC = {"D": 4, "subspaces": [
    {"d": 2, "A_seed": 7, "components": [
        {"pi": 0.4, "mu": [2.0, 0.0], "U": [[0.6], [0.1]]},
        {"pi": 0.6, "mu": [-2.0, 0.5], "U": [[0.2], [0.5]]}]},
    {"d": 2, "A_seed": 8, "components": [
        {"pi": 1.0, "mu": [0.0, 1.0], "U": [[0.3, 0.0], [0.1, 0.4]]}]},
]}


def small_model():
    return build_model({
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


def test_loss_time_outside_schedule(unit_sched):
    truth = small_model().subspaces[0]
    pis = truth.weights
    X = np.random.default_rng(0).standard_normal((20, 2))
    with pytest.raises(TimeOutOfRange):
        empirical_loss(truth, truth, pis, unit_sched, 2.0, X)


def test_loss_zero_at_truth_and_positive_away(unit_sched):
    truth = small_model().subspaces[0]
    pis = truth.weights
    X = np.random.default_rng(0).standard_normal((200, 2))
    t = 0.5
    assert empirical_loss(truth, truth, pis, unit_sched, t, X) == 0.0
    theta = truth.unflatten(truth.flatten() + 0.2)
    assert empirical_loss(theta, truth, pis, unit_sched, t, X) > 0
    assert sm_errors(theta, truth, pis, unit_sched, 0.5, X[0])[0] > 0
    with pytest.raises(EmptyDataset):
        empirical_loss(theta, truth, pis, unit_sched, t, np.zeros((0, 2)))


def test_lipschitz_constants_closed_form(unit_sched):
    box = ParameterBox(B_mu=2.0, B_U=1.0, counts=((2, 2),))
    rep = lipschitz_constants(box, unit_sched, 1.0, R=1.0)
    # s = gamma = 1, reach = R + B_mu = 3
    assert rep.L_mu == pytest.approx(9.0)
    assert rep.C_w == pytest.approx(27.0)
    assert rep.L_U == rep.C_w
    assert rep.L == pytest.approx(np.sqrt(2 * (81.0 + 729.0)))
    assert rep.L_l == pytest.approx(6.0)
    assert rep.L_prime == pytest.approx(rep.L * rep.L_l)
    with pytest.raises(ValidationError):
        lipschitz_constants(box, unit_sched, 1.0, R=0.0)


def test_lipschitz_constant_audited_by_random_probes(unit_sched):
    """L_l must dominate the observed per-sample loss increments, and L the
    observed score increments, over random pairs inside the quoted box."""
    model = small_model()
    truth = model.subspaces[0]
    pis = truth.weights
    R = 1.5
    box = ParameterBox(B_mu=3.0, B_U=1.0, counts=((2, 2),))
    rep = lipschitz_constants(box, unit_sched, 1.0, R=R)
    rng = np.random.default_rng(4)
    flat0 = truth.flatten()
    for _ in range(40):
        x = rng.uniform(-1, 1, 2)
        x *= R * rng.uniform(0, 1) / np.linalg.norm(x)
        a = truth.unflatten(flat0 + 0.2 * rng.standard_normal(flat0.size))
        b = truth.unflatten(flat0 + 0.2 * rng.standard_normal(flat0.size))
        ds = np.linalg.norm(latent_score(a, pis, unit_sched, 1.0, x)
                            - latent_score(b, pis, unit_sched, 1.0, x))
        dtheta = np.linalg.norm(a.flatten() - b.flatten())
        assert ds <= rep.L * dtheta * (1 + 1e-9)


def test_theta_grid_shape_and_bounds():
    truth = small_model().subspaces[0]
    grid = make_theta_grid((truth,), half_width=0.25, count=16, seed=0)
    assert len(grid) == 16
    center = flatten_theta_set((truth,))
    for th_set in grid:
        off = flatten_theta_set(th_set) - center
        assert np.max(np.abs(off)) <= 0.25 + 1e-12
    # deterministic for a fixed seed
    again = make_theta_grid((truth,), half_width=0.25, count=16, seed=0)
    assert np.array_equal(flatten_theta_set(grid[3]), flatten_theta_set(again[3]))
    with pytest.raises(GridEmpty):
        make_theta_grid((truth,), 0.25, 0, 0)


@pytest.mark.filterwarnings("ignore:The balance properties")
@pytest.mark.parametrize("d", [1, 2, 8, 16, 40])
def test_scrambled_sobol_equals_scipy(d):
    """The numpy port draws scipy's scrambled Sobol points bit for bit."""
    from scipy.stats import qmc

    for seed in (0, 3, 20260823):
        for n in (1, 3, 32, 64):
            want = qmc.Sobol(d=d, scramble=True, seed=seed).random(n)
            assert np.array_equal(scrambled_sobol(d, n, seed), want), (seed, n)


def test_flatten_theta_set_roundtrip():
    truth = small_model().subspaces[0]
    other = SymmetricParams(mu=[1.0, 2.0], U=[[0.5], [0.1]])
    vec = flatten_theta_set((truth, other))
    back = unflatten_theta_set((truth, other), vec)
    assert np.array_equal(back[0].flatten(), truth.flatten())
    assert np.array_equal(back[1].flatten(), other.flatten())


def test_estimation_gap_shrinks_with_n(unit_sched):
    model = small_model()
    truth = model.subspaces[0]
    grid = make_theta_grid((truth,), half_width=0.25, count=8, seed=1)
    rep = estimation_gap_experiment(model, grid, [64, 1024], trials=4,
                                    sched=unit_sched, t=0.25,
                                    rng=10, n_mc=50000)
    gaps = [g for _, g, _ in rep.rows]
    assert gaps[1] < gaps[0]
    assert rep.slope < 0
    assert rep.C1 > 0 and rep.sigma2 > 0 and rep.p == truth.dim


def test_estimation_population_must_exceed_every_n(unit_sched):
    model = small_model()
    truth = model.subspaces[0]
    grid = make_theta_grid((truth,), half_width=0.25, count=2, seed=1)
    with pytest.raises(ValidationError, match="n_mc"):
        estimation_gap_experiment(model, grid, [64, 1024], trials=1, sched=unit_sched,
                                  t=0.25, rng=0, n_mc=1024)


def test_gap_bound_monotone_in_n():
    vals = [estimation_gap_bound(n, C1=1.0, L=2.0, L_l=3.0, sigma2=4.0, p=16)
            for n in (100, 400, 1600)]
    assert vals[0] > vals[1] > vals[2]
    # quadrupling n halves both terms
    assert vals[1] == pytest.approx(vals[0] / 2, rel=1e-12)


def test_estimation_gaps_match_direct_stacked_errors(unit_sched):
    """The experiment's population moments and per-n gaps equal a direct
    per-grid-point sum over subspaces of sm_errors on the same draws, which
    builds its own kernels on every call."""
    model = build_model({"D": 4, "subspaces": [
        {"d": 2, "A_seed": 7, "components": [
            {"pi": 0.4, "mu": [2.0, 0.0], "U": [[0.6], [0.1]]},
            {"pi": 0.6, "mu": [-2.0, 0.5], "U": [[0.2], [0.5]]}]},
        {"d": 2, "A_seed": 8, "components": [
            {"pi": 1.0, "mu": [0.0, 1.0], "U": [[0.3, 0.0], [0.1, 0.4]]}]},
    ]})
    grid = make_theta_grid(model.subspaces, half_width=0.25, count=8, seed=3)
    t, n_mc, n_schedule, trials = 0.25, 3000, [64, 256], 2
    rep = estimation_gap_experiment(model, grid, n_schedule, trials, unit_sched, t,
                                    rng=5, n_mc=n_mc)

    rng = np.random.default_rng(5)

    def mean_var(n):
        X = forward_noise(sample_data(model, n, rng).x, unit_sched, t, rng)
        ell = np.stack([sum(sm_errors(th_k, sub, sub.weights, unit_sched, t, encode(sub, X))
                            for th_k, sub in zip(th, model.subspaces))
                        for th in grid])
        return ell.mean(axis=1), ell.var(axis=1)

    pop_mean, pop_var = mean_var(n_mc)
    assert rep.sigma2 == pytest.approx(np.max(pop_var), rel=1e-12)
    assert rep.pop_stderr_max == pytest.approx(np.max(np.sqrt(pop_var / n_mc)), rel=1e-12)
    gaps = np.array([[np.max(np.abs(pop_mean - mean_var(n)[0])) for n in n_schedule]
                     for _ in range(trials)])
    assert [g for _, g, _ in rep.rows] == pytest.approx(gaps.mean(axis=0), rel=1e-12)


def _direct_moments(model, grid, sched, t, X):
    """Per-grid-point mean and variance over X of the loss summed over
    subspaces, by sm_errors, which builds its own kernels on every call."""
    ell = np.stack([sum(sm_errors(th_k, sub, sub.weights, sched, t, encode(sub, X))
                        for th_k, sub in zip(th, model.subspaces))
                    for th in grid])
    return ell.mean(axis=1), ell.var(axis=1)


@pytest.mark.parametrize("spec, count, t", [(TWO_SUBSPACE_SPEC, 64, 1.0), (MIXED_SPEC, 8, 0.25)])
def test_stacked_kernel_equals_single_kernels_bit_for_bit(unit_sched, spec, count, t):
    """One kernel built from G parameter sets holds each set's M and constants
    and gives each set's score with the bits of that set's own kernel, on the
    benchmark's grid and on a model mixing rank-one and rank-two subspaces."""
    model = build_model(spec)
    grid = make_theta_grid(model.subspaces, half_width=0.25, count=count, seed=3)
    X = forward_noise(sample_data(model, 200, 4).x, unit_sched, t, 5)
    for k, sub in enumerate(model.subspaces):
        thetas = [th[k] for th in grid]
        stacked = mixture_kernel(thetas, sub.weights, unit_sched, t)
        Z = encode(sub, X)
        xt, work, z, (top, total) = stacked._pass(Z)
        for i, th in enumerate(thetas):
            one = mixture_kernel(th, sub.weights, unit_sched, t)
            assert np.array_equal(stacked.M[i], one.M[0])
            assert np.array_equal(stacked.const[i], one.const[0])
            want = one.score(Z)
            assert np.array_equal(stacked._score(*stacked._pass(Z, sets=slice(i, i + 1))[:2]).T,
                                  want)
            assert np.array_equal((work[-1, i] - xt) / stacked.g2, want.T)
            one_xt, one_work, one_z, (one_top, one_total) = one._pass(Z)
            assert np.array_equal(z[:, i], one_z[:, 0])
            assert np.array_equal(top[i], one_top[0]) and np.array_equal(total[i], one_total[0])


def test_estimation_tiles_across_grid_and_row_boundaries(unit_sched):
    """A population one row past a row block and a grid that the tile's grid
    count does not divide give the direct per-point moments and gaps."""
    model = build_model(MIXED_SPEC)
    grid = make_theta_grid(model.subspaces, half_width=0.25, count=10, seed=3)
    width = 4  # L + R of the first subspace, the widest
    n_mc, n_schedule, t = BLOCK_ELEMENTS // width + 1, [1000, 4096], 0.25
    # 10 grid points in tiles of 4 at n = 4096
    assert len(grid) % (BLOCK_ELEMENTS // (width * n_schedule[1])) != 0
    rep = estimation_gap_experiment(model, grid, n_schedule, 1, unit_sched, t, rng=6, n_mc=n_mc)

    rng = np.random.default_rng(6)
    draw = lambda n: forward_noise(sample_data(model, n, rng).x, unit_sched, t, rng)
    pop_mean, pop_var = _direct_moments(model, grid, unit_sched, t, draw(n_mc))
    assert rep.sigma2 == pytest.approx(np.max(pop_var), rel=1e-12)
    assert rep.pop_stderr_max == pytest.approx(np.max(np.sqrt(pop_var / n_mc)), rel=1e-12)
    gaps = [np.max(np.abs(pop_mean - _direct_moments(model, grid, unit_sched, t, draw(n))[0]))
            for n in n_schedule]
    assert [g for _, g, _ in rep.rows] == pytest.approx(gaps, rel=1e-12)


def test_estimation_memory_is_bounded_in_population_size(unit_sched, monkeypatch):
    """Once the population is drawn, the experiment's traced peak above it (its
    encodings, tile scratch and the trial datasets) is the same at n_mc =
    20 000 and 200 000: the losses run in bounded tiles."""
    import tracemalloc

    model = small_model()
    grid = make_theta_grid(model.subspaces, half_width=0.25, count=2, seed=3)
    mark = {}

    def encode_marked(sub, x):
        if not mark:  # the population's first encoding: its draws are all that grew
            mark["base"] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        return encode(sub, x)

    monkeypatch.setattr(objective, "encode", encode_marked)
    above = []
    for n_mc in (20_000, 200_000):
        mark.clear()
        tracemalloc.start()
        try:
            estimation_gap_experiment(model, grid, [16, 32], 1, unit_sched, 0.25, 7, n_mc=n_mc)
            above.append(tracemalloc.get_traced_memory()[1] - mark["base"])
        finally:
            tracemalloc.stop()
    # the population alone is 5.8 MB larger at 200 000 rows
    assert above[1] - above[0] < 2 ** 18, above
