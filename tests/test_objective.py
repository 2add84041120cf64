import numpy as np
import pytest

from molrmog.errors import EmptyDataset, GridEmpty, TimeOutOfRange, ValidationError
from molrmog.model import build_model, forward_noise, sample_data
from molrmog.objective import (
    LossConfig,
    ParameterBox,
    dsm_loss,
    empirical_loss,
    estimation_gap_experiment,
    flatten_theta_set,
    lipschitz_constants,
    make_theta_grid,
    estimation_gap_bound,
    scrambled_sobol,
    sm_errors,
    stacked_errors,
    unflatten_theta_set,
)
from molrmog.score import LatentParams, SymmetricParams, from_model_subspace, latent_score


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


def test_loss_config_times(unit_sched):
    assert LossConfig(t=0.5).times(unit_sched) == pytest.approx([0.5])
    grid = LossConfig(grid_count=5).times(unit_sched)
    assert grid == pytest.approx(np.linspace(0.01, 1.0, 5))
    with pytest.raises(TimeOutOfRange):
        LossConfig(t=2.0).times(unit_sched)
    with pytest.raises(ValidationError):
        LossConfig().times(unit_sched)


def test_loss_zero_at_truth_and_positive_away(unit_sched):
    truth, pis = from_model_subspace(small_model().subspaces[0])
    X = np.random.default_rng(0).standard_normal((200, 2))
    cfg = LossConfig(t=0.5)
    assert empirical_loss(truth, truth, pis, unit_sched, cfg, X) == 0.0
    theta = truth.unflatten(truth.flatten() + 0.2)
    assert empirical_loss(theta, truth, pis, unit_sched, cfg, X) > 0
    assert sm_errors(theta, truth, pis, unit_sched, 0.5, X[0])[0] > 0
    with pytest.raises(EmptyDataset):
        empirical_loss(theta, truth, pis, unit_sched, cfg, np.zeros((0, 2)))


def test_grid_loss_is_trapezoid_average(unit_sched):
    truth, pis = from_model_subspace(small_model().subspaces[0])
    theta = truth.unflatten(truth.flatten() + 0.1)
    cfg = LossConfig(grid_count=3)
    times = cfg.times(unit_sched)
    rng = np.random.default_rng(1)
    data = [rng.standard_normal((50, 2)) for _ in times]
    got = empirical_loss(theta, truth, pis, unit_sched, cfg, data)
    per_t = [empirical_loss(theta, truth, pis, unit_sched, LossConfig(t=float(tt)), X)
             for tt, X in zip(times, data)]
    want = (0.5 * per_t[0] + per_t[1] + 0.5 * per_t[2]) / 2.0
    assert got == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValidationError):
        empirical_loss(theta, truth, pis, unit_sched, cfg, data[:2])


def test_dsm_equals_sm_up_to_constant(unit_sched):
    """The denoising and score-matching losses differ by a theta-free shift:
    paired differences across parameter values agree on a common dataset."""
    model = small_model()
    truth, pis = from_model_subspace(model.subspaces[0])
    t = 0.5
    rng = np.random.default_rng(2)
    n = 60000
    data = sample_data(model, n, rng)
    x0 = data.x @ model.subspaces[0].A
    x_t = forward_noise(x0, unit_sched, t, rng)
    cfg = LossConfig(t=t)
    flat = truth.flatten()
    rng2 = np.random.default_rng(3)
    for _ in range(4):
        a = truth.unflatten(flat + 0.3 * rng2.standard_normal(flat.size))
        b = truth.unflatten(flat + 0.3 * rng2.standard_normal(flat.size))
        d_dsm = (dsm_loss(a, pis, unit_sched, cfg, (x0, x_t, t))
                 - dsm_loss(b, pis, unit_sched, cfg, (x0, x_t, t)))
        d_sm = (empirical_loss(a, truth, pis, unit_sched, cfg, x_t)
                - empirical_loss(b, truth, pis, unit_sched, cfg, x_t))
        # the cross term is mean-zero; allow a 4-SE Monte Carlo band
        diff_a = np.sum((latent_score(a, pis, unit_sched, t, x_t)
                         - latent_score(b, pis, unit_sched, t, x_t))
                        * (latent_score(truth, pis, unit_sched, t, x_t)
                           + (x_t - x0) / unit_sched.gamma(t) ** 2), axis=-1)
        band = 4 * 2 * np.std(diff_a) / np.sqrt(n)
        assert abs(d_dsm - d_sm) <= band + 1e-12
    with pytest.raises(EmptyDataset):
        dsm_loss(truth, pis, unit_sched, cfg, (np.zeros((0, 2)), np.zeros((0, 2)), t))


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
    truth, pis = from_model_subspace(model.subspaces[0])
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
    truth, _ = from_model_subspace(small_model().subspaces[0])
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
    truth, _ = from_model_subspace(small_model().subspaces[0])
    other = SymmetricParams(mu=[1.0, 2.0], U=[[0.5], [0.1]])
    vec = flatten_theta_set((truth, other))
    back = unflatten_theta_set((truth, other), vec)
    assert np.array_equal(back[0].flatten(), truth.flatten())
    assert np.array_equal(back[1].flatten(), other.flatten())


def test_estimation_gap_shrinks_with_n(unit_sched):
    model = small_model()
    truth, _ = from_model_subspace(model.subspaces[0])
    grid = make_theta_grid((truth,), half_width=0.25, count=8, seed=1)
    rep = estimation_gap_experiment(model, grid, [64, 1024], trials=4,
                                    sched=unit_sched, t=0.25,
                                    rng=10, n_mc=50000)
    gaps = [g for _, g, _ in rep.rows]
    assert gaps[1] < gaps[0]
    assert rep.slope < 0
    assert rep.C1 > 0 and rep.sigma2 > 0 and rep.p == truth.dim
    with pytest.raises(GridEmpty):
        estimation_gap_experiment(model, [], [64], 1, unit_sched, 0.25, 0, 100)


def test_gap_bound_monotone_in_n():
    vals = [estimation_gap_bound(n, C1=1.0, L=2.0, L_l=3.0, sigma2=4.0, p=16)
            for n in (100, 400, 1600)]
    assert vals[0] > vals[1] > vals[2]
    # quadrupling n halves both terms
    assert vals[1] == pytest.approx(vals[0] / 2, rel=1e-12)


def test_estimation_gaps_match_direct_stacked_errors(unit_sched):
    """The experiment's population moments and per-n gaps equal a direct
    per-grid-point stacked_errors evaluation on the same draws."""
    model = build_model({"D": 4, "subspaces": [
        {"d": 2, "A_seed": 7, "components": [
            {"pi": 0.4, "mu": [2.0, 0.0], "U": [[0.6], [0.1]]},
            {"pi": 0.6, "mu": [-2.0, 0.5], "U": [[0.2], [0.5]]}]},
        {"d": 2, "A_seed": 8, "components": [
            {"pi": 1.0, "mu": [0.0, 1.0], "U": [[0.3, 0.0], [0.1, 0.4]]}]},
    ]})
    truth_set = tuple(from_model_subspace(sub)[0] for sub in model.subspaces)
    pis_list = [sub.weights for sub in model.subspaces]
    grid = make_theta_grid(truth_set, half_width=0.25, count=8, seed=3)
    t, n_mc, n_schedule, trials = 0.25, 3000, [64, 256], 2
    rep = estimation_gap_experiment(model, grid, n_schedule, trials, unit_sched, t,
                                    rng=5, n_mc=n_mc)

    rng = np.random.default_rng(5)

    def mean_var(n):
        X = forward_noise(sample_data(model, n, rng).x, unit_sched, t, rng)
        ell = np.stack([stacked_errors(th, truth_set, pis_list, model, unit_sched, t, X)
                        for th in grid])
        return ell.mean(axis=1), ell.var(axis=1)

    pop_mean, pop_var = mean_var(n_mc)
    assert rep.sigma2 == pytest.approx(np.max(pop_var), rel=1e-12)
    assert rep.pop_stderr_max == pytest.approx(np.max(np.sqrt(pop_var / n_mc)), rel=1e-12)
    gaps = np.array([[np.max(np.abs(pop_mean - mean_var(n)[0])) for n in n_schedule]
                     for _ in range(trials)])
    assert [g for _, g, _ in rep.rows] == pytest.approx(gaps.mean(axis=0), rel=1e-12)
