import numpy as np
import pytest

from conftest import empirical_loss, fd_gradient
from molrmog.calculus import exact_jacobian, sample_noised, score_of
from molrmog.errors import DivergenceDetected, EmptyDataset, ValidationError
from molrmog.optimizer import (
    GDConfig,
    contraction_check,
    estimate_local_constants,
    gd_train,
    init_near,
    loss_and_grad,
)
from molrmog.score import BLOCK_ELEMENTS, LatentParams, SymmetricParams


TRUTH = SymmetricParams(mu=[4.0, 0.0], U=[[1.0], [0.0]])


def training_data(n=3000, seed=0, sched=None):
    return sample_noised(TRUTH, None, sched, 1.0, n, seed)


def test_analytic_gradient_matches_fd(unit_sched):
    X = training_data(200, 1, unit_sched)
    flat = TRUTH.flatten()
    rng = np.random.default_rng(2)
    for _ in range(3):
        vec = flat + 0.3 * rng.standard_normal(flat.size)
        theta = TRUTH.unflatten(vec)
        _, grad = loss_and_grad(theta, None, unit_sched, 1.0, X,
                                score_of(TRUTH, None, unit_sched, 1.0, X))
        want = fd_gradient(
            lambda v: empirical_loss(TRUTH.unflatten(v), TRUTH, None, unit_sched, 1.0, X),
            vec,
        )
        assert grad == pytest.approx(want, abs=1e-6)


def test_gradient_zero_at_truth(unit_sched):
    X = training_data(500, 3, unit_sched)
    g = loss_and_grad(TRUTH, None, unit_sched, 1.0, X,
                      score_of(TRUTH, None, unit_sched, 1.0, X))[1]
    assert np.max(np.abs(g)) < 1e-14
    with pytest.raises(EmptyDataset):
        loss_and_grad(TRUTH, None, unit_sched, 1.0, np.zeros((0, 2)), np.zeros((0, 2)))[1]


def _contraction_cases(rng):
    """The tied form and free mixtures whose factors have rank 0, rank d, and
    ranks 0, 1 and 2 in one mixture."""
    yield TRUTH, None
    d, L = 3, 3
    pis = np.array([0.2, 0.3, 0.5])
    for ranks in ((0,) * L, (d,) * L, (0, 1, 2)):
        yield LatentParams(tuple((2.0 * rng.standard_normal(d), 0.5 * rng.standard_normal((d, r)))
                                 for r in ranks)), pis


def _contraction_and_oracle(truth, pis, sched, n, rng):
    """loss_and_grad at a perturbed theta on n draws, and its oracle: the mean
    squared residual and the contraction with the full (n, d, p) exact
    Jacobian."""
    X = sample_noised(truth, pis, sched, 1.0, n, 59)
    theta = truth.unflatten(truth.flatten() + 0.3 * rng.standard_normal(truth.dim))
    target = score_of(truth, pis, sched, 1.0, X)
    resid = score_of(theta, pis, sched, 1.0, X) - target
    J = exact_jacobian(theta, pis, sched, 1.0, X)
    want = 2.0 * np.einsum("nd,ndp->p", resid, J) / n
    return (loss_and_grad(theta, pis, sched, 1.0, X, target),
            (float(np.mean(np.sum(resid ** 2, axis=-1))), want))


def test_gradient_equals_jacobian_contraction(unit_sched):
    """The residual contraction against the one formed from the full (n, d, p)
    exact Jacobian."""
    rng = np.random.default_rng(53)
    for truth, pis in _contraction_cases(rng):
        (loss, grad), (want_loss, want) = _contraction_and_oracle(truth, pis, unit_sched, 400, rng)
        assert loss == want_loss
        assert np.max(np.abs(grad - want)) <= 1e-12 * np.max(np.abs(want)), truth.dim


def test_gradient_equals_jacobian_contraction_across_row_blocks(unit_sched):
    """The same oracle on n spanning four row blocks of the contraction, the
    last one partial: the block sums agree with the one-block oracle to
    rounding, the loss summed block by block too."""
    rng = np.random.default_rng(67)
    for truth, pis in _contraction_cases(rng):
        L = len(truth.mixture(pis)[0].components)
        rows = BLOCK_ELEMENTS // (truth.d * L + truth.d + L)
        n = 3 * rows + rows // 3
        (loss, grad), (want_loss, want) = _contraction_and_oracle(truth, pis, unit_sched, n, rng)
        assert loss == pytest.approx(want_loss, rel=1e-13)
        assert np.max(np.abs(grad - want)) <= 1e-12 * np.max(np.abs(want)), truth.dim


def test_gradient_memory_bounded(unit_sched):
    """No (n, d, p) Jacobian: one call's traced peak stays below 64 n (d + 1) L
    bytes, about a fifth of the two (n, d, p) terms at p = 64."""
    import tracemalloc

    d, L, n = 8, 4, 5000
    eye = np.eye(d)
    truth = LatentParams(tuple(
        (4.0 * eye[l], 0.5 * (eye[l] + eye[(l + d // 2) % d])[:, None]) for l in range(L)))
    pis = np.full(L, 1.0 / L)
    X = sample_noised(truth, pis, unit_sched, 1.0, n, 61)
    theta = truth.unflatten(truth.flatten() + 0.05)
    assert truth.dim == 64
    tracemalloc.start()
    try:
        loss_and_grad(theta, pis, unit_sched, 1.0, X, score_of(truth, pis, unit_sched, 1.0, X))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * n * (d + 1) * L, peak


def test_init_near_radius_and_determinism():
    a = init_near(TRUTH, 0.2, 5)
    b = init_near(TRUTH, 0.2, 5)
    assert np.array_equal(a.flatten(), b.flatten())
    assert np.linalg.norm(a.flatten() - TRUTH.flatten()) == pytest.approx(0.2, rel=1e-12)
    assert np.array_equal(init_near(TRUTH, 0.0, 5).flatten(), TRUTH.flatten())
    with pytest.raises(ValidationError):
        init_near(TRUTH, -1.0, 5)


def test_gd_step_is_the_closed_form_of_its_constants(unit_sched):
    """The trace's step, condition number and contraction factor are
    2/(alpha + L'), L'/alpha and (kappa - 1)/(kappa + 1) of the estimated
    local constants."""
    X = training_data(2000, 43, unit_sched)
    alpha_hat, L_hat = estimate_local_constants(TRUTH, None, unit_sched, 1.0, X)
    trace = gd_train(init_near(TRUTH, 0.2, 45), TRUTH, None, unit_sched, 1.0, X,
                     GDConfig(m_max=0))
    kappa = L_hat / alpha_hat
    assert trace.eta == 2.0 / (alpha_hat + L_hat)
    assert trace.kappa == kappa
    assert trace.rho_bound == (kappa - 1.0) / (kappa + 1.0)


def test_estimated_constants_bracket_loss_curvature(unit_sched):
    X = training_data(3000, 7, unit_sched)
    alpha_hat, L_hat = estimate_local_constants(TRUTH, None, unit_sched, 1.0, X)
    assert 0 < alpha_hat < L_hat
    # the loss Hessian is 2 E[J^T J]; with the closed-form curvature 1/4 at
    # s = gamma = 1, alpha_hat should land near 2 * 0.25
    assert alpha_hat == pytest.approx(0.5, rel=0.15)


def _fd_loss_hessian_evals(truth, pis, sched, t, X, h=1e-4):
    """Eigenvalues of the loss Hessian at the truth from central differences
    of the analytic gradient."""
    vec = truth.flatten()
    target = score_of(truth, pis, sched, t, X)
    cols = []
    for j in range(vec.size):
        e = np.zeros(vec.size)
        e[j] = h
        gp = loss_and_grad(truth.unflatten(vec + e), pis, sched, t, X, target)[1]
        gm = loss_and_grad(truth.unflatten(vec - e), pis, sched, t, X, target)[1]
        cols.append((gp - gm) / (2.0 * h))
    H = np.stack(cols, axis=1)
    return np.linalg.eigvalsh(0.5 * (H + H.T))


def test_local_constants_match_fd_loss_hessian(unit_sched):
    free = LatentParams((([2.0, 0.0], [[0.5], [0.2]]), ([-1.0, 1.5], [[0.1], [0.6]])))
    for truth, pis in ((TRUTH, None), (free, np.array([0.6, 0.4]))):
        X = sample_noised(truth, pis, unit_sched, 1.0, 2000, 47)
        alpha_hat, L_hat = estimate_local_constants(truth, pis, unit_sched, 1.0, X)
        evals = _fd_loss_hessian_evals(truth, pis, unit_sched, 1.0, X)
        assert alpha_hat == pytest.approx(evals[0], rel=1e-6)
        assert L_hat == pytest.approx(evals[-1], rel=1e-6)


def test_gd_contracts_to_truth(unit_sched):
    X = training_data(4000, 11, unit_sched)
    theta0 = init_near(TRUTH, 0.2, 13)
    trace = gd_train(theta0, TRUTH, None, unit_sched, 1.0, X,
                     GDConfig(m_max=200, tol=1e-9))
    assert trace.converged
    assert trace.final_dist < 1e-6
    assert trace.rows[0].dist == pytest.approx(0.2, rel=1e-12)
    # distances decrease monotonically under the theoretical step
    dists = [r.dist for r in trace.rows]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(dists, dists[1:]))
    rep = contraction_check(trace, trace.rho_bound, slack=0.05, dist_floor=1e-12)
    assert rep.fraction >= 0.95
    assert rep.checked > 0


def test_gd_with_analytic_constants_satisfies_weak_bound(unit_sched):
    """Running GD with the closed-form curvature floor and the worst-case
    smoothness constant gives a tiny step and a contraction factor near 1;
    the (vacuously slow) bound must still hold on every iteration."""
    from molrmog.calculus import alpha_formula
    from molrmog.objective import ParameterBox, lipschitz_constants

    X = training_data(2000, 37, unit_sched)
    R = float(np.max(np.linalg.norm(X, axis=1)))
    lc = lipschitz_constants(ParameterBox(B_mu=5.0, B_U=2.0, counts=((1, 2),)),
                             unit_sched, 1.0, R=R)
    # loss Hessian carries a factor 2 over E[J^T J], so the floor does too
    alpha_loss = 2.0 * alpha_formula(TRUTH, None, unit_sched, 1.0)
    eta = 2.0 / (alpha_loss + lc.L_prime)
    kappa = lc.L_prime / alpha_loss
    rho = (kappa - 1.0) / (kappa + 1.0)
    theta0 = init_near(TRUTH, 0.2, 41)
    trace = gd_train(theta0, TRUTH, None, unit_sched, 1.0, X,
                     GDConfig(eta=eta, m_max=50))
    rep = contraction_check(trace, rho, slack=0.0, dist_floor=1e-12)
    assert rho > 0.99  # the analytic constants are deliberately loose
    assert rep.fraction == 1.0


def test_explicit_step_reports_its_contraction_factor(unit_sched):
    """A fixed step keeps kappa and reports rho = max |1 - eta lambda| over the
    extreme loss-Hessian eigenvalues; at the theoretical step that is the
    theoretical rho."""
    X = training_data(2000, 43, unit_sched)
    theta0 = init_near(TRUTH, 0.2, 45)
    auto = gd_train(theta0, TRUTH, None, unit_sched, 1.0, X, GDConfig(m_max=3))
    alpha_hat, L_hat = estimate_local_constants(TRUTH, None, unit_sched, 1.0, X)
    trace = gd_train(theta0, TRUTH, None, unit_sched, 1.0, X, GDConfig(eta=0.5, m_max=20))
    assert trace.kappa == auto.kappa
    assert trace.rho_bound == max(abs(1 - 0.5 * alpha_hat), abs(1 - 0.5 * L_hat))
    assert contraction_check(trace, trace.rho_bound, slack=0.05).fraction == 1.0
    same = gd_train(theta0, TRUTH, None, unit_sched, 1.0, X, GDConfig(eta=auto.eta, m_max=3))
    assert same.rho_bound == pytest.approx(auto.rho_bound, rel=1e-12)


def test_gd_fixed_point_at_truth(unit_sched):
    X = training_data(500, 17, unit_sched)
    trace = gd_train(TRUTH, TRUTH, None, unit_sched, 1.0, X, GDConfig(m_max=5))
    assert trace.converged
    assert trace.rows[-1].dist == 0.0


def test_gd_deterministic(unit_sched):
    X = training_data(500, 19, unit_sched)
    theta0 = init_near(TRUTH, 0.1, 23)
    t1 = gd_train(theta0, TRUTH, None, unit_sched, 1.0, X, GDConfig(m_max=20))
    t2 = gd_train(theta0, TRUTH, None, unit_sched, 1.0, X, GDConfig(m_max=20))
    assert [r.dist for r in t1.rows] == [r.dist for r in t2.rows]


def test_gd_divergence_detected(unit_sched):
    X = training_data(300, 29, unit_sched)
    theta0 = init_near(TRUTH, 0.5, 31)
    with pytest.raises(DivergenceDetected):
        gd_train(theta0, TRUTH, None, unit_sched, 1.0, X,
                 GDConfig(eta=50.0, m_max=200))


def test_gd_config_validation():
    with pytest.raises(ValidationError):
        GDConfig(eta=-0.1)
    with pytest.raises(ValidationError):
        GDConfig(m_max=-1)
    with pytest.raises(ValidationError):
        GDConfig(tol=-1)


def test_contraction_check_counts():
    from molrmog.optimizer import TraceRow, TrainTrace

    rows = [
        TraceRow(m=0, loss=1.0, grad_norm=1.0, dist=1.0, ratio=float("nan")),
        TraceRow(m=1, loss=0.5, grad_norm=0.5, dist=0.5, ratio=0.5),
        TraceRow(m=2, loss=0.4, grad_norm=0.4, dist=0.45, ratio=0.9),
    ]
    trace = TrainTrace(rows=rows, eta=0.1, kappa=2.0, rho_bound=0.6, converged=False)
    rep = contraction_check(trace, rho=0.6, slack=0.05)
    assert rep.checked == 2
    assert rep.fraction == pytest.approx(0.5)
    assert rep.first_violation == 2
    # no ratio checked is no evidence of contraction, not a fraction of 1
    rep = contraction_check(trace, rho=0.6, slack=0.05, dist_floor=1.0)
    assert rep.checked == 0 and rep.fraction is None and rep.first_violation is None
