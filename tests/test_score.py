import copy
import hashlib

import numpy as np
import pytest
from scipy.special import logsumexp

from conftest import conditional_score, dense_gaussian_logpdf, fd_gradient, read_only_layouts
from test_acceptance import TWO_SUBSPACE_SPEC
from test_objective import MIXED_SPEC
from molrmog.errors import DimensionMismatch, EmptyDataset
from molrmog.model import Subspace, build_model, encode, forward_noise, random_orthonormal, \
    sample_data, MoLRMoGModel
from molrmog.objective import make_theta_grid, stacked_errors
from molrmog.schedule import coefficients, make_schedule
from molrmog.score import (
    _lower_solve,
    FactoredMixture,
    LatentParams,
    NoisedMixture,
    SymmetricParams,
    ambient_log_density,
    ambient_responsibilities,
    ambient_score,
    latent_score,
    mixture_kernel,
    mixture_log_density,
    responsibilities,
)


def random_params(d, n_comp, rank, seed):
    rng = np.random.default_rng(seed)
    comps = tuple(
        (rng.standard_normal(d), rng.standard_normal((d, rank)))
        for _ in range(n_comp)
    )
    pis = rng.uniform(0.2, 1.0, n_comp)
    return LatentParams(comps), pis / pis.sum()


def test_log_density_matches_dense_oracle():
    rng = np.random.default_rng(0)
    for d, r in [(1, 1), (3, 1), (5, 3), (4, 4)]:
        U = rng.standard_normal((d, r))
        mu = rng.standard_normal(d)
        s, gamma = 0.7, 0.4
        kern = NoisedMixture(FactoredMixture([mu], [U], [1.0]), s, gamma)
        cov = s * s * U @ U.T + gamma * gamma * np.eye(d)
        X = rng.standard_normal((6, d))
        want = dense_gaussian_logpdf(X, s * mu, cov)
        assert kern.log_density(X) == pytest.approx(want, rel=1e-12)
        assert kern.log_density(X[0]) == pytest.approx(want[0], rel=1e-12)


def test_log_density_rank_zero_factor():
    kern = NoisedMixture(FactoredMixture([np.zeros(2)], [np.zeros((2, 0))], [1.0]), 1.0, 0.5)
    want = dense_gaussian_logpdf(np.array([0.3, -0.1]), np.zeros(2), 0.25 * np.eye(2))
    assert kern.log_density(np.array([0.3, -0.1])) == pytest.approx(want, rel=1e-12)


def test_single_component_solve_matches_dense_solve():
    rng = np.random.default_rng(1)
    d, r = 4, 2
    U = rng.standard_normal((d, r))
    mu = rng.standard_normal(d)
    s, gamma = 1.3, 0.6
    kern = NoisedMixture(FactoredMixture([mu], [U], [1.0]), s, gamma)
    cov = s * s * U @ U.T + gamma * gamma * np.eye(d)
    x = rng.standard_normal(d)
    want = gamma * gamma * np.linalg.solve(cov, x - s * mu)
    assert gamma * gamma * kern.solve(0, x - s * mu) == pytest.approx(want, rel=1e-12)


def test_flatten_unflatten_roundtrip_and_order():
    params, _ = random_params(3, 2, 2, seed=2)
    vec = params.flatten()
    assert vec.shape == (params.dim,)
    back = params.unflatten(vec)
    for (mu_a, U_a), (mu_b, U_b) in zip(params.components, back.components):
        assert np.array_equal(mu_a, mu_b)
        assert np.array_equal(U_a, U_b)
    # means occupy the leading block; factors are raveled column-major
    assert np.array_equal(vec[:3], params.components[0][0])
    U0 = params.components[0][1]
    assert vec[6] == U0[0, 0] and vec[7] == U0[1, 0] and vec[9] == U0[0, 1]
    with pytest.raises(DimensionMismatch):
        params.unflatten(np.zeros(params.dim + 1))
    with pytest.raises(DimensionMismatch):
        LatentParams(())


def test_symmetric_params_roundtrip_and_expansion():
    p = SymmetricParams(mu=[4.0, 0.0], U=[[1.0], [0.0]])
    q = p.unflatten(p.flatten())
    assert np.array_equal(q.mu, p.mu) and np.array_equal(q.U, p.U)
    latent, pis = p.mixture(None)
    assert np.array_equal(pis, [0.5, 0.5])
    assert np.array_equal(latent.components[1][0], -p.mu)
    assert np.array_equal(latent.components[1][1], p.U)
    # the tied form is a one-component LatentParams with the same flat layout
    assert isinstance(p, LatentParams) and type(q) is SymmetricParams
    [(mu, U)] = p.components
    assert mu is p.mu and U is p.U
    assert np.array_equal(p.flatten(), LatentParams(((p.mu, p.U),)).flatten())
    assert np.array_equal(SymmetricParams([4.0, 0.0], [[1.0], [0.0]]).flatten(), p.flatten())


def test_responsibilities_sum_to_one_and_limits(unit_sched):
    params, pis = random_params(3, 3, 2, seed=4)
    X = np.random.default_rng(5).standard_normal((20, 3))
    r = responsibilities(params, pis, unit_sched, 0.5, X)
    assert r.shape == (20, 3)
    assert np.all(r >= 0)
    assert np.sum(r, axis=1) == pytest.approx(np.ones(20), abs=1e-12)
    # with equal shared covariances, a point far along one mean is assigned
    # to that component
    sep = LatentParams((([4.0, 0.0, 0.0], 0.3 * np.eye(3)[:, :1]),
                        ([-4.0, 0.0, 0.0], 0.3 * np.eye(3)[:, :1])))
    far = responsibilities(sep, [0.5, 0.5], unit_sched, 0.5, np.array([4.0, 0.0, 0.0]))
    assert far[0] > 0.999


def test_latent_score_is_gradient_of_log_density(unit_sched, vp_sched):
    for sched, seed in [(unit_sched, 6), (vp_sched, 7)]:
        params, pis = random_params(3, 2, 2, seed=seed)
        rng = np.random.default_rng(seed + 50)
        for t in [0.1, 0.8]:
            for _ in range(3):
                x = rng.standard_normal(3)
                want = fd_gradient(
                    lambda y: mixture_log_density(params, pis, sched, t, y), x
                )
                got = latent_score(params, pis, sched, t, x)
                assert got == pytest.approx(want, abs=1e-6)


def test_symmetric_score_odd_and_matches_explicit_mixture(unit_sched):
    mu = np.array([2.0, 0.5])
    U = np.array([[0.8], [0.1]])
    rng = np.random.default_rng(8)
    X = rng.standard_normal((30, 2))
    tied = SymmetricParams(mu=mu, U=U)
    got = latent_score(tied, None, unit_sched, 1.0, X)
    explicit = LatentParams(((mu, U), (-mu, U)))
    assert got == pytest.approx(latent_score(explicit, [0.5, 0.5], unit_sched, 1.0, X), abs=1e-14)
    # odd symmetry of the tied two-mode score
    assert latent_score(tied, None, unit_sched, 1.0, -X) == pytest.approx(-got, abs=1e-12)
    r = responsibilities(tied, None, unit_sched, 1.0, np.zeros(2))
    assert r == pytest.approx([0.5, 0.5], abs=1e-14)


def test_score_at_midpoint_of_symmetric_pair_is_pulled_by_covariance(unit_sched):
    # at x = 0 the mean terms cancel, leaving only the shared-covariance pull
    mu = np.array([3.0, 0.0])
    U = np.array([[1.0], [0.0]])
    sc = latent_score(SymmetricParams(mu=mu, U=U), None, unit_sched, 1.0, np.zeros(2))
    assert sc == pytest.approx(np.zeros(2), abs=1e-14)


def test_ambient_score_matches_fd_and_latent_reduction(unit_sched):
    A = random_orthonormal(4, 2, 7)
    comps = (
        ([2.0, 0.0], [[0.6], [0.1]]),
        ([-2.0, 0.5], [[0.2], [0.5]]),
    )
    model = MoLRMoGModel(D=4, subspaces=(Subspace(components=comps, A=A, weights=[0.5, 0.5]),))
    rng = np.random.default_rng(9)
    t = 0.5
    for _ in range(4):
        x = rng.standard_normal(4)
        want = fd_gradient(lambda y: ambient_log_density(model, unit_sched, t, y), x)
        assert ambient_score(model, unit_sched, t, x) == pytest.approx(want, abs=1e-6)
    r = ambient_responsibilities(model, unit_sched, t, rng.standard_normal((5, 4)))
    assert np.sum(r, axis=1) == pytest.approx(np.ones(5), abs=1e-12)
    # single-subspace ambient density equals the latent density plus the
    # off-subspace Gaussian part (orthogonal complement is pure noise)
    sub = model.subspaces[0]
    x = rng.standard_normal(4)
    z = A.T @ x
    perp = x - A @ z
    gamma = unit_sched.gamma(t)
    off = -0.5 * (2 * np.log(2 * np.pi * gamma**2) + np.sum(perp**2) / gamma**2)
    assert ambient_log_density(model, unit_sched, t, x) == pytest.approx(
        mixture_log_density(sub, sub.weights, unit_sched, t, z) + off, rel=1e-10
    )


def test_conditional_score_closed_form(unit_sched):
    x0 = np.array([1.0, -2.0])
    xt = np.array([0.5, 0.5])
    got = conditional_score(xt, x0, unit_sched, 0.25)
    assert got == pytest.approx(-(xt - x0) / 0.25, rel=1e-12)


def test_batch_and_single_shapes_agree(unit_sched):
    params, pis = random_params(2, 2, 1, seed=10)
    X = np.random.default_rng(11).standard_normal((7, 2))
    batch = latent_score(params, pis, unit_sched, 0.3, X)
    rows = np.stack([latent_score(params, pis, unit_sched, 0.3, x) for x in X])
    assert batch == pytest.approx(rows, rel=1e-12, abs=1e-12)
    with pytest.raises(DimensionMismatch):
        latent_score(params, pis, unit_sched, 0.3, np.zeros(5))
    with pytest.raises(EmptyDataset):
        latent_score(params, pis, unit_sched, 0.3, np.zeros((0, 2)))


def dense_mixture(weights, means, factors, s, gamma, X):
    """(score, responsibilities, log density) by dense covariances and Cholesky."""
    d = X.shape[1]
    logj, grads = [], []
    for w, mu, U in zip(weights, means, factors):
        cov = s * s * U @ U.T + gamma * gamma * np.eye(d)
        logj.append(np.log(w) + dense_gaussian_logpdf(X, s * mu, cov))
        grads.append(-np.linalg.solve(cov, (X - s * mu).T).T)
    logj = np.stack(logj, axis=1)
    logp = logsumexp(logj, axis=1)
    r = np.exp(logj - logp[:, None])
    return sum(r[:, l:l + 1] * g for l, g in enumerate(grads)), r, logp


def test_kernel_matches_dense_cholesky_across_ranks_and_schedules(unit_sched, vp_sched):
    d = 3
    rng = np.random.default_rng(12)
    factors = [np.zeros((d, 0)), rng.standard_normal((d, 1)), rng.standard_normal((d, d))]
    means = [2.0 * rng.standard_normal(d) for _ in factors]
    pis = np.array([0.2, 0.3, 0.5])
    params = LatentParams(tuple(zip(means, factors)))
    for sched in (unit_sched, vp_sched):
        for t in (sched.t_min, sched.t_max):
            s, gamma = sched.s(t), sched.gamma(t)
            near = np.concatenate([s * mu + gamma * rng.standard_normal((4, d)) for mu in means])
            X = np.vstack([near, 2.0 * rng.standard_normal((6, d))])
            want_score, want_r, want_logp = dense_mixture(pis, means, factors, s, gamma, X)
            kern = NoisedMixture(FactoredMixture(means, factors, pis), s, gamma)
            for got_score, got_r, got_logp in (
                (kern.score(X), kern.responsibilities(X), kern.log_density(X)),
                (latent_score(params, pis, sched, t, X), responsibilities(params, pis, sched, t, X),
                 mixture_log_density(params, pis, sched, t, X)),
            ):
                assert got_score.shape == X.shape and got_r.shape == (len(X), 3)
                assert got_score == pytest.approx(want_score, rel=1e-9)
                assert got_r == pytest.approx(want_r, rel=1e-9)
                assert got_logp == pytest.approx(want_logp, rel=1e-9)
            for i in (0, len(X) - 1):
                assert kern.score(X[i]).shape == (d,)
                assert kern.score(X[i]) == pytest.approx(want_score[i], rel=1e-9)
                assert kern.responsibilities(X[i]) == pytest.approx(want_r[i], rel=1e-9)
                assert isinstance(kern.log_density(X[i]), float)
                assert kern.log_density(X[i]) == pytest.approx(want_logp[i], rel=1e-9)
            q, r, logp = mixture_kernel(params, pis, sched, t).evaluate(X)
            assert q.shape == (3, len(X), d)
            for l, (mu, U) in enumerate(zip(means, factors)):
                cov = s * s * U @ U.T + gamma * gamma * np.eye(d)
                assert q[l] == pytest.approx(np.linalg.solve(cov, (X - s * mu).T).T, rel=1e-9)


def _highdim_model():
    """D = 64 with K = 4 planes, each holding two rank-one components whose
    means have norm about 5."""
    subs = []
    for k in range(4):
        rng = np.random.default_rng(30 + k)
        comps = tuple((rng.normal(0.0, 3.5, 2), 0.5 * rng.standard_normal((2, 1)))
                      for _ in range(2))
        subs.append(Subspace(components=comps, A=random_orthonormal(64, 2, 40 + k),
                             weights=[0.5, 0.5]))
    return MoLRMoGModel(D=64, subspaces=tuple(subs))


def test_ambient_kernel_matches_dense_cholesky(vp_sched):
    comps_a = (([2.0, 0.0], [[0.6], [0.1]]), ([-2.0, 0.5], np.zeros((2, 0))))
    comps_b = (([0.0, 1.5, -1.0], 0.4 * np.eye(3)),)
    model = MoLRMoGModel(D=5, subspaces=(
        Subspace(components=comps_a, A=random_orthonormal(5, 2, 3), weights=[0.3, 0.7]),
        Subspace(components=comps_b, A=random_orthonormal(5, 3, 4), weights=[1.0])))
    X = 2.0 * np.random.default_rng(13).standard_normal((9, 5))
    # D = 64 (K = 4, d = 2, L = 2), and at t_min points near its means, |x| ~ 5
    big = _highdim_model()
    rng = np.random.default_rng(14)
    s, gamma = vp_sched.s(vp_sched.t_min), vp_sched.gamma(vp_sched.t_min)
    near = [s * sub.A @ c.mu + gamma * rng.standard_normal(64)
            for sub in big.subspaces for c in sub.components]
    cases = [(model, X, (vp_sched.t_min, vp_sched.t_max)),
             (big, 0.6 * rng.standard_normal((6, 64)), (0.5, vp_sched.t_max)),
             (big, np.array(near), (vp_sched.t_min,))]
    for model, X, times in cases:
        flat = [(sub, c, pi) for sub in model.subspaces
                for c, pi in zip(sub.components, sub.weights)]
        weights = [pi / model.K for _, _, pi in flat]
        means = [sub.A @ c.mu for sub, c, _ in flat]
        factors = [sub.A @ c.U for sub, c, _ in flat]
        for t in times:
            want_score, want_r, want_logp = dense_mixture(
                weights, means, factors, vp_sched.s(t), vp_sched.gamma(t), X)
            assert ambient_score(model, vp_sched, t, X) == pytest.approx(want_score, rel=1e-9)
            assert ambient_responsibilities(model, vp_sched, t, X) == pytest.approx(want_r,
                                                                                    rel=1e-9)
            assert ambient_log_density(model, vp_sched, t, X) == pytest.approx(want_logp,
                                                                               rel=1e-9)
            assert ambient_log_density(model, vp_sched, t, X[2]) == pytest.approx(want_logp[2],
                                                                                  rel=1e-9)


def test_ambient_score_holds_no_per_component_residuals(vp_sched):
    """One ambient_score call at D = 64 with 8 components and n = 2000 peaks
    below 3.5 n D 8 bytes: x^T, the scratch rho, the weights and a_l rows
    (0.25 n D 8 here) and the result, where every component's (D, n)
    residual alone is 8 n D 8."""
    import tracemalloc

    model = _highdim_model()
    X = 0.6 * np.random.default_rng(15).standard_normal((2000, 64))
    ambient_score(model, vp_sched, 0.5, X)
    tracemalloc.start()
    try:
        ambient_score(model, vp_sched, 0.5, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 2000 * 64 * 8, peak


def test_residuals_equal_woodbury_product_exactly(vp_sched):
    """evaluate's q_l, formed from the pass's own a_l = W_l rho_l, is
    (rho - W^T (W rho)) / gamma^2 bit for bit, for rank-one and rank-two factors."""
    rng = np.random.default_rng(21)
    for rank, d in ((1, 1), (1, 2), (1, 5), (2, 2), (2, 5)):
        params, pis = random_params(d, 3, rank, seed=d * rank)
        kern = mixture_kernel(params, pis, vp_sched, 0.4)
        X = rng.standard_normal((50, d)) * 3.0
        q = kern.evaluate(X)[0]
        for l, (c, rows) in enumerate(zip(kern.centers[0], kern.rows)):
            W = kern.M[0, rows]
            rho = np.ascontiguousarray(X.T) - c[:, None]
            want = (rho - W.T @ (W @ rho)) / kern.g2
            assert np.array_equal(q[l], want.T), (rank, d, l)


def test_successive_passes_return_independent_arrays(vp_sched):
    """A second score/evaluate call on another batch of the same size leaves
    the first call's results untouched."""
    rng = np.random.default_rng(22)
    for rank in (1, 2):
        params, pis = random_params(3, 2, rank, seed=rank)
        kern = mixture_kernel(params, pis, vp_sched, 0.6)
        X1, X2 = rng.standard_normal((2, 40, 3))
        first = [kern.score(X1), *kern.evaluate(X1)]
        kept = [a.copy() for a in first]
        second = [kern.score(X2), *kern.evaluate(X2)]
        for a, b, c in zip(first, kept, second):
            assert np.array_equal(a, b)
            assert not np.array_equal(a, c)


def test_lower_solve_matches_scipy_triangular_solve():
    """The numpy forward substitution against LAPACK's, through scipy, for
    factor ranks 1 to 6; rank 0 gives an empty solve."""
    from scipy.linalg import solve_triangular

    rng = np.random.default_rng(23)
    for r in range(1, 7):
        for d in (1, 2, 5, 9):
            U = rng.standard_normal((d, r))
            chol = np.linalg.cholesky(0.3 * np.eye(r) + 0.8 * (U.T @ U))
            want = solve_triangular(chol, U.T, lower=True)
            got = _lower_solve(chol, U.T)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), (r, d)
    assert _lower_solve(np.zeros((0, 0)), np.zeros((0, 4))).shape == (0, 4)


def _kernel_outputs(kern, X):
    """Score, evaluate's (q, r, logp) and log density of kern at X, raveled."""
    q, r, logp = kern.evaluate(X)
    got = {"score": kern.score(X), "q": q, "r": r, "logp": logp,
           "log_density": kern.log_density(X)}
    return {name: np.ravel(a).tolist() for name, a in got.items()}


def _tile_digests(spec):
    """SHA-256 prefixes of an estimation trial tile on the model spec: per
    subspace, the pass over 300 rows of the sets 2 to 5 of a kernel of 8 grid
    points (its M^T z, z, top and total), then the `stacked_errors` of that
    tile summed over the subspaces."""
    unit = make_schedule("constant_drift", 1.0, 0.01, 1.0)
    model = build_model(spec)
    grid = make_theta_grid(model.subspaces, half_width=0.25, count=8, seed=3)
    X = forward_noise(sample_data(model, 300, np.random.default_rng(7)).x, unit, 0.5,
                      np.random.default_rng(8))
    kernels = [mixture_kernel([th[k] for th in grid], sub.weights, unit, 0.5)
               for k, sub in enumerate(model.subspaces)]
    truths = [mixture_kernel(sub, sub.weights, unit, 0.5) for sub in model.subspaces]
    Zs = [np.asfortranarray(encode(sub, X)) for sub in model.subspaces]
    sets, out = slice(2, 6), []
    for kern, Z in zip(kernels, Zs):
        _, work, z, (top, total) = kern._pass(Z, sets=sets)
        out += [work[-1], z, top, total]
    targets = [Z.T + truth.g2 * truth.score(Z).T for truth, Z in zip(truths, Zs)]
    out.append(stacked_errors(kernels, Zs, targets, sets))
    return [hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16] for a in out]


def test_one_set_kernel_keeps_its_bits(vp_sched):
    """A one-set kernel gives the score, evaluate and log-density bits it gave
    before the kernel took a parameter-set axis (values stored from that
    code, rank-one and rank-two components, this numpy and BLAS build).  So
    do, with values stored from the kernel pass before it squared the factor
    rows into its own scratch and took the max and the normalizer row by row:
    a kernel with more factor rows than coordinates (d = 2, ranks 1 and 2),
    and an estimation tile on a model mixing rank-one and rank-two subspaces."""
    params = LatentParams((
        (np.array([1.0, -0.5, 0.25]), np.array([[0.6], [0.1], [-0.3]])),
        (np.array([-1.0, 0.5, 0.0]), np.array([[0.2, 0.4], [0.5, -0.1], [0.0, 0.3]]))))
    X = np.array([[0.4, -0.2, 0.9], [-0.7, 0.3, -0.1]])
    kern = mixture_kernel(params, np.array([0.3, 0.7]), vp_sched, 0.4)
    stored = {
        "score": [-0.49368225721004905, 0.1695739978122181, -1.270557995792369,
                  0.1591530098528942, -0.027130517632443174, 0.20208467476855183],
        "q": [-0.252746934771795, 0.28513689249617047, 1.2109773897908696,
              -2.0499173035412777, 1.2265187486605875, -0.7051850682443351,
              1.5919368267290146, -0.8386104160762183, 1.3582215993849887,
              -0.029910968485287834, -0.054852934185326024, -0.167695553880926],
        "r": [0.5953619760958053, 0.40463802390419457, 0.06398100794274206, 0.9360189920572579],
        "logp": [-3.2035311575166383, -2.364430942776515],
        "log_density": [-3.2035311575166383, -2.364430942776515],
    }
    assert _kernel_outputs(kern, X) == stored

    params = LatentParams((
        (np.array([0.9, -0.4]), np.array([[0.5], [-0.2]])),
        (np.array([-0.6, 0.7]), np.array([[0.3, -0.1], [0.2, 0.6]]))))
    X = np.array([[0.3, -0.8], [-0.5, 0.6]])
    kern = mixture_kernel(params, np.array([0.45, 0.55]), vp_sched, 0.4)
    assert not kern.rank_one and kern.M.shape[1] - len(kern.rows) > kern.d
    stored = {
        "score": [0.08265227904325607, 1.1738141322989692, 0.4039366103652504,
                -0.38785258339384493],
        "q": [-0.523639133189155, -0.9767102345151363, -1.5690139964803578, 1.4026832293907263,
            1.1789580114359952, -1.737704650575922, -0.1642164651294723, 0.17904641073326252],
        "r": [0.7409916635077007, 0.25900833649229926, 0.17064391122986786, 0.829356088770132],
        "logp": [-2.1853453783229706, -1.8521773465421953],
        "log_density": [-2.1853453783229706, -1.8521773465421953],
    }
    assert _kernel_outputs(kern, X) == stored

    assert _tile_digests(MIXED_SPEC) == [
        "86bc591ed13064bd", "a681e9eb6faafff8", "51250bd173899388", "613a0a234eb66ded",
        "dea70c62b8531151", "9c9eb0540442a098", "8c416fd356e46daf", "5485c6b2a1b42da3",
        "bfb2c9bb64816098"]


def test_all_rank_one_kernel_keeps_its_bits(vp_sched):
    """A kernel whose factors all have rank one skips the pass's GEMM against
    the component-sum matrix and gives the bits it gave with it: the tied
    form at d = 3 (values stored from the GEMM code, this numpy and BLAS
    build).  So do, with values stored from the kernel pass before it squared
    the factor rows into its own scratch and took the max and the normalizer
    row by row: three rank-one components at d = 2, more factor rows than
    coordinates, and an estimation tile on the benchmark's two-subspace
    model."""
    params = SymmetricParams(np.array([0.8, -0.3, 0.5]), np.array([[0.4], [-0.2], [0.7]]))
    X = np.array([[0.6, -0.1, 0.2], [-0.9, 0.4, -0.3]])
    kern = mixture_kernel(params, None, vp_sched, 0.4)
    assert kern.rank_one
    stored = {
        "score": [-0.5392448413761635, -0.032008887347460546, 0.04583539004130521,
                  0.8218853328565108, -0.4075489852648873, -0.09041593022719711],
        "q": [0.14963282121660604, 0.16664897749455146, -0.18616314592634117,
              -2.1761491823599455, 0.8755484240538036, -0.39735343273860607,
              1.726161060798829, -0.3781594301358313, 0.38165986389599255,
              -0.5996209427777225, 0.3307400164234209, 0.17046957708372754],
        "r": [0.7528670845358255, 0.2471329154641746, 0.1409834498985492, 0.8590165501014507],
        "logp": [-2.5202523213595818, -2.7713218964946646],
        "log_density": [-2.5202523213595818, -2.7713218964946646],
    }
    assert _kernel_outputs(kern, X) == stored

    params = LatentParams((
        (np.array([1.2, -0.3]), np.array([[0.4], [0.3]])),
        (np.array([-0.8, 0.9]), np.array([[-0.2], [0.6]])),
        (np.array([0.1, -1.1]), np.array([[0.5], [-0.1]]))))
    X = np.array([[0.2, 0.7], [-1.0, -0.4]])
    kern = mixture_kernel(params, np.array([0.2, 0.5, 0.3]), vp_sched, 0.4)
    assert kern.rank_one and kern.M.shape[1] - len(kern.rows) > kern.d
    stored = {
        "score": [-0.7888208017787539, -0.7368290879964046, 1.283220281156629,
                0.6599032284097246],
        "q": [-1.1116081588350128, 1.6258095753419624, -2.892016871437108,
            -0.07269020329282787, 1.317080842255149, 0.23543140163093887, -0.955918870040166,
            -1.4806106997887587, 0.2886823918253512, 2.6007393707807727, -1.590982313088565,
            0.54327757573599],
        "r": [0.1700825502896363, 0.717915704411688, 0.11200174529867583, 0.04669474112232773,
            0.5802782507150839, 0.3730270081625884],
        "logp": [-2.240471483484088, -2.495778486425308],
        "log_density": [-2.240471483484088, -2.495778486425308],
    }
    assert _kernel_outputs(kern, X) == stored

    assert _tile_digests(TWO_SUBSPACE_SPEC) == [
        "9acb29bcf7a9ffab", "776121e0a001ea5f", "38d59720a8681cc0", "6752c4b34a810a81",
        "78d65f688c4a220a", "2717659745f390f9", "3c3b2ec52ddbca16", "2ae608d85de4b439",
        "a89bb7dc096fc3cc"]


def test_kernel_ranks_zero_and_two_match_dense_cholesky(vp_sched):
    """Ranks (0, 2) and (2, 0) give as many factor rows as components, as an
    all-rank-one mixture does, yet each component's two rows must be summed:
    the kernel matches the dense oracle there too."""
    d = 3
    rng = np.random.default_rng(24)
    pis = np.array([0.4, 0.6])
    for ranks in ((0, 2), (2, 0)):
        factors = [rng.standard_normal((d, r)) for r in ranks]
        means = [2.0 * rng.standard_normal(d) for _ in ranks]
        for t in (vp_sched.t_min, vp_sched.t_max):
            s, gamma = vp_sched.s(t), vp_sched.gamma(t)
            near = np.concatenate([s * mu + gamma * rng.standard_normal((4, d)) for mu in means])
            X = np.vstack([near, 2.0 * rng.standard_normal((6, d))])
            want_score, want_r, want_logp = dense_mixture(pis, means, factors, s, gamma, X)
            kern = NoisedMixture(FactoredMixture(means, factors, pis), s, gamma)
            assert not kern.rank_one
            q, r, logp = kern.evaluate(X)
            assert kern.score(X) == pytest.approx(want_score, rel=1e-9)
            assert kern.responsibilities(X) == pytest.approx(want_r, rel=1e-9)
            assert r == pytest.approx(want_r, rel=1e-9)
            assert kern.log_density(X) == pytest.approx(want_logp, rel=1e-9)
            assert logp == pytest.approx(want_logp, rel=1e-9)
            for l, (mu, U) in enumerate(zip(means, factors)):
                cov = s * s * U @ U.T + gamma * gamma * np.eye(d)
                assert q[l] == pytest.approx(np.linalg.solve(cov, (X - s * mu).T).T, rel=1e-9)


def test_rank_one_closed_form_keeps_the_cholesky_bits(unit_sched, vp_sched):
    """With every factor of rank one, g2 I + s^2 Gram is diagonal, and the
    kernel takes its Cholesky factor as the root of the diagonal and the
    forward substitution as one multiply by the reciprocal pivots: M and const
    equal those of the np.linalg.cholesky + _lower_solve route bit for bit, on
    both schedule kinds from t_min to t_max, for one and for G > 1 parameter
    sets, at d = 1 and with a zero factor."""
    rng = np.random.default_rng(27)
    for d, L, G in ((1, 2, 1), (1, 3, 5), (3, 4, 1), (6, 4, 8)):
        means = 2.0 * rng.standard_normal((G, L, d))
        factors = [rng.standard_normal((G, d, 1)) for _ in range(L - 1)] + [np.zeros((G, d, 1))]
        pis = rng.uniform(0.2, 1.0, L)
        mix = FactoredMixture(means, factors, pis / pis.sum())
        general = copy.copy(mix)
        general.rank_one = False  # the route every other rank takes
        assert mix.rank_one
        for sched in (unit_sched, vp_sched):
            for t in np.linspace(sched.t_min, sched.t_max, 7):
                s, _, gamma = coefficients(sched, float(t))
                fast, slow = NoisedMixture(mix, s, gamma), NoisedMixture(general, s, gamma)
                assert np.array_equal(fast.M, slow.M), (d, L, G, t)
                assert np.array_equal(fast.const, slow.const), (d, L, G, t)


def test_ambient_kernel_keeps_its_digests(unit_sched):
    """Ambient score, log density and responsibilities on the bench's
    two-subspace model at t_min, 0.5 and t_max keep the bits they had when the
    kernel was built whole at every call (SHA-256 prefixes of the C-ordered
    results, stored from that code, this numpy and BLAS build)."""
    model = build_model(TWO_SUBSPACE_SPEC)
    X = forward_noise(sample_data(model, 300, np.random.default_rng(5)).x, unit_sched, 0.5,
                      np.random.default_rng(6))
    stored = {
        0.01: ["6e381ec89c0ea305", "23e1192e1f534dd4", "09f325af3dd81463"],
        0.5: ["24378c3aabbdb1a0", "864ac0928c821f10", "3e451ce7e9c0a3cf"],
        1.0: ["2ba9657623121382", "cd2a924cd3b70768", "b1314e318060a298"],
    }
    assert (unit_sched.t_min, unit_sched.t_max) == (0.01, 1.0)
    for t, want in stored.items():
        got = [hashlib.sha256(np.ascontiguousarray(f(model, unit_sched, t, X)).tobytes())
               .hexdigest()[:16]
               for f in (ambient_score, ambient_log_density, ambient_responsibilities)]
        assert got == want, t


def test_point_layout_keeps_the_bits_and_the_points_unwritten(vp_sched):
    """The pass reads a column-major batch's x^T in place and copies a
    C-ordered one: both give the same bits, and neither is written (a write
    into a read-only batch raises), on the rank-one and the general path."""
    rng = np.random.default_rng(25)
    cases = [random_params(3, 3, 1, seed=26),
             (LatentParams(((rng.standard_normal(3), rng.standard_normal((3, 1))),
                            (rng.standard_normal(3), rng.standard_normal((3, 2))))),
              np.array([0.4, 0.6]))]
    X = 2.0 * rng.standard_normal((40, 3))
    for params, pis in cases:
        kern = mixture_kernel(params, pis, vp_sched, 0.4)
        c, f = ([kern.score(a), kern.responsibilities(a), kern.log_density(a), *kern.evaluate(a)]
                for a in read_only_layouts(X))
        for a, b in zip(c, f):
            assert np.array_equal(a, b)
    model = _highdim_model()
    Y = 0.6 * rng.standard_normal((30, 64))
    c, f = (ambient_score(model, vp_sched, 0.5, a) for a in read_only_layouts(Y))
    assert np.array_equal(c, f)
