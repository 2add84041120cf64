import numpy as np
import pytest
from scipy.special import logsumexp

from conftest import dense_gaussian_logpdf, fd_gradient
from molrmog.errors import DimensionMismatch, EmptyDataset, SingularNoise
from molrmog.model import MoGComponent, Subspace, random_orthonormal, MoLRMoGModel
from molrmog.score import (
    _lower_solve,
    LatentParams,
    NoisedMixture,
    SymmetricParams,
    ambient_log_density,
    ambient_responsibilities,
    ambient_score,
    conditional_score,
    from_model_subspace,
    latent_score,
    mixture_kernel,
    mixture_log_density,
    responsibilities,
    symmetric_responsibilities,
    symmetric_score,
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
        kern = NoisedMixture([mu], [U], [1.0], s, gamma)
        cov = s * s * U @ U.T + gamma * gamma * np.eye(d)
        X = rng.standard_normal((6, d))
        want = dense_gaussian_logpdf(X, s * mu, cov)
        assert kern.log_density(X) == pytest.approx(want, rel=1e-12)
        assert kern.log_density(X[0]) == pytest.approx(want[0], rel=1e-12)


def test_log_density_rank_zero_factor():
    kern = NoisedMixture([np.zeros(2)], [np.zeros((2, 0))], [1.0], 1.0, 0.5)
    want = dense_gaussian_logpdf(np.array([0.3, -0.1]), np.zeros(2), 0.25 * np.eye(2))
    assert kern.log_density(np.array([0.3, -0.1])) == pytest.approx(want, rel=1e-12)


def test_single_component_solve_matches_dense_solve():
    rng = np.random.default_rng(1)
    d, r = 4, 2
    U = rng.standard_normal((d, r))
    mu = rng.standard_normal(d)
    s, gamma = 1.3, 0.6
    kern = NoisedMixture([mu], [U], [1.0], s, gamma)
    cov = s * s * U @ U.T + gamma * gamma * np.eye(d)
    x = rng.standard_normal(d)
    want = gamma * gamma * np.linalg.solve(cov, x - s * mu)
    assert gamma * gamma * kern.solve(0, x - s * mu) == pytest.approx(want, rel=1e-12)


def test_singular_noise_rejected():
    with pytest.raises(SingularNoise):
        NoisedMixture([np.zeros(2)], [np.eye(2)], [1.0], 1.0, 0.0).log_density(np.zeros(2))


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


def test_symmetric_params_roundtrip_and_expansion():
    p = SymmetricParams(mu=[4.0, 0.0], U=[[1.0], [0.0]])
    q = p.unflatten(p.flatten())
    assert np.array_equal(q.mu, p.mu) and np.array_equal(q.U, p.U)
    latent, pis = p.mixture(None)
    assert np.array_equal(pis, [0.5, 0.5])
    assert np.array_equal(latent.components[1][0], -p.mu)
    assert np.array_equal(latent.components[1][1], p.U)


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
    got = symmetric_score(mu, U, unit_sched, 1.0, X)
    params, pis = SymmetricParams(mu=mu, U=U).mixture(None)
    assert got == pytest.approx(latent_score(params, pis, unit_sched, 1.0, X), abs=1e-14)
    # odd symmetry of the tied two-mode score
    assert symmetric_score(mu, U, unit_sched, 1.0, -X) == pytest.approx(-got, abs=1e-12)
    r = symmetric_responsibilities(mu, U, unit_sched, 1.0, np.zeros(2))
    assert r == pytest.approx([0.5, 0.5], abs=1e-14)


def test_score_at_midpoint_of_symmetric_pair_is_pulled_by_covariance(unit_sched):
    # at x = 0 the mean terms cancel, leaving only the shared-covariance pull
    mu = np.array([3.0, 0.0])
    U = np.array([[1.0], [0.0]])
    sc = symmetric_score(mu, U, unit_sched, 1.0, np.zeros(2))
    assert sc == pytest.approx(np.zeros(2), abs=1e-14)


def test_ambient_score_matches_fd_and_latent_reduction(unit_sched):
    A = random_orthonormal(4, 2, 7)
    comps = (
        MoGComponent(pi=0.5, mu=[2.0, 0.0], U=[[0.6], [0.1]]),
        MoGComponent(pi=0.5, mu=[-2.0, 0.5], U=[[0.2], [0.5]]),
    )
    model = MoLRMoGModel(D=4, subspaces=(Subspace(A=A, components=comps),))
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
    params, pis = from_model_subspace(model.subspaces[0])
    x = rng.standard_normal(4)
    z = A.T @ x
    perp = x - A @ z
    gamma = unit_sched.gamma(t)
    off = -0.5 * (2 * np.log(2 * np.pi * gamma**2) + np.sum(perp**2) / gamma**2)
    assert ambient_log_density(model, unit_sched, t, x) == pytest.approx(
        mixture_log_density(params, pis, unit_sched, t, z) + off, rel=1e-10
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
            kern = NoisedMixture(means, factors, pis, s, gamma)
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


def test_ambient_kernel_matches_dense_cholesky(vp_sched):
    comps_a = (MoGComponent(pi=0.3, mu=[2.0, 0.0], U=[[0.6], [0.1]]),
               MoGComponent(pi=0.7, mu=[-2.0, 0.5], U=np.zeros((2, 0))))
    comps_b = (MoGComponent(pi=1.0, mu=[0.0, 1.5, -1.0], U=0.4 * np.eye(3)),)
    model = MoLRMoGModel(D=5, subspaces=(
        Subspace(A=random_orthonormal(5, 2, 3), components=comps_a),
        Subspace(A=random_orthonormal(5, 3, 4), components=comps_b)))
    flat = [(sub, c) for sub in model.subspaces for c in sub.components]
    weights = [c.pi / 2 for _, c in flat]
    means = [sub.A @ c.mu for sub, c in flat]
    factors = [sub.A @ c.U for sub, c in flat]
    X = 2.0 * np.random.default_rng(13).standard_normal((9, 5))
    for t in (vp_sched.t_min, vp_sched.t_max):
        want_score, want_r, want_logp = dense_mixture(
            weights, means, factors, vp_sched.s(t), vp_sched.gamma(t), X)
        assert ambient_score(model, vp_sched, t, X) == pytest.approx(want_score, rel=1e-9)
        assert ambient_responsibilities(model, vp_sched, t, X) == pytest.approx(want_r, rel=1e-9)
        assert ambient_log_density(model, vp_sched, t, X) == pytest.approx(want_logp, rel=1e-9)
        assert ambient_log_density(model, vp_sched, t, X[2]) == pytest.approx(want_logp[2],
                                                                              rel=1e-9)


def test_rank_one_residual_equals_matmul_exactly(vp_sched):
    """The broadcast outer product gives W^T (W rho) bit for bit."""
    rng = np.random.default_rng(21)
    for d in (1, 2, 5):
        params, pis = random_params(d, 3, 1, seed=d)
        kern = mixture_kernel(params, pis, vp_sched, 0.4)
        X = rng.standard_normal((50, d)) * 3.0
        q = kern.evaluate(X)[0]
        for l, (c, W) in enumerate(zip(kern.centers, kern.W)):
            rho = np.ascontiguousarray(X.T) - c[:, None]
            want = (rho - W.T @ (W @ rho)) / kern.g2
            assert np.array_equal(q[l], want.T)


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
