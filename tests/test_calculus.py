import numpy as np
import pytest
from conftest import dense_gaussian_logpdf

from molrmog.calculus import (
    BLOCK_ELEMENTS,
    alpha_asymmetric,
    alpha_symmetric,
    constants_CprimeCtilde,
    equivalent_gaussian_error,
    exact_jacobian,
    hessian_empirical,
    hessian_from_samples,
    jacobian_exact_terms,
    jacobian_fd,
    jacobian_terms,
    mmtop_eigs,
    overlap_analysis,
    sample_noised,
    score_of,
)
from molrmog.errors import (
    DimensionMismatch,
    EmptyDataset,
    RankNotOne,
    SingleComponent,
)
from molrmog.model import MoGComponent, Subspace, random_orthonormal
from molrmog.schedule import coefficients
from molrmog.score import (
    LatentParams,
    SymmetricParams,
    responsibilities,
    symmetric_responsibilities,
)


def test_jacobian_fd_richardson_consistency(unit_sched):
    """Halving the step shrinks the FD error against the exact Jacobian by
    about the expected second-order factor."""
    p = SymmetricParams(mu=[1.5, 0.3], U=[[0.7], [0.2]])
    x = np.array([0.4, -0.9])
    exact = exact_jacobian(p, None, unit_sched, 0.5, x)[0]
    errs = []
    for h in (1e-3, 5e-4):
        fd = jacobian_fd(p, None, unit_sched, 0.5, x, h=h).full
        errs.append(np.max(np.abs(fd - exact)))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0


def test_symmetric_exact_matches_fd(unit_sched, vp_sched):
    rng = np.random.default_rng(0)
    for sched in (unit_sched, vp_sched):
        for t in (0.3, 1.0):
            for _ in range(5):
                d = rng.integers(2, 5)
                p = SymmetricParams(mu=rng.standard_normal(d),
                                    U=rng.standard_normal((d, 1)))
                x = rng.standard_normal(d)
                fd = jacobian_fd(p, None, sched, t, x).full
                got = exact_jacobian(p, None, sched, t, x)[0]
                assert got == pytest.approx(fd, abs=5e-7)


def test_general_jacobian_matches_fd(unit_sched):
    rng = np.random.default_rng(1)
    for _ in range(6):
        d = int(rng.integers(2, 4))
        L = int(rng.integers(2, 4))
        r = int(rng.integers(1, d + 1))
        params = LatentParams(tuple(
            (rng.standard_normal(d), rng.standard_normal((d, r))) for _ in range(L)
        ))
        pis = rng.uniform(0.2, 1.0, L)
        pis /= pis.sum()
        x = rng.standard_normal(d)
        fd = jacobian_fd(params, pis, unit_sched, 0.6, x).full
        got = exact_jacobian(params, pis, unit_sched, 0.6, x)[0]
        assert got == pytest.approx(fd, abs=5e-7)


def test_exact_terms_sum_and_blocks(unit_sched):
    p = SymmetricParams(mu=[2.0, -0.5], U=[[0.9], [0.4]])
    x = np.array([0.8, 0.1])
    termA, termB = jacobian_exact_terms(p.mu, p.U, unit_sched, 1.0, x)
    full = termA.full + termB.full
    assert full == pytest.approx(jacobian_fd(p, None, unit_sched, 1.0, x).full, abs=5e-7)
    simp = jacobian_exact_terms(p.mu, p.U, unit_sched, 1.0, x)[0]
    assert np.array_equal(simp.full, termA.full)
    # block shapes: one mean block (d, d) and one factor block (d, d*r)
    assert termA.J_mu[0].shape == (2, 2)
    assert termA.J_U[0].shape == (2, 2)


def test_simplified_jacobian_accurate_when_modes_separate(unit_sched):
    """The responsibility-derivative part dies off as the modes separate, so
    the frozen-responsibility Jacobian converges to the exact one."""
    U = np.array([[0.5], [0.2]])
    errs = []
    for gap in (1.0, 4.0, 10.0):
        mu = np.array([gap / 2, 0.0])
        x = mu + np.array([1.0, 0.3])  # one noise unit off the + mode
        exact = exact_jacobian(SymmetricParams(mu=mu, U=U), None, unit_sched, 1.0, x)[0]
        simp = jacobian_exact_terms(mu, U, unit_sched, 1.0, x)[0].full
        errs.append(np.max(np.abs(exact - simp)))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-8


def test_cross_term_suppression_sweep(unit_sched):
    """|termB|/|termA| at matched positions decays monotonically with the
    mode separation measured in noise units."""
    U = np.array([[1.0], [0.0]])
    gamma = 1.0  # unit schedule at t = 1
    ratios = []
    for gap in (2.0, 4.0, 8.0):
        mu = np.array([gap * gamma / 2, 0.0])
        x = np.array([mu[0] + gamma, 0.0])
        termA, termB = jacobian_terms(SymmetricParams(mu=mu, U=U), None, unit_sched, 1.0, x)[2:]
        ratios.append(np.linalg.norm(termB[0]) / np.linalg.norm(termA[0]))
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[2] < 1e-4


@pytest.mark.parametrize("n", [2, 3, 8, 16])
def test_mmtop_matches_dense_eigensolver(n):
    rng = np.random.default_rng(n)
    for _ in range(25):
        a = rng.standard_normal(n)
        b = rng.standard_normal(n)
        M = (a @ b) * np.eye(n) + np.outer(b, a)
        want = np.linalg.eigvalsh(M @ M.T)
        got = mmtop_eigs(a, b)
        scale = max(1.0, want[-1])
        assert got.spectrum == pytest.approx(want, abs=1e-9 * scale)
        assert got.lambda_min == pytest.approx(want[0], abs=1e-9 * scale)
        assert got.lambda_max == pytest.approx(want[-1], abs=1e-9 * scale)


def test_mmtop_definite_iff_not_orthogonal():
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    assert mmtop_eigs(a, b).lambda_min == 0.0
    assert mmtop_eigs(a, 2 * a).lambda_min > 0
    with pytest.raises(DimensionMismatch):
        mmtop_eigs(np.ones(3), np.ones(4))
    with pytest.raises(DimensionMismatch):
        mmtop_eigs(np.ones(1), np.ones(1))


def test_alpha_symmetric_values_and_errors(unit_sched):
    # s = gamma = 1: the mean-curvature branch gives 1/4
    a = alpha_symmetric([4.0, 0.0], [[1.0], [0.0]], unit_sched, 1.0)
    assert a == pytest.approx(0.25)
    # orthogonal factor and mean: the closed-form branch collapses to 0
    assert alpha_symmetric([0.0, 4.0], [[1.0], [0.0]], unit_sched, 1.0) == 0.0
    with pytest.raises(RankNotOne):
        alpha_symmetric([1.0, 0.0], np.eye(2), unit_sched, 1.0)


def test_alpha_asymmetric_reduces_and_weights(unit_sched):
    params = LatentParams((
        ([4.0, 0.0], [[1.0], [0.0]]),
        ([-4.0, 0.0], [[1.0], [0.0]]),
    ))
    a_half = alpha_asymmetric(params, [0.5, 0.5], unit_sched, 1.0)
    assert a_half == pytest.approx(0.5 * 0.25)
    # each component's floor is scaled by its weight
    a_w = alpha_asymmetric(params, [0.3, 0.3], unit_sched, 1.0)
    assert a_w == pytest.approx(0.3 * 0.25)
    with pytest.raises(RankNotOne):
        alpha_asymmetric(LatentParams((([1.0, 0.0], np.eye(2)),)), [1.0], unit_sched, 1.0)


def test_sample_noised_moments(unit_sched):
    p = SymmetricParams(mu=[3.0, 0.0], U=[[1.0], [0.0]])
    X = sample_noised(p, None, unit_sched, 1.0, 200000, 7)
    # symmetric mixture: mean 0, var = s^2 mu mu^T + s^2 U U^T + gamma^2 I
    assert np.mean(X, axis=0) == pytest.approx([0.0, 0.0], abs=0.05)
    cov = np.cov(X.T)
    assert cov[0, 0] == pytest.approx(9.0 + 1.0 + 1.0, rel=0.02)
    assert cov[1, 1] == pytest.approx(1.0, rel=0.02)


def test_hessian_report_structure_and_oracle(unit_sched):
    p = SymmetricParams(mu=[4.0, 0.0], U=[[1.0], [0.0]])
    X = sample_noised(p, None, unit_sched, 1.0, 4000, 11)
    rep = hessian_from_samples(p, None, unit_sched, 1.0, X)
    # brute-force assembly over the same samples
    J = exact_jacobian(p, None, unit_sched, 1.0, X)
    H_direct = np.einsum("ndp,ndq->pq", J, J) / X.shape[0]
    assert rep.H == pytest.approx(0.5 * (H_direct + H_direct.T), abs=1e-12)
    assert np.array_equal(rep.H, rep.H.T)
    assert rep.lambda_min >= -1e-12
    assert rep.factor2 is True
    assert rep.mu_slice == slice(0, 2) and rep.U_slice == slice(2, 4)
    assert rep.H_mumu.shape == (2, 2) and rep.H_muU.shape == (2, 2)
    assert rep.alpha_formula == pytest.approx(0.25)
    assert np.all(rep.stderr >= 0)
    with pytest.raises(EmptyDataset):
        hessian_from_samples(p, None, unit_sched, 1.0, np.zeros((0, 2)))


def _free_rank_one(d, L):
    """Means 4 e_l with rank-one factors 0.5 (e_l + e_{l + d/2}), equal weights."""
    eye = np.eye(d)
    params = LatentParams(tuple(
        (4.0 * eye[l], 0.5 * (eye[l] + eye[(l + d // 2) % d])[:, None]) for l in range(L)))
    return params, np.full(L, 1.0 / L)


def test_hessian_stderr_matches_centered_per_sample_oracle(unit_sched):
    """H and its stderr against a two-pass centered sum over every sample's
    J^T J, with n spanning several row blocks and a multiple of none."""
    tied = SymmetricParams(mu=[2.0, 0.5], U=[[0.8], [0.1]])
    for (params, pis), n in (((tied, None), 10007), (_free_rank_one(3, 2), 2001)):
        d, p = params.d, params.dim
        assert n > BLOCK_ELEMENTS // (d * p)
        assert n % (BLOCK_ELEMENTS // (d * p)) and n % (BLOCK_ELEMENTS // (p * p))
        X = sample_noised(params, pis, unit_sched, 1.0, n, 37)
        rep = hessian_from_samples(params, pis, unit_sched, 1.0, X)
        J = exact_jacobian(params, pis, unit_sched, 1.0, X)
        M = np.einsum("ndp,ndq->npq", J, J)
        H = M.mean(axis=0)
        se = np.sqrt(np.mean((M - H) ** 2, axis=0) / n)
        np.testing.assert_allclose(rep.stderr, se, rtol=1e-10, atol=0)
        np.testing.assert_allclose(rep.H, 0.5 * (H + H.T), rtol=1e-10, atol=0)


def test_hessian_mean_block_stderr_vanishes_for_one_component(unit_sched):
    """With one component J_mu = s Sigma^{-1} at every x, so every per-sample
    mean-block product is the same and its standard error is zero up to
    rounding; a variance taken as S2/n - H^2 leaves cancellation noise."""
    params = LatentParams((([1.0, -0.5], [[0.7], [0.2]]),))
    X = sample_noised(params, [1.0], unit_sched, 1.0, 20000, 3)
    rep = hessian_from_samples(params, [1.0], unit_sched, 1.0, X)
    mm = rep.stderr[rep.mu_slice, rep.mu_slice]
    assert np.max(mm) <= 1e-14 * np.max(np.abs(rep.H))


def test_hessian_memory_bounded(unit_sched):
    """No per-sample (n, p, p) stack: the traced peak stays far below the
    n p^2 doubles such a stack would take."""
    import tracemalloc

    tied = SymmetricParams(mu=[4.0, 0.0], U=[[1.0], [0.0]])
    for (params, pis), n, bound_mb in (
            (_free_rank_one(8, 4), 4096, 32), ((tied, None), 100_000, 8)):
        X = sample_noised(params, pis, unit_sched, 1.0, n, 5)
        tracemalloc.start()
        try:
            hessian_from_samples(params, pis, unit_sched, 1.0, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mb * 2 ** 20, (params.dim, n, peak)


def test_hessian_fd_mode_agrees_with_exact(unit_sched):
    p = SymmetricParams(mu=[2.0, 0.5], U=[[0.8], [0.1]])
    X = sample_noised(p, None, unit_sched, 1.0, 40, 13)
    a = hessian_from_samples(p, None, unit_sched, 1.0, X, jac_mode="exact")
    b = hessian_from_samples(p, None, unit_sched, 1.0, X, jac_mode="fd")
    assert a.H == pytest.approx(b.H, abs=1e-6)
    with pytest.raises(DimensionMismatch):
        hessian_from_samples(p, None, unit_sched, 1.0, X, jac_mode="bogus")


def test_hessian_empirical_reproducible(unit_sched):
    p = SymmetricParams(mu=[3.0, 0.0], U=[[1.0], [0.0]])
    a = hessian_empirical(p, None, unit_sched, 1.0, 2000, 17)
    b = hessian_empirical(p, None, unit_sched, 1.0, 2000, 17)
    assert np.array_equal(a.H, b.H)


def test_overlap_analysis_two_mode(unit_sched):
    p = SymmetricParams(mu=[2.0, 0.0], U=[[1.0], [0.0]])
    X = sample_noised(p, None, unit_sched, 1.0, 4000, 19)
    rep = overlap_analysis(p, None, unit_sched, 1.0, X, mode="two_mode_sup")
    assert 0 <= rep.eps_overlap <= 0.25 + 1e-12
    # the pairwise overlap statistic matches a direct recomputation
    r = symmetric_responsibilities(p.mu, p.U, unit_sched, 1.0, X)
    assert rep.xi_max == pytest.approx(float(np.max(r[:, 0] * r[:, 1])), abs=1e-15)
    # Weyl: lambda_min(H) >= lambda_min(H_diag) - |Delta|
    assert rep.weyl_gap >= -1e-8
    assert rep.lambda_min_H == pytest.approx(rep.hessian.lambda_min)
    assert rep.constants.S_mu == pytest.approx(1.0)  # s / gamma^2 at s = gamma = 1
    assert rep.alpha_eff == pytest.approx(
        rep.lambda_base - rep.constants.C * rep.eps_overlap)


def test_overlap_analysis_multi_mode_and_errors(unit_sched):
    params = LatentParams((
        ([3.0, 0.0], [[1.0], [0.0]]),
        ([-3.0, 0.0], [[1.0], [0.0]]),
        ([0.0, 3.0], [[0.0], [1.0]]),
    ))
    pis = np.array([0.4, 0.4, 0.2])
    X = sample_noised(params, pis, unit_sched, 1.0, 3000, 23)
    rep = overlap_analysis(params, pis, unit_sched, 1.0, X, mode="multi_mode_expect")
    assert rep.eps_total.shape == (3,)
    assert np.all(rep.eps_total >= 0)
    assert rep.weyl_gap >= -1e-8
    with pytest.raises(DimensionMismatch):
        overlap_analysis(params, pis, unit_sched, 1.0, X, mode="two_mode_sup")
    with pytest.raises(DimensionMismatch):
        overlap_analysis(params, pis, unit_sched, 1.0, X, mode="bogus")
    with pytest.raises(EmptyDataset):
        overlap_analysis(params, pis, unit_sched, 1.0, np.zeros((0, 2)))
    tied = SymmetricParams(mu=[2.0, 0.0], U=[[1.0], [0.0]])
    with pytest.raises(DimensionMismatch, match="free mixture"):
        overlap_analysis(tied, None, unit_sched, 1.0, X, mode="multi_mode_expect")


def test_overlap_analysis_matches_separate_reductions(unit_sched):
    """The one-pass overlap analysis gives the Hessian, the perturbation
    constants and the expected overlaps of the separate computations."""
    free = LatentParams((
        ([3.0, 0.0], [[1.0], [0.0]]),
        ([-3.0, 0.0], [[1.0], [0.0]]),
        ([0.0, 3.0], [[0.0], [1.0]]),
    ))
    cases = ((SymmetricParams(mu=[2.0, 0.0], U=[[1.0], [0.0]]), None, "two_mode_sup", 9000),
             (free, np.array([0.4, 0.4, 0.2]), "multi_mode_expect", 6000))
    for params, pis, mode, n in cases:
        X = sample_noised(params, pis, unit_sched, 1.0, n, 43)
        rep = overlap_analysis(params, pis, unit_sched, 1.0, X, mode=mode)
        hess = hessian_from_samples(params, pis, unit_sched, 1.0, X)
        np.testing.assert_allclose(rep.hessian.H, hess.H, rtol=1e-12, atol=0)
        np.testing.assert_allclose(rep.hessian.stderr, hess.stderr, rtol=1e-12, atol=0)
        R = float(np.max(np.linalg.norm(X, axis=1)))
        c = constants_CprimeCtilde(params, pis, unit_sched, 1.0, R, X)
        for field in ("S_mu", "S_U", "C1p", "C2p", "C"):
            assert getattr(rep.constants, field) == pytest.approx(getattr(c, field), rel=1e-12)
    r = responsibilities(free, pis, unit_sched, 1.0, X)
    eps = [sum(np.mean(r[:, j] * r[:, l]) for j in range(3) if j != l) for l in range(3)]
    np.testing.assert_allclose(rep.eps_total, eps, rtol=1e-12, atol=0)


def test_perturbation_constants_scales(unit_sched):
    p = SymmetricParams(mu=[2.0, 0.0], U=[[1.0], [0.0]])
    X = sample_noised(p, None, unit_sched, 1.0, 500, 29)
    c = constants_CprimeCtilde(p, None, unit_sched, 1.0, R=2.0, samples=X)
    assert c.S_mu == pytest.approx(1.0)
    assert c.S_U == pytest.approx(4.0)  # s R^2 / gamma^2
    assert c.C == pytest.approx(2.0 * (c.S_mu + c.S_U) * (c.C1p + c.C2p))
    assert c.C1p >= 0 and c.C2p >= 0


def test_equivalent_gaussian_error_degenerate_and_generic(unit_sched):
    A = random_orthonormal(4, 2, 5)
    same = MoGComponent(pi=0.5, mu=[1.0, 0.0], U=[[0.5], [0.0]])
    sub_same = Subspace(A=A, components=(same, MoGComponent(pi=0.5, mu=[1.0, 0.0], U=[[0.5], [0.0]])))
    eps, delta, err = equivalent_gaussian_error(sub_same, unit_sched, 0.25, probe_radius=1.0)
    assert eps == 0.0 and delta == 0.0
    assert err < 1e-10  # identical components: the mixture is Gaussian
    sub_diff = Subspace(A=A, components=(
        MoGComponent(pi=0.5, mu=[1.0, 0.0], U=[[0.5], [0.0]]),
        MoGComponent(pi=0.5, mu=[-1.0, 0.0], U=[[0.3], [0.1]]),
    ))
    eps2, delta2, err2 = equivalent_gaussian_error(sub_diff, unit_sched, 0.25, probe_radius=1.0)
    assert delta2 == pytest.approx(2.0)
    assert err2 > err
    with pytest.raises(SingleComponent):
        only = Subspace(A=A, components=(MoGComponent(pi=1.0, mu=[0.0, 0.0], U=[[1.0], [0.0]]),))
        equivalent_gaussian_error(only, unit_sched, 0.25, probe_radius=1.0)


def test_score_of_dispatch(unit_sched):
    p = SymmetricParams(mu=[1.0, 0.0], U=[[0.5], [0.0]])
    lat, pis = p.mixture(None)
    x = np.array([0.3, -0.2])
    assert score_of(p, None, unit_sched, 1.0, x) == pytest.approx(
        score_of(lat, pis, unit_sched, 1.0, x), abs=1e-14)


def _dense_frozen_score(params, pis, sched, t, x, r0):
    """sum_m r0_m (-Sigma_m^{-1} (x - s mu_m)) with the tied form expanded by
    hand and every Sigma_m dense."""
    s, _, gamma = coefficients(sched, t)
    if isinstance(params, SymmetricParams):
        comps = [(params.mu, params.U), (-params.mu, params.U)]
    else:
        comps = list(params.components)
    out = np.zeros_like(x)
    for rm, (mu, U) in zip(r0, comps):
        cov = s * s * U @ U.T + gamma * gamma * np.eye(x.size)
        out -= rm * np.linalg.solve(cov, x - s * mu)
    return out


def _dense_responsibilities(params, pis, sched, t, x):
    s, _, gamma = coefficients(sched, t)
    if isinstance(params, SymmetricParams):
        comps, pis = [(params.mu, params.U), (-params.mu, params.U)], [0.5, 0.5]
    else:
        comps = list(params.components)
    logj = np.array([np.log(w) + dense_gaussian_logpdf(
        x, s * mu, s * s * U @ U.T + gamma * gamma * np.eye(x.size))
        for w, (mu, U) in zip(pis, comps)])
    w = np.exp(logj - logj.max())
    return w / w.sum()


def test_self_cluster_term_matches_frozen_responsibility_fd(unit_sched, vp_sched):
    """Term A is the theta-derivative of the score with responsibilities
    frozen at theta_0: checked by central FD of a dense-covariance oracle for
    both parameterizations, factor ranks 0 and d, and both schedules."""
    rng = np.random.default_rng(5)
    h = 1e-5
    d = 3
    cases = [
        (SymmetricParams(mu=rng.standard_normal(d), U=np.zeros((d, 0))), None),
        (SymmetricParams(mu=rng.standard_normal(d), U=rng.standard_normal((d, d))), None),
        (LatentParams(((rng.standard_normal(d), np.zeros((d, 0))),
                       (rng.standard_normal(d), rng.standard_normal((d, d))),
                       (rng.standard_normal(d), rng.standard_normal((d, 1))))),
         np.array([0.3, 0.5, 0.2])),
    ]
    for sched in (unit_sched, vp_sched):
        for t in (0.3, 1.0):
            for params, pis in cases:
                x = rng.standard_normal(d)
                r0 = _dense_responsibilities(params, pis, sched, t, x)
                vec = params.flatten()
                cols = []
                for j in range(vec.size):
                    e = np.zeros_like(vec)
                    e[j] = h
                    sp = _dense_frozen_score(params.unflatten(vec + e), pis, sched, t, x, r0)
                    sm = _dense_frozen_score(params.unflatten(vec - e), pis, sched, t, x, r0)
                    cols.append((sp - sm) / (2.0 * h))
                fd = np.stack(cols, axis=-1)
                got = jacobian_terms(params, pis, sched, t, x)[2][0]
                assert got == pytest.approx(fd, abs=5e-7)

    # the simplified Hessian is the mean of A^T A for a free mixture too
    params, pis = cases[2]
    X = sample_noised(params, pis, unit_sched, 1.0, 300, 31)
    A = jacobian_terms(params, pis, unit_sched, 1.0, X)[2]
    H = np.einsum("ndp,ndq->pq", A, A) / X.shape[0]
    rep = hessian_from_samples(params, pis, unit_sched, 1.0, X, jac_mode="simplified")
    assert rep.H == pytest.approx(0.5 * (H + H.T), abs=1e-12)
