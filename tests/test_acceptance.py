"""End-to-end acceptance gate.

Each test exercises one headline property at its full verification budget and
prints a PASS line with the measured quantities.  Budgets are sized so the
whole module runs in a few minutes on one core.
"""

import json

import numpy as np
import pytest
from scipy.special import logsumexp

from conftest import (
    conditional_score,
    dense_gaussian_logpdf,
    equivalent_gaussian_error,
    fd_gradient,
)
from molrmog.calculus import (
    alpha_formula,
    exact_jacobian,
    hessian_empirical,
    mmtop_eigs,
    overlap_analysis,
    jacobian_terms,
    sample_noised,
)
from molrmog.cli import run
from molrmog.model import (
    MoLRMoGModel,
    Subspace,
    build_model,
    forward_noise,
    mixture_moments,
    random_orthonormal,
    sample_data,
)
from molrmog.objective import (
    ParameterBox,
    estimation_gap_experiment,
    lipschitz_constants,
    make_theta_grid,
    estimation_gap_bound,
)
from molrmog.optimizer import GDConfig, contraction_check, gd_train, init_near
from molrmog.sampler import SamplerConfig, model_score_fn, reverse_sample, sample_quality
from molrmog.schedule import coefficients, make_schedule
from molrmog.score import (
    LatentParams,
    SymmetricParams,
    ambient_score,
    latent_score,
)

CONST = make_schedule("constant_drift", 1.0, 0.01, 1.0)

SYM_TRUTH = SymmetricParams(mu=[4.0, 0.0], U=[[1.0], [0.0]])

TWO_SUBSPACE_SPEC = {
    "D": 6,
    "subspaces": [
        {"d": 2, "A_seed": 1, "components": [
            {"pi": 0.5, "mu": [2.0, 0.0], "U": [[0.5], [0.1]]},
            {"pi": 0.5, "mu": [-2.0, 0.4], "U": [[0.3], [0.4]]}]},
        {"d": 2, "A_seed": 2, "components": [
            {"pi": 0.5, "mu": [0.0, 2.0], "U": [[0.2], [0.5]]},
            {"pi": 0.5, "mu": [0.5, -2.0], "U": [[0.4], [0.2]]}]},
    ],
}

SAMPLER_SPEC = {
    "D": 4,
    "subspaces": [{"d": 2, "A_seed": 7, "components": [
        {"pi": 0.5, "mu": [2.0, 0.0], "U": [[0.6], [0.1]]},
        {"pi": 0.5, "mu": [-2.0, 0.5], "U": [[0.2], [0.5]]}]}],
}


def _rel_err(analytic, fd):
    return float(np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12))


def test_acceptance_01_score_correctness():
    """>= 200 random (model, t, x) checks of every analytic score against
    finite differences of brute-force dense-Gaussian log-densities."""
    rng = np.random.default_rng(20260823)
    checks = 0
    max_err = 0.0
    while checks < 200:
        d = int(rng.integers(2, 9))
        L = int(rng.integers(2, 5))
        r = int(rng.integers(1, min(d, 3) + 1))
        mus = [2.0 * rng.standard_normal(d) for _ in range(L)]
        Us = [rng.standard_normal((d, r)) for _ in range(L)]
        pis = rng.uniform(0.3, 1.0, L)
        pis /= pis.sum()
        params = LatentParams(tuple(zip(mus, Us)))
        t = float(rng.uniform(CONST.t_min, CONST.t_max))
        s, gamma = CONST.s(t), CONST.gamma(t)
        x = rng.standard_normal(d)

        def dense_logmix(y, mus=mus, Us=Us, pis=pis):
            cols = [np.log(pi) + dense_gaussian_logpdf(
                y, s * mu, s * s * U @ U.T + gamma * gamma * np.eye(d))
                for pi, mu, U in zip(pis, mus, Us)]
            return logsumexp(cols)

        err = _rel_err(latent_score(params, pis, CONST, t, x),
                       fd_gradient(dense_logmix, x))
        max_err = max(max_err, err)
        checks += 1

        # symmetric (tied two-mode) score against its own dense oracle
        mu_s, U_s = mus[0], Us[0][:, :1]
        cov = s * s * U_s @ U_s.T + gamma * gamma * np.eye(d)

        def dense_sym(y):
            return logsumexp([np.log(0.5) + dense_gaussian_logpdf(y, s * mu_s, cov),
                              np.log(0.5) + dense_gaussian_logpdf(y, -s * mu_s, cov)])

        err = _rel_err(latent_score(SymmetricParams(mu=mu_s, U=U_s), None, CONST, t, x),
                       fd_gradient(dense_sym, x))
        max_err = max(max_err, err)
        checks += 1

        # ambient score on a one-subspace lift of the same mixture
        D = d + int(rng.integers(1, 3))
        A = random_orthonormal(D, d, int(rng.integers(0, 1000)))
        model = MoLRMoGModel(D=D, subspaces=(
            Subspace(components=tuple(zip(mus, Us)), A=A, weights=pis),))
        xa = rng.standard_normal(D)

        def dense_amb(y):
            cols = [np.log(pi) + dense_gaussian_logpdf(
                y, s * A @ mu, s * s * (A @ U) @ (A @ U).T + gamma * gamma * np.eye(D))
                for pi, mu, U in zip(pis, mus, Us)]
            return logsumexp(cols)

        err = _rel_err(ambient_score(model, CONST, t, xa), fd_gradient(dense_amb, xa))
        max_err = max(max_err, err)
        checks += 1

        # conditional (transition-kernel) score
        x0 = rng.standard_normal(d)
        err = _rel_err(
            conditional_score(x, x0, CONST, t),
            fd_gradient(lambda y: dense_gaussian_logpdf(y, s * x0, gamma * gamma * np.eye(d)), x))
        max_err = max(max_err, err)
        checks += 1
    assert max_err <= 1e-5
    print(f"\nPASS score correctness: {checks} checks, max rel err {max_err:.3e} <= 1e-5")


def test_acceptance_02_eigenvalue_closed_form():
    max_rel = 0.0
    for n in (2, 3, 8, 16):
        rng = np.random.default_rng(100 + n)
        for _ in range(100):
            a = rng.standard_normal(n)
            b = rng.standard_normal(n)
            M = (a @ b) * np.eye(n) + np.outer(b, a)
            want = np.linalg.eigvalsh(M @ M.T)
            got = mmtop_eigs(a, b).spectrum
            scale = max(np.max(np.abs(want)), 1.0)
            max_rel = max(max_rel, float(np.max(np.abs(got - want)) / scale))
        # iff clause: orthogonal a, b kills definiteness, non-orthogonal keeps it
        a = np.zeros(n); a[0] = 1.0
        b = np.zeros(n); b[-1] = 1.0
        assert mmtop_eigs(a, b).lambda_min == 0.0
        assert mmtop_eigs(a, a + b).lambda_min > 0.0
    assert max_rel <= 1e-10
    print(f"\nPASS eigenvalue closed form: 400 cases, max rel dev {max_rel:.3e} <= 1e-10")


def test_acceptance_03_estimation_rate():
    model = build_model(TWO_SUBSPACE_SPEC)
    t = 1.0
    grid = make_theta_grid(model.subspaces, half_width=0.25, count=64, seed=0)
    n_schedule = [2 ** k for k in range(7, 14)]
    rep = estimation_gap_experiment(model, grid, n_schedule, trials=20,
                                    sched=CONST, t=t, rng=123, n_mc=400000)
    assert abs(rep.slope + 0.5) <= 0.1

    # instantiate the bound with measured constants over the realized domain
    rng = np.random.default_rng(7)
    X = forward_noise(sample_data(model, 100000, rng).x, CONST, t, rng)
    R = float(np.max(np.linalg.norm(X, axis=1)))
    B_mu = max(float(np.linalg.norm(mu)) for th in grid for th_k in th
               for mu, _ in th_k.components)
    B_U = max(float(np.linalg.norm(U)) for th in grid for th_k in th
              for _, U in th_k.components)
    lc = lipschitz_constants(ParameterBox(B_mu=B_mu, B_U=B_U, counts=((2, 2), (2, 2))),
                             CONST, t, R)
    for n, gap, _ in rep.rows:
        assert gap <= estimation_gap_bound(n, rep.C1, lc.L, lc.L_l, rep.sigma2, rep.p)
    print(f"\nPASS estimation rate: slope {rep.slope:.3f} in -0.5 +/- 0.1, "
          f"all {len(rep.rows)} gaps below the instantiated bound")


def test_acceptance_04_strong_convexity():
    # separation 8 gamma at s = gamma = 1
    rep = hessian_empirical(SYM_TRUTH, None, CONST, 1.0, 100000, 20260823)
    alpha = alpha_formula(SYM_TRUTH, None, CONST, 1.0)
    assert alpha == pytest.approx(0.25)
    assert rep.lambda_min_mumu == pytest.approx(0.25, rel=0.20)
    cross = float(np.linalg.norm(rep.H_muU))
    # standard error of the cross block: the per-sample products J_mu^T J_U
    # over the draws hessian_empirical makes, population std over sqrt(n)
    J = exact_jacobian(SYM_TRUTH, None, CONST, 1.0,
                       sample_noised(SYM_TRUTH, None, CONST, 1.0, 100000, 20260823))
    M = np.matmul(J[:, :, rep.mu_slice].transpose(0, 2, 1), J[:, :, rep.U_slice])
    cross_se = float(np.linalg.norm(np.std(M, axis=0) / np.sqrt(len(M))))
    assert cross <= 4.0 * cross_se
    assert rep.lambda_min >= 0.8 * alpha
    print(f"\nPASS strong convexity: lambda_min(H_mumu) {rep.lambda_min_mumu:.4f} "
          f"(target 0.25 +/- 20%), |H_muU| {cross:.2e} <= 4 SE {4 * cross_se:.2e}, "
          f"lambda_min(H) {rep.lambda_min:.4f} >= 0.8 alpha {0.8 * alpha:.3f}")


def test_acceptance_05_linear_convergence():
    radius = 0.05 * float(np.linalg.norm(SYM_TRUTH.mu))  # = 0.2
    X = sample_noised(SYM_TRUTH, None, CONST, 1.0, 30000, 41)
    theta0 = init_near(SYM_TRUTH, radius, 43)
    trace = gd_train(theta0, SYM_TRUTH, None, CONST, 1.0, X,
                     GDConfig(m_max=500, tol=1e-13))
    dist0 = trace.rows[0].dist
    assert trace.final_dist <= 1e-3 * dist0
    assert trace.rows[-1].m <= 500
    check = contraction_check(trace, trace.rho_bound, slack=0.05, dist_floor=1e-12)
    assert check.checked > 0
    assert check.fraction >= 0.95
    print(f"\nPASS linear convergence: final dist {trace.final_dist:.2e} <= "
          f"1e-3 x {dist0:.2e} in {trace.rows[-1].m} iterations, contraction "
          f"fraction {check.fraction:.3f} vs rho {trace.rho_bound:.3f} + 0.05")


def test_acceptance_06_jacobian_dominance():
    gamma = CONST.gamma(1.0)  # = 1
    U = np.array([[1.0], [0.0]])
    worst = []
    for q in (0.0, 1.0, 2.0):  # matched x-quantiles off the + peak, in gamma units
        ratios = []
        for gap in (2.0, 4.0, 8.0, 16.0):
            mu = np.array([gap * gamma / 2.0, 0.0])
            x = np.array([mu[0] + q * gamma, 0.0])
            termA, termB = jacobian_terms(SymmetricParams(mu=mu, U=U), None, CONST, 1.0, x)[1:]
            ratios.append(float(np.linalg.norm(termB[0]) / np.linalg.norm(termA[0])))
        assert all(b <= a for a, b in zip(ratios, ratios[1:])), ratios
        assert ratios[-1] <= 1e-6
        worst.append(ratios[-1])
    print(f"\nPASS jacobian dominance: non-increasing over gaps 2..16 gamma at 3 "
          f"quantiles, worst 16-gamma ratio {max(worst):.3e} <= 1e-6")


def test_acceptance_07_overlap_weyl_suite():
    U = np.array([[1.0], [0.0]])
    eps_seq = []
    reports = []
    for gap in (6.0, 5.0, 4.0, 3.0, 2.0, 1.0):  # in gamma units, gamma = 1 at t = 1
        mu = np.array([gap / 2.0, 0.0])
        sym = SymmetricParams(mu=mu, U=U)
        lat, pis = sym.mixture(None)
        X = sample_noised(sym, None, CONST, 1.0, 20000, 1000 + int(gap))
        sup_rep = overlap_analysis(sym, None, CONST, 1.0, X, mode="two_mode_sup")
        exp_rep = overlap_analysis(lat, pis, CONST, 1.0, X, mode="multi_mode_expect")
        assert sup_rep.weyl_gap >= -1e-8
        assert exp_rep.weyl_gap >= -1e-8
        eps_seq.append(exp_rep.eps_overlap)
        reports.append((gap, sup_rep.alpha_eff, exp_rep.alpha_eff))
    assert all(b > a for a, b in zip(eps_seq, eps_seq[1:])), eps_seq
    print("\nPASS overlap/Weyl suite: Weyl gap >= 0 for all 12 decompositions, "
          f"expected overlap monotone {['%.4f' % e for e in eps_seq]}; "
          "alpha_eff (sup, expect) per gap: "
          + ", ".join(f"{g:g}g ({a:.3g}, {b:.3g})" for g, a, b in reports))


def test_acceptance_08_moment_match_and_gaussian_error():
    sched = CONST
    t = 0.25  # gamma = 0.5
    u0 = np.array([[0.6], [0.3]])
    e = np.array([[0.05], [-0.025]])

    def sub_for(delta):
        return Subspace(components=(
            ([delta / 2.0, 0.0], u0 + e),
            ([-delta / 2.0, 0.0], u0 - e),
        ), A=np.eye(2), weights=[0.5, 0.5])

    # closed-form moments against Monte Carlo, 4-SE bands
    sub = sub_for(0.8)
    s, _, gamma = coefficients(sched, t)
    eq = mixture_moments([c.mu for c in sub.components], [c.U for c in sub.components],
                         sub.weights, s, gamma)
    rng = np.random.default_rng(5)
    n = 400000
    labels = rng.choice(2, size=n)
    z = np.empty((n, 2))
    for l, comp in enumerate(sub.components):
        rows = labels == l
        eps_z = rng.standard_normal((int(rows.sum()), 1))
        z[rows] = comp.mu + eps_z @ comp.U.T
    zt = z + 0.5 * rng.standard_normal(z.shape)
    mean_se = np.sqrt(np.diag(eq.sigma_bar) / n)
    assert np.all(np.abs(eq.mu_bar - zt.mean(axis=0)) <= 4 * mean_se)
    cov_mc = np.cov(zt.T)
    cov_se = np.sqrt((np.outer(np.diag(eq.sigma_bar), np.diag(eq.sigma_bar))
                      + eq.sigma_bar ** 2) / n)
    assert np.all(np.abs(eq.sigma_bar - cov_mc) <= 4 * cov_se)

    # delta-halving in the linear regime roughly halves the worst log gap
    errs = {}
    for delta in (0.8, 0.4, 0.2):
        _, d_meas, err = equivalent_gaussian_error(sub_for(delta), sched, t,
                                                   probe_radius=1.0)
        assert d_meas == pytest.approx(delta)
        errs[delta] = err
    r1 = errs[0.4] / errs[0.8]
    r2 = errs[0.2] / errs[0.4]
    assert 0.3 <= r1 <= 0.7
    assert 0.3 <= r2 <= 0.7
    print(f"\nPASS moment match + equivalent-Gaussian error: moments inside 4-SE "
          f"bands; halving ratios {r1:.3f}, {r2:.3f} in [0.3, 0.7]")


def test_acceptance_09_dsm_equals_sm():
    model = build_model(SAMPLER_SPEC)
    truth = model.subspaces[0]
    pis = truth.weights
    t = 0.5
    rng = np.random.default_rng(6)
    n = 100000
    x0 = sample_data(model, n, rng).x @ model.subspaces[0].A
    x_t = forward_noise(x0, CONST, t, rng)
    target = conditional_score(x_t, x0, CONST, t)
    s_true = latent_score(truth, pis, CONST, t, x_t)
    flat = truth.flatten()
    rng2 = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        a = truth.unflatten(flat + 0.3 * rng2.standard_normal(flat.size))
        b = truth.unflatten(flat + 0.3 * rng2.standard_normal(flat.size))
        sa = latent_score(a, pis, CONST, t, x_t)
        sb = latent_score(b, pis, CONST, t, x_t)
        # per-sample paired difference of (DSM - SM) loss increments
        d_i = (np.sum((sa - target) ** 2, axis=1) - np.sum((sb - target) ** 2, axis=1)
               - np.sum((sa - s_true) ** 2, axis=1) + np.sum((sb - s_true) ** 2, axis=1))
        se = float(np.std(d_i, ddof=1) / np.sqrt(n))
        dev = abs(float(np.mean(d_i))) / max(se, 1e-300)
        worst = max(worst, dev)
        assert dev <= 4.0
    print(f"\nPASS DSM == SM landscape: 10 theta pairs, worst paired deviation "
          f"{worst:.2f} combined SEs <= 4")


def test_acceptance_10_sampler_closure():
    model = build_model(SAMPLER_SPEC)
    sched = CONST
    n = 100000
    rng = np.random.default_rng(11)
    # exact terminal marginal as init isolates the integration error
    init = forward_noise(sample_data(model, n, rng).x, sched, sched.t_max, rng)
    y = reverse_sample(model_score_fn(model, sched), sched,
                       SamplerConfig(steps=500, n=n, seed=0), init=init)
    rep = sample_quality(y, model, sched, sched.t_min)
    assert rep.max_weight_err <= 0.01
    s = sched.s(sched.t_min)
    gamma = sched.gamma(sched.t_min)
    from molrmog.model import component_weights

    worst_mean = worst_cov = 0.0
    for r, (k, l, w) in zip(rep.rows, component_weights(model)):
        sub = model.subspaces[k]
        comp = sub.components[l]
        W = sub.A @ comp.U
        cov = s * s * W @ W.T + gamma * gamma * np.eye(model.D)
        m = w * n
        mean_band = np.sqrt(np.trace(cov) / m)
        cov_band = np.sqrt((np.trace(cov) ** 2 + np.trace(cov @ cov)) / m)
        worst_mean = max(worst_mean, r.mean_err / (2 * mean_band))
        worst_cov = max(worst_cov, r.cov_err / (2 * cov_band))
        assert r.mean_err <= 2 * mean_band
        assert r.cov_err <= 2 * cov_band
    print(f"\nPASS sampler closure: max weight err {rep.max_weight_err:.4f} <= 0.01, "
          f"means at {worst_mean:.2f}x and covariances at {worst_cov:.2f}x of the "
          f"2-sigma direct-sampling bands")


def test_acceptance_11_determinism(tmp_path):
    cfg = {
        "seed": 99,
        "schedule": {"kind": "constant_drift", "g0": 1.0, "t_min": 0.01, "t_max": 1.0},
        "model": SAMPLER_SPEC,
        "gen": {"n": 500},
        "estimation": {"t": 1.0, "n_schedule": [64, 256], "trials": 2,
                       "grid": 4, "half_width": 0.25, "n_mc": 4000},
        "train": {"t": 1.0, "n": 2000, "init_radius": 0.1, "m_max": 30,
                  "tol": 1e-8, "symmetric": {"mu": [4.0, 0.0], "U": [[1.0], [0.0]]}},
        "sampler": {"steps": 30, "n": 400},
        "score_check": {"n_points": 5, "times": [0.5], "h": 1e-5},
        "hessian": {"t": 1.0, "n_mc": 2000,
                    "symmetric": {"mu": [4.0, 0.0], "U": [[1.0], [0.0]]}},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    csv_names = {
        "gen": ["dataset.csv"],
        "score-check": ["score_fd_errors.csv"],
        "estimation": ["estimation.csv"],
        "hessian": ["hessian_spectrum.csv", "blocks.csv"],
        "train": ["trace.csv"],
        "sample": ["samples.csv"],
    }
    compared = 0
    for sub, names in csv_names.items():
        out1 = tmp_path / f"{sub}-1"
        out2 = tmp_path / f"{sub}-2"
        assert run(sub, str(cfg_path), out_dir=str(out1)) == 0, sub
        assert run(sub, str(cfg_path), out_dir=str(out2)) == 0, sub
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), (sub, name)
            compared += 1
    print(f"\nPASS determinism: {compared} CSV artifacts byte-identical across reruns")
