"""Experiment driver: JSON config in, CSV/JSON artifacts plus a manifest out.

Subcommands: gen, score-check, estimation, hessian, overlap, train, sample,
report.  Exit codes: 0 success, 2 validation/config error, 3 numerical
failure (divergence or non-finite states).  Every run writes manifest.json
listing the config hash, seed, library versions, wall time, and artifacts.
All CSVs are UTF-8 with \n line endings and round-trip-exact floats.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .calculus import (
    hessian_empirical,
    overlap_analysis,
    sample_noised,
)
from .errors import (
    ConfigParseError,
    MolrmogError,
    NoArtifactsFound,
    NumericalError,
    UnknownSubcommand,
    ValidationError,
)
from .model import (ambient_components, as_numbers, build_model, forward_noise, mixture_moments,
                    sample_data)
from .objective import (
    estimation_gap_experiment,
    make_theta_grid,
)
from .optimizer import GDConfig, contraction_check, gd_train, init_near
from .sampler import SamplerConfig, model_score_fn, reverse_sample, sample_quality
from .schedule import make_schedule
from .score import (
    LatentParams,
    SymmetricParams,
    ambient_log_density,
    ambient_score,
    from_model_subspace,
    latent_score,
    mixture_log_density,
)

SUBCOMMANDS = ("gen", "score-check", "estimation", "hessian", "overlap",
               "train", "sample", "report")


# ---------------------------------------------------------------------------
# config plumbing


def load_config(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigParseError(f"config file not found: {path}")
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"config is not valid JSON: {exc}") from exc


def apply_override(cfg: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigParseError(f"override must look like path.to.field=value: {assignment!r}")
    dotted, raw = assignment.split("=", 1)
    keys = dotted.split(".")
    node = cfg
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigParseError(f"override path {dotted!r} crosses a non-object field")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node[keys[-1]] = value


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _block(cfg: dict, key: str) -> dict:
    if not isinstance(block := cfg.get(key, {}), dict):
        raise ConfigParseError(f"{key} must be an object, got {block!r}")
    return block


def _schedule_from(cfg: dict):
    block = _block(cfg, "schedule")
    kind = block.get("kind", "constant_drift")
    rate = "g0" if kind == "constant_drift" else "beta"
    if rate not in block:
        raise ConfigParseError(f"schedule block missing rate for kind {kind!r}")
    return make_schedule(kind, _num(block, rate, None), _num(block, "t_min", 0.01),
                         _num(block, "t_max", 1.0))


def _model_from(cfg: dict):
    if "model" not in cfg:
        raise ConfigParseError("config has no model block")
    return build_model(cfg["model"])


def _num(block: dict, key: str, default, kind=float):
    """block[key] (default when absent) through `as_numbers`: a finite number
    of the given kind, or a list of them when the default is a list."""
    value = block.get(key, default)
    try:
        out = as_numbers(value, integer=kind is int)
        if out.ndim != np.ndim(default):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ConfigParseError(f"{key} must be a finite {kind.__name__}, got {value!r}") from None
    return out.tolist()


def _params_from(cfg_block: dict, model):
    """Trainable parameters: a tied two-mode block or a model subspace."""
    if "symmetric" in cfg_block:
        sym = cfg_block["symmetric"]
        try:
            return SymmetricParams(mu=as_numbers(sym["mu"]), U=as_numbers(sym["U"])), None
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigParseError(f"symmetric block needs finite numeric mu and U: "
                                   f"{exc!r}") from None
    k = _num(cfg_block, "subspace", 0, int)
    if not 0 <= k < len(model.subspaces):
        raise ConfigParseError(f"subspace {k} out of range for {len(model.subspaces)} subspaces")
    return from_model_subspace(model.subspaces[k])


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(cfg, seed, out: Path) -> list[str]:
    model = _model_from(cfg)
    n = _num(_block(cfg, "gen"), "n", 1000, int)
    data = sample_data(model, n, np.random.default_rng(seed))
    header = ["k", "l"] + [f"x_{i}" for i in range(model.D)]
    rows = ([int(k), int(l)] + list(x) for k, l, x in zip(data.k, data.l, data.x))
    write_csv(out / "dataset.csv", header, rows)
    return ["dataset.csv"]


def _fd_score_err(score_vals, logdens_fn, X, h):
    """Max relative error of analytic scores vs central FD of log density."""
    n, d = X.shape
    fd = np.empty_like(X)
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        fd[:, j] = (logdens_fn(X + e) - logdens_fn(X - e)) / (2.0 * h)
    num = np.linalg.norm(score_vals - fd, axis=1)
    den = np.maximum(np.linalg.norm(fd, axis=1), 1e-12)
    return num / den


def cmd_score_check(cfg, seed, out: Path) -> list[str]:
    model = _model_from(cfg)
    sched = _schedule_from(cfg)
    block = _block(cfg, "score_check")
    n_points = _num(block, "n_points", 40, int)
    h = _num(block, "h", 1e-5)
    if not h > 0:
        raise ConfigParseError(f"score_check.h must be positive, got {h!r}")
    times = _num(block, "times", [sched.t_min, 0.5 * (sched.t_min + sched.t_max), sched.t_max])
    if not times:
        raise ConfigParseError("score_check.times must name at least one time")
    rng = np.random.default_rng(seed)
    rows = []
    for t in times:
        clean = sample_data(model, n_points, rng)
        X = forward_noise(clean.x, sched, t, rng)
        errs = _fd_score_err(
            ambient_score(model, sched, t, X),
            lambda P: np.asarray(ambient_log_density(model, sched, t, P)),
            X, h)
        rows += [["ambient", t, i, float(e)] for i, e in enumerate(errs)]
        for k, sub in enumerate(model.subspaces):
            params, pis = from_model_subspace(sub)
            Z = sample_noised(params, pis, sched, t, n_points, rng)
            errs = _fd_score_err(
                latent_score(params, pis, sched, t, Z),
                lambda P, pa=params, pi=pis, tt=t: np.asarray(
                    mixture_log_density(pa, pi, sched, tt, P)),
                Z, h)
            rows += [[f"latent_k{k}", t, i, float(e)] for i, e in enumerate(errs)]
    write_csv(out / "score_fd_errors.csv", ["kind", "t", "index", "rel_err"], rows)
    # np.max, unlike Python's max, lets a NaN error through to the summary
    write_json(out / "score_check_summary.json",
               {"max_rel_err": float(np.max([row[3] for row in rows])), "h": h})
    return ["score_fd_errors.csv", "score_check_summary.json"]


def cmd_estimation(cfg, seed, out: Path) -> list[str]:
    model = _model_from(cfg)
    sched = _schedule_from(cfg)
    block = _block(cfg, "estimation")
    t = _num(block, "t", 0.5)
    trials = _num(block, "trials", 20, int)
    n_mc = _num(block, "n_mc", 1_000_000, int)
    truth_set = tuple(from_model_subspace(sub)[0] for sub in model.subspaces)
    grid = make_theta_grid(truth_set, _num(block, "half_width", 0.25),
                           _num(block, "grid", 64, int), seed)
    report = estimation_gap_experiment(
        model, grid,
        _num(block, "n_schedule", [128, 256, 512, 1024, 2048, 4096, 8192], int),
        trials, sched, t, np.random.default_rng(seed), n_mc=n_mc)
    write_csv(out / "estimation.csv", ["n", "sup_gap", "stderr"], report.rows)
    write_json(out / "estimation_summary.json", {
        "slope": report.slope, "C1": report.C1, "sigma2": report.sigma2,
        "p": report.p, "pop_stderr_max": report.pop_stderr_max})
    return ["estimation.csv", "estimation_summary.json"]


def cmd_hessian(cfg, seed, out: Path) -> list[str]:
    model = _model_from(cfg)
    sched = _schedule_from(cfg)
    block = _block(cfg, "hessian")
    t = _num(block, "t", 0.5)
    params, pis = _params_from(block, model)
    rep = hessian_empirical(params, pis, sched, t, _num(block, "n_mc", 20000, int),
                            np.random.default_rng(seed),
                            jac_mode=block.get("jac_mode", "exact"))
    evals = np.linalg.eigvalsh(rep.H)
    write_csv(out / "hessian_spectrum.csv", ["index", "eigenvalue"],
              [(i, float(v)) for i, v in enumerate(evals)])
    # the muU cross block is not symmetric, so it has no lambda_min
    rows = [
        ("mumu", float(np.linalg.norm(rep.H_mumu)), rep.lambda_min_mumu),
        ("UU", float(np.linalg.norm(rep.H_UU)), rep.lambda_min_UU),
        ("muU", float(np.linalg.norm(rep.H_muU)), float("nan")),
    ]
    write_csv(out / "blocks.csv", ["block", "fro_norm", "lambda_min"], rows)
    write_json(out / "hessian_summary.json", {
        "alpha_formula": rep.alpha_formula, "lambda_min_H": rep.lambda_min,
        "lambda_min_mumu": rep.lambda_min_mumu, "lambda_min_UU": rep.lambda_min_UU,
        "cross_norm": rep.cross_norm, "corr_r": rep.corr_r, "factor2": True})
    return ["hessian_spectrum.csv", "blocks.csv", "hessian_summary.json"]


def cmd_overlap(cfg, seed, out: Path) -> list[str]:
    model = _model_from(cfg)
    sched = _schedule_from(cfg)
    block = _block(cfg, "overlap")
    t = _num(block, "t", 0.5)
    params, pis = _params_from(block, model)
    X = sample_noised(params, pis, sched, t, _num(block, "n_mc", 20000, int),
                      np.random.default_rng(seed))
    rep = overlap_analysis(params, pis, sched, t, X,
                           mode=block.get("mode", "two_mode_sup"))
    write_json(out / "overlap_summary.json", {
        "mode": rep.mode, "xi_max": rep.xi_max, "eps_overlap": rep.eps_overlap,
        "eps_total": None if rep.eps_total is None else list(map(float, rep.eps_total)),
        "lambda_base": rep.lambda_base, "alpha_eff": rep.alpha_eff,
        "lambda_min_H": rep.lambda_min_H, "lambda_min_Hdiag": rep.lambda_min_Hdiag,
        "delta_norm": rep.delta_norm, "weyl_gap": rep.weyl_gap,
        "C": rep.constants.C, "S_mu": rep.constants.S_mu, "S_U": rep.constants.S_U})
    return ["overlap_summary.json"]


def cmd_train(cfg, seed, out: Path) -> list[str]:
    model = _model_from(cfg)
    sched = _schedule_from(cfg)
    block = _block(cfg, "train")
    t = _num(block, "t", 0.5)
    truth, pis = _params_from(block, model)
    rng = np.random.default_rng(seed)
    X = sample_noised(truth, pis, sched, t, _num(block, "n", 10000, int), rng)
    theta0 = init_near(truth, _num(block, "init_radius", 0.1), rng)
    eta = block.get("eta")
    gd = GDConfig(eta=None if eta is None else _num(block, "eta", None),
                  m_max=_num(block, "m_max", 500, int), tol=_num(block, "tol", 1e-10))
    dist_floor = _num(block, "dist_floor", 0.0)
    trace = gd_train(theta0, truth, pis, sched, t, X, gd)
    write_csv(out / "trace.csv", ["m", "loss", "grad_norm", "dist", "ratio"],
              [(r.m, r.loss, r.grad_norm, r.dist, r.ratio) for r in trace.rows])
    check = contraction_check(trace, trace.rho_bound, slack=0.05,
                              dist_floor=dist_floor)
    write_json(out / "train_summary.json", {
        "eta": trace.eta, "kappa": trace.kappa, "rho_bound": trace.rho_bound,
        "converged": trace.converged, "iterations": trace.rows[-1].m,
        "final_dist": trace.final_dist,
        "contraction_fraction": check.fraction,
        "first_violation": check.first_violation})
    return ["trace.csv", "train_summary.json"]


def _ambient_moment_init(model, sched, n, rng):
    """Draws from the Gaussian matching the ambient mixture at t_max."""
    eq = mixture_moments(*ambient_components(model), sched.s(sched.t_max),
                         sched.gamma(sched.t_max))
    cf = np.linalg.cholesky(eq.sigma_bar + 1e-12 * np.eye(model.D))
    return eq.mu_bar + rng.standard_normal((n, model.D)) @ cf.T


def cmd_sample(cfg, seed, out: Path) -> list[str]:
    model = _model_from(cfg)
    block = _block(cfg, "sampler")
    # a variance-preserving horizon makes the Gaussian prior exact; allow the
    # sampler to use its own schedule when the global one keeps mass bimodal at T
    sched = _schedule_from(block if "schedule" in block else cfg)
    scfg = SamplerConfig(steps=_num(block, "steps", 500, int),
                         n=_num(block, "n", 10000, int), seed=seed)
    rng = np.random.default_rng(seed + 1)
    init = _ambient_moment_init(model, sched, scfg.n, rng)
    samples = reverse_sample(model_score_fn(model, sched), sched, scfg, init=init)
    write_csv(out / "samples.csv", [f"x_{i}" for i in range(model.D)], samples)
    rep = sample_quality(samples, model, sched, sched.t_min)
    write_json(out / "quality.json", {
        "components": [
            {"k": r.k, "l": r.l, "weight_true": r.weight_true,
             "weight_emp": r.weight_emp, "mean_err": r.mean_err,
             "cov_err": r.cov_err}
            for r in rep.rows],
        "max_weight_err": rep.max_weight_err})
    return ["samples.csv", "quality.json"]


# per artifact summary: the text of its report line and the verdict on it,
# None where there is nothing to check
REPORT_CHECKS = {
    "score_check_summary.json": lambda s: (
        f"score FD check: max rel err {s['max_rel_err']:.3e} (threshold 1e-5)",
        s["max_rel_err"] <= 1e-5),
    "estimation_summary.json": lambda s: (
        f"estimation slope {s['slope']:.3f} vs -0.5 +/- 0.1", abs(s["slope"] + 0.5) <= 0.1),
    "hessian_summary.json": lambda s: (
        (f"lambda_min(H) {s['lambda_min_H']:.4f} vs 0.8*alpha {0.8 * s['alpha_formula']:.4f}",
         s["lambda_min_H"] >= 0.8 * s["alpha_formula"])
        if s.get("alpha_formula")
        else (f"lambda_min(H) {s['lambda_min_H']:.4f} (no closed-form alpha)", None)),
    "overlap_summary.json": lambda s: (
        f"Weyl gap {s['weyl_gap']:.3e} >= 0", s["weyl_gap"] >= -1e-8),
    "train_summary.json": lambda s: (
        f"contraction fraction {s.get('contraction_fraction', 0.0):.3f} vs rho+0.05 "
        f"(rho {s['rho_bound']:.3f})", s.get("contraction_fraction", 0.0) >= 0.95),
    "quality.json": lambda s: (
        f"sampler max weight err {s['max_weight_err']:.4f} vs 0.01",
        s["max_weight_err"] <= 0.01),
}


def cmd_report(cfg, seed, out: Path) -> list[str]:
    lines = []
    for name, check in REPORT_CHECKS.items():
        if (out / name).is_file():
            try:
                text, ok = check(json.loads((out / name).read_text(encoding="utf-8")))
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise ConfigParseError(f"malformed summary {out / name}: {exc!r}") from None
            lines.append(f"- {text}" + ("" if ok is None else f": {'PASS' if ok else 'FAIL'}"))
    if not lines:
        raise NoArtifactsFound(f"no artifact summaries under {out}")
    (out / "report.md").write_text("\n".join(["# run report", ""] + lines) + "\n",
                                   encoding="utf-8")
    return ["report.md"]


DISPATCH = {
    "gen": cmd_gen,
    "score-check": cmd_score_check,
    "estimation": cmd_estimation,
    "hessian": cmd_hessian,
    "overlap": cmd_overlap,
    "train": cmd_train,
    "sample": cmd_sample,
    "report": cmd_report,
}


def run(subcommand: str, config_path: str | None, overrides=(), seed=None,
        out_dir=None) -> int:
    """Programmatic entry point mirroring the command line; returns exit code."""
    start = time.time()
    try:
        if subcommand not in DISPATCH:
            raise UnknownSubcommand(f"unknown subcommand {subcommand!r}")
        cfg = load_config(config_path) if config_path else {}
        for assignment in overrides:
            apply_override(cfg, assignment)
        if seed is None:
            seed = _num(cfg, "seed", 0, int)
        if seed < 0:
            raise ConfigParseError(f"seed must be non-negative, got {seed}")
        out = Path(out_dir if out_dir is not None else cfg.get("out_dir", "."))
        out.mkdir(parents=True, exist_ok=True)
        manifest = {
            "subcommand": subcommand,
            "config_hash": config_hash(cfg),
            "seed": seed,
            "versions": {
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "molrmog": __version__,
            },
        }
        try:
            artifacts = DISPATCH[subcommand](cfg, seed, out)
            manifest["artifacts"] = artifacts
            manifest["status"] = "ok"
            code = 0
        except NumericalError as exc:
            manifest["artifacts"] = []
            manifest["status"] = "numerical-failure"
            manifest["error"] = f"{type(exc).__name__}: {exc}"
            code = 3
        manifest["wall_time_s"] = time.time() - start
        write_json(out / "manifest.json", manifest)
        if code != 0:
            print(manifest["error"], file=sys.stderr)
        return code
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="molrmog",
        description="mixture-of-low-rank-MoG diffusion laboratory")
    parser.add_argument("subcommand", help=f"one of {', '.join(SUBCOMMANDS)}")
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="PATH=VALUE", help="dot-path config override")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)
    return run(args.subcommand, args.config, args.overrides, args.seed, args.out)


if __name__ == "__main__":
    sys.exit(main())
