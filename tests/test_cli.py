import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from molrmog.cli import (
    DISPATCH,
    _num,
    apply_override,
    config_hash,
    load_config,
    main,
    run,
    write_csv,
)
from molrmog.errors import ConfigParseError


MINI_CFG = {
    "seed": 11,
    "schedule": {"kind": "constant_drift", "g0": 1.0, "t_min": 0.01, "t_max": 1.0},
    "model": {
        "D": 3,
        "subspaces": [{
            "d": 2,
            "A_seed": 4,
            "components": [
                {"pi": 0.5, "mu": [2.0, 0.0], "U": [[0.5], [0.1]]},
                {"pi": 0.5, "mu": [-2.0, 0.3], "U": [[0.2], [0.4]]},
            ],
        }],
    },
    "gen": {"n": 200},
    "score_check": {"n_points": 5, "times": [0.5], "h": 1e-5},
    "estimation": {"t": 0.25, "n_schedule": [64, 256], "trials": 2,
                   "grid": 4, "half_width": 0.25, "n_mc": 4000},
    "hessian": {"t": 1.0, "n_mc": 2000,
                "symmetric": {"mu": [4.0, 0.0], "U": [[1.0], [0.0]]}},
    "overlap": {"t": 1.0, "n_mc": 2000, "mode": "two_mode_sup",
                "symmetric": {"mu": [2.0, 0.0], "U": [[1.0], [0.0]]}},
    "train": {"t": 1.0, "n": 2000, "init_radius": 0.1, "m_max": 40, "tol": 1e-8,
              "symmetric": {"mu": [4.0, 0.0], "U": [[1.0], [0.0]]}},
    "sampler": {"steps": 40, "n": 500,
                "schedule": {"kind": "vp", "beta": 8.0, "t_min": 0.01, "t_max": 1.0}},
}


@pytest.fixture
def cfg_path(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(MINI_CFG), encoding="utf-8")
    return str(p)


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigParseError):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigParseError):
        load_config(str(bad))


def test_apply_override_types():
    cfg = {"a": {"b": 1}}
    apply_override(cfg, "a.b=2.5")
    assert cfg["a"]["b"] == 2.5
    apply_override(cfg, "a.c=[1,2]")
    assert cfg["a"]["c"] == [1, 2]
    apply_override(cfg, "a.name=hello")
    assert cfg["a"]["name"] == "hello"
    apply_override(cfg, "new.leaf=true")
    assert cfg["new"]["leaf"] is True
    with pytest.raises(ConfigParseError):
        apply_override(cfg, "no_equals")


def test_int_field_takes_integral_float_only():
    assert _num({"n": 2000.0}, "n", 1, int) == 2000
    assert _num({"n": [64, 128.0]}, "n", [1], int) == [64, 128]
    with pytest.raises(ConfigParseError):
        _num({"n": 2.5}, "n", 1, int)
    with pytest.raises(ConfigParseError):
        _num({"n": [64, 0.5]}, "n", [1], int)


def test_config_hash_stable_under_key_order():
    assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
    assert config_hash({"a": 1}) != config_hash({"a": 2})


def test_manifest_has_no_threads_key_and_ignores_env(cfg_path, tmp_path, monkeypatch):
    monkeypatch.setenv("MOLRG_THREADS", "abc")
    out = tmp_path / "out"
    assert run("gen", cfg_path, out_dir=str(out)) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert "threads" not in man


def test_write_csv_format(tmp_path):
    p = tmp_path / "t.csv"
    write_csv(p, ["a", "b"], [(1, 0.1), (2, 0.2)])
    raw = p.read_bytes()
    assert b"\r" not in raw
    assert raw.decode("utf-8").splitlines()[0] == "a,b"
    # floats round-trip exactly through repr
    assert float(raw.decode().splitlines()[1].split(",")[1]) == 0.1


def test_gen_writes_artifacts_and_manifest(cfg_path, tmp_path):
    out = tmp_path / "out"
    assert run("gen", cfg_path, out_dir=str(out)) == 0
    assert (out / "dataset.csv").is_file()
    man = json.loads((out / "manifest.json").read_text())
    assert man["status"] == "ok"
    assert man["subcommand"] == "gen"
    assert man["seed"] == 11
    assert man["artifacts"] == ["dataset.csv"]
    assert man["wall_time_s"] >= 0
    header = (out / "dataset.csv").read_text().splitlines()[0]
    assert header == "k,l,x_0,x_1,x_2"


def test_gen_rerun_is_byte_identical(cfg_path, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run("gen", cfg_path, out_dir=str(out1)) == 0
    assert run("gen", cfg_path, out_dir=str(out2)) == 0
    assert (out1 / "dataset.csv").read_bytes() == (out2 / "dataset.csv").read_bytes()


def test_score_check_passes_threshold(cfg_path, tmp_path):
    out = tmp_path / "out"
    assert run("score-check", cfg_path, out_dir=str(out)) == 0
    summ = json.loads((out / "score_check_summary.json").read_text())
    assert summ["max_rel_err"] <= 1e-5
    body = (out / "score_fd_errors.csv").read_text().splitlines()
    assert body[0] == "kind,t,index,rel_err"
    assert len(body) > 1


def test_estimation_artifacts(cfg_path, tmp_path):
    out = tmp_path / "out"
    assert run("estimation", cfg_path, out_dir=str(out)) == 0
    summ = json.loads((out / "estimation_summary.json").read_text())
    assert summ["slope"] < 0
    rows = (out / "estimation.csv").read_text().splitlines()
    assert rows[0] == "n,sup_gap,stderr"
    assert len(rows) == 3


def test_hessian_overlap_train_sample_report(cfg_path, tmp_path):
    out = tmp_path / "out"
    for sub in ("hessian", "overlap", "train", "sample"):
        assert run(sub, cfg_path, out_dir=str(out)) == 0, sub
    hs = json.loads((out / "hessian_summary.json").read_text())
    assert set(hs) == {"alpha_formula", "lambda_min_H", "lambda_min_mumu", "lambda_min_UU",
                       "cross_norm", "corr_r"}
    assert hs["alpha_formula"] == pytest.approx(0.25)
    ov = json.loads((out / "overlap_summary.json").read_text())
    assert ov["weyl_gap"] >= -1e-8
    tr = json.loads((out / "train_summary.json").read_text())
    assert tr["final_dist"] < 1e-3
    qu = json.loads((out / "quality.json").read_text())
    assert len(qu["components"]) == 2
    assert run("report", cfg_path, out_dir=str(out)) == 0
    report = (out / "report.md").read_text()
    assert "PASS" in report


def test_hessian_blocks_csv_lambda_min(cfg_path, tmp_path):
    out = tmp_path / "out"
    assert run("hessian", cfg_path, out_dir=str(out)) == 0
    hs = json.loads((out / "hessian_summary.json").read_text())
    rows = [line.split(",") for line in (out / "blocks.csv").read_text().splitlines()[1:]]
    lam = {name: float(value) for name, _, value in rows}
    assert lam["mumu"] == hs["lambda_min_mumu"]
    assert lam["UU"] == hs["lambda_min_UU"]
    assert np.isnan(lam["muU"])


def test_import_loads_no_scipy_submodules():
    """Start-up loads no scipy submodule; the package and the CLI import
    scipy only through `objective`, which `estimation` loads.  Nor does it
    load logging or concurrent.futures, which every CLI process would pay for."""
    code = ("import sys, molrmog, molrmog.cli; "
            "print(','.join(m for m in ('scipy.stats', 'scipy.special', 'scipy.linalg') "
            "if m in sys.modules)); "
            "print(','.join(m for m in ('logging', 'concurrent.futures') if m in sys.modules))")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    scipy_loaded, others_loaded = res.stdout.splitlines()
    assert scipy_loaded == ""
    assert others_loaded == ""


# SHA-256 prefixes of the artifacts the eight subcommands write on
# configs/example.json at PIPELINE_SIZES, recorded before the CLI imported its
# library modules per subcommand (numpy 2.4.6 with OpenBLAS 0.3.31, x86-64)
PIPELINE_SIZES = ["estimation.trials=2", "estimation.n_mc=16384", "sampler.n=5000",
                  "sampler.steps=100"]
PIPELINE_SHA256 = {
    "blocks.csv": "e23fdff6bb56a4b5",
    "dataset.csv": "74593409efa1c724",
    "estimation.csv": "bee9c72a19d4cdc6",
    "estimation_summary.json": "33ae63beddb2c763",
    "hessian_spectrum.csv": "1933784b2022b94a",
    "hessian_summary.json": "6b8e92f23b315594",
    "overlap_summary.json": "12ad0c9e2413f372",
    "quality.json": "2d45190b9605263a",
    "report.md": "aa04a30056949a29",
    "samples.csv": "53e6fa9bddb862da",
    "score_check_summary.json": "11fb6155f8289db0",
    "score_fd_errors.csv": "85fab4538ec8fa38",
    "trace.csv": "939cedfee8edc7bf",
    "train_summary.json": "39ee2b3e63a6cfda",
}


def test_subcommands_load_no_scipy_submodules(tmp_path):
    """All eight subcommands on configs/example.json, at the bench pipeline's
    reduced sizes, in one fresh interpreter: none of them loads a scipy
    submodule, logging or concurrent.futures, and every artifact but the
    manifest keeps its recorded bytes."""
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    config = os.path.join(root, "configs", "example.json")
    code = ("import sys\n"
            "from molrmog.cli import SUBCOMMANDS, run\n"
            f"print([run(sub, {config!r}, {PIPELINE_SIZES!r}, out_dir={str(tmp_path)!r}) "
            "for sub in SUBCOMMANDS])\n"
            "print(','.join(m for m in ('scipy.stats', 'scipy.special', 'scipy.linalg') "
            "if m in sys.modules))\n"
            "print(','.join(m for m in ('logging', 'concurrent.futures') if m in sys.modules))")
    src = os.path.join(root, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    codes, loaded, others_loaded = res.stdout.splitlines()
    assert codes == str([0] * 8)
    assert loaded == ""
    assert others_loaded == ""
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
               for p in tmp_path.iterdir() if p.name != "manifest.json"}
    assert written == PIPELINE_SHA256


def test_each_subcommand_loads_only_what_it_runs(tmp_path):
    """gen, sample and report, each in a fresh interpreter: report loads no
    numpy and no model, gen no derivative, experiment or sampler module and
    no scipy, and each manifest's versions name exactly python, molrmog and
    those of numpy and scipy that the process loaded."""
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    config = os.path.join(root, "configs", "example.json")
    code = ("import json, sys\n"
            "from molrmog.cli import main\n"
            "print(json.dumps([main(sys.argv[1:]), sorted(sys.modules)]))")
    src = os.path.join(root, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # report reads the seed from --seed: reading it from the config loads numpy
    args = ["--config", config, "--out", str(tmp_path), "--seed", "3",
            "--set", "gen.n=50", "--set", "sampler.n=500", "--set", "sampler.steps=10"]
    never = {"gen": {"molrmog.calculus", "molrmog.objective", "molrmog.optimizer",
                     "molrmog.sampler", "scipy"},
             "sample": {"molrmog.calculus", "molrmog.objective", "molrmog.optimizer", "scipy"},
             "report": {"numpy", "molrmog.model"}}
    for sub, absent in never.items():
        res = subprocess.run([sys.executable, "-c", code, sub] + args, env=env,
                             capture_output=True, text=True, check=True)
        exit_code, modules = json.loads(res.stdout)
        loaded = set(modules)
        assert exit_code == 0, sub
        assert loaded & absent == set(), sub
        versions = json.loads((tmp_path / "manifest.json").read_text())["versions"]
        assert set(versions) == {"python", "molrmog"} | ({"numpy", "scipy"} & loaded), sub


def test_blas_thread_count_keeps_every_bit(tmp_path):
    """sample and train on configs/example.json, in fresh interpreters with
    OpenBLAS on one thread and on two: samples.csv, quality.json and
    trace.csv are byte-identical."""
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    config = os.path.join(root, "configs", "example.json")
    src = os.path.join(root, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    written = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        out = tmp_path / threads
        for sub in ("sample", "train"):
            subprocess.run([sys.executable, "-m", "molrmog.cli", sub, "--config", config,
                            "--out", str(out), "--set", "sampler.n=5000",
                            "--set", "sampler.steps=100", "--set", "train.n=5000"],
                           env=env, capture_output=True, check=True)
        written.append({name: (out / name).read_bytes()
                        for name in ("samples.csv", "quality.json", "trace.csv")})
    assert written[0] == written[1]


def test_override_changes_behavior(cfg_path, tmp_path):
    out = tmp_path / "out"
    code = run("gen", cfg_path, overrides=["gen.n=7"], out_dir=str(out))
    assert code == 0
    assert len((out / "dataset.csv").read_text().splitlines()) == 8


def test_validation_errors_exit_2(cfg_path, tmp_path):
    assert run("bogus", cfg_path, out_dir=str(tmp_path)) == 2
    assert run("gen", str(tmp_path / "missing.json"), out_dir=str(tmp_path)) == 2
    assert run("report", cfg_path, out_dir=str(tmp_path / "empty")) == 2
    # invalid schedule parameters surface as exit 2 too
    assert run("score-check", cfg_path, overrides=["schedule.g0=-1"],
               out_dir=str(tmp_path)) == 2


def test_numerical_failure_exit_3_with_manifest(cfg_path, tmp_path):
    out = tmp_path / "out"
    code = run("train", cfg_path, overrides=["train.eta=50.0"], out_dir=str(out))
    assert code == 3
    man = json.loads((out / "manifest.json").read_text())
    assert man["status"] == "numerical-failure"
    assert "DivergenceDetected" in man["error"]
    assert man["artifacts"] == []
    assert {"python", "molrmog", "numpy"} <= set(man["versions"])


def test_explicit_step_writes_finite_summary(cfg_path, tmp_path):
    """An explicit train.eta reports the fixed step's contraction factor, not
    NaN, and the contraction check reads its ratios against it."""
    out = tmp_path / "out"
    assert run("train", cfg_path, overrides=["train.eta=0.5", "train.m_max=20"],
               out_dir=str(out)) == 0
    summary = json.loads((out / "train_summary.json").read_text())
    assert all(np.isfinite(v) for k, v in summary.items() if k != "first_violation")
    assert 0 < summary["rho_bound"] < 1
    assert summary["contraction_fraction"] == 1.0
    assert summary["first_violation"] is None


def test_train_without_checked_ratio_reports_no_verdict(cfg_path, tmp_path):
    """With no GD step there is no ratio to check: the summary writes a null
    fraction and the report line carries no PASS or FAIL."""
    out = tmp_path / "out"
    assert run("train", cfg_path, overrides=["train.m_max=0"], out_dir=str(out)) == 0
    summary = json.loads((out / "train_summary.json").read_text())
    assert summary["iterations"] == 0 and summary["contraction_fraction"] is None
    assert run("report", None, out_dir=str(out)) == 0
    line = (out / "report.md").read_text().splitlines()[-1]
    assert line.startswith("- contraction fraction: no ratio checked")
    assert "PASS" not in line and "FAIL" not in line


def test_train_on_too_few_points_names_train_n(cfg_path, tmp_path, capsys):
    """One point cannot give a nonsingular loss Hessian; the message says so
    and names the key, instead of a bare alpha."""
    assert run("train", cfg_path, overrides=["train.n=1"], out_dir=str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: train.n = 1: ") and err.count("\n") == 1
    assert "singular" in err


@pytest.mark.parametrize("seed", range(6))
def test_one_training_point_is_singular_at_every_seed(cfg_path, tmp_path, capsys, seed):
    """The loss Hessian of one point has rank d < p at every seed: its least
    eigenvalue is rounding noise of either sign, and counts as singular up to
    p eps times the largest, which the one-line message states."""
    code = run("train", cfg_path, overrides=["train.n=1"], seed=seed, out_dir=str(tmp_path))
    err = capsys.readouterr().err
    assert code == 2 and err.count("\n") == 1, err
    assert err.startswith("error: train.n = 1: ") and "singular" in err
    assert "p eps L_hat = " in err
    assert not (tmp_path / "train_summary.json").exists()


def test_memory_error_exits_2_with_one_line(cfg_path, tmp_path, capsys, monkeypatch):
    """An allocation the machine refuses, raised by a stand-in subcommand
    and never by allocating, exits 2 with one line and an out-of-memory
    manifest that lists no artifact."""
    def refuse(cfg, seed, out):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                          "(1000000000000, 4) and data type float64")

    monkeypatch.setitem(DISPATCH, "gen", refuse)
    assert run("gen", cfg_path, out_dir=str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err == "MemoryError: Unable to allocate 7.28 TiB for an array with shape " \
                  "(1000000000000, 4) and data type float64\n"
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == "out-of-memory" and manifest["artifacts"] == []
    assert {"python", "molrmog"} <= set(manifest["versions"])


@pytest.mark.parametrize("sub", ["hessian", "overlap", "train"])
def test_one_dimensional_tied_form_has_no_closed_form_alpha(cfg_path, tmp_path, sub):
    """The closed-form alpha needs d >= 2: a d = 1 tied form still gets its
    Hessian, overlap and GD run, with a null alpha and no verdict on it."""
    out = tmp_path / "out"
    override = f'{sub}.symmetric={{"mu":[4.0],"U":[[1.0]]}}'
    assert run(sub, cfg_path, overrides=[override], out_dir=str(out)) == 0
    if sub == "hessian":
        summary = json.loads((out / "hessian_summary.json").read_text())
        assert summary["alpha_formula"] is None and summary["lambda_min_H"] > 0
        assert run("report", None, out_dir=str(out)) == 0
        line = (out / "report.md").read_text().splitlines()[-1]
        assert line.endswith("(no closed-form alpha)")


def test_zero_closed_form_alpha_still_gets_a_verdict(cfg_path, tmp_path):
    """A tied form with its mean along an axis the factor misses has closed-form
    alpha exactly 0; the report checks lambda_min(H) against 0.8 x 0 instead of
    reading the 0 as no alpha."""
    out = tmp_path / "out"
    override = 'hessian.symmetric={"mu":[0.0,4.0],"U":[[1.0],[0.0]]}'
    assert run("hessian", cfg_path, overrides=[override], out_dir=str(out)) == 0
    assert json.loads((out / "hessian_summary.json").read_text())["alpha_formula"] == 0.0
    assert run("report", None, out_dir=str(out)) == 0
    line = (out / "report.md").read_text().splitlines()[-1]
    assert "vs 0.8*alpha 0.0000" in line and line.endswith(": PASS")


@pytest.mark.parametrize("sub", ["hessian", "overlap"])
def test_rank_zero_tied_overlap_writes_finite_summary(cfg_path, tmp_path, sub):
    """A rank-0 tied factor has no factor parameters: the Weyl split keeps
    only the mean group, the empty factor block has no lambda_min and no
    row in blocks.csv, and no artifact holds a NaN."""
    nulls = {"hessian": ("alpha_formula", "lambda_min_UU"), "overlap": ("eps_total",)}[sub]
    out = tmp_path / "out"
    assert run(sub, cfg_path, overrides=[f'{sub}.symmetric={{"mu":[4.0,0.0],"U":[[],[]]}}'],
               out_dir=str(out)) == 0
    for name in json.loads((out / "manifest.json").read_text())["artifacts"]:
        assert "nan" not in (out / name).read_text().lower(), name
    summary = json.loads((out / f"{sub}_summary.json").read_text())
    assert all(summary[k] is None for k in nulls)
    assert all(np.isfinite(v) for k, v in summary.items()
               if k not in nulls + ("mode",))
    if sub == "hessian":
        assert [row.split(",")[0] for row in (out / "blocks.csv").read_text().split()] == [
            "block", "mumu"]


@pytest.mark.parametrize("g0", ["1e-100", "1e-160"])
def test_floating_point_failure_exits_3(cfg_path, tmp_path, capsys, g0):
    """gamma^2 is in (0, inf), but the score residuals overflow: the run
    stops with exit 3 and one line instead of reporting a NaN error."""
    out = tmp_path / "out"
    assert run("score-check", cfg_path, overrides=[f"schedule.g0={g0}"], out_dir=str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("FloatingPointError: ") and err.count("\n") == 1
    man = json.loads((out / "manifest.json").read_text())
    assert man["status"] == "numerical-failure"
    assert man["artifacts"] == []


def test_main_entry_point(cfg_path, tmp_path):
    out = tmp_path / "out"
    assert main(["gen", "--config", cfg_path, "--out", str(out), "--seed", "5"]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["seed"] == 5


def _assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("path, value", [
    (("components",), None),
    (("A_seed",), None),
    (("d",), "two"),
    (("components", 0, "pi"), "half"),
    (("components", 0, "pi"), None),
    (("components", 0, "mu"), ["a", 0.0]),
    (("components", 1, "U"), [[0.2], [0.4, 1.0]]),
    (("components",), [{"pi": True, "mu": [2.0, 0.0], "U": [[0.5], [0.1]]}]),
    (("components", 0, "mu"), [float("nan"), 0.0]),
    (("components", 1, "U"), [[[0.2]], [[0.4]]]),
    (("A",), [[float("nan"), 0.0], [0.0, 1.0], [0.0, 0.0]]),
    (("components", 0, "pi"), "0.5"),
    (("components",), []),
    (("A",), [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
])
def test_malformed_model_subspace_exits_2(tmp_path, capsys, path, value):
    cfg = json.loads(json.dumps(MINI_CFG))
    node = cfg["model"]["subspaces"][0]
    for key in path[:-1]:
        node = node[key]
    if value is None:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    assert run("gen", str(p), out_dir=str(tmp_path / "out")) == 2
    _assert_one_line_error(capsys)


def test_non_numeric_schedule_exits_2(cfg_path, tmp_path, capsys):
    for field in ("t_max", "t_min", "g0"):
        assert run("hessian", cfg_path, overrides=[f'schedule.{field}="a"'],
                   out_dir=str(tmp_path)) == 2
        _assert_one_line_error(capsys)


@pytest.mark.parametrize("sub, override", [
    ("train", 'train.symmetric={"mu":[4.0,0.0]}'),
    ("hessian", 'hessian.symmetric={"U":[[1.0],[0.0]]}'),
    ("overlap", 'overlap.symmetric={"mu":["a",0.0],"U":[[1.0],[0.0]]}'),
    ("hessian", 'hessian.t="a"'),
    ("gen", 'gen.n="many"'),
    ("hessian", 'hessian.n_mc="a"'),
    ("sample", 'sampler.steps="x"'),
    ("train", 'train.m_max="a"'),
    ("train", 'train.tol="a"'),
    ("train", 'train.init_radius="a"'),
    ("train", 'train.dist_floor="a"'),
    ("estimation", 'estimation.grid="a"'),
    ("estimation", 'estimation.trials="a"'),
    ("estimation", 'estimation.n_schedule=["a",128]'),
    ("score-check", "score_check.times=3"),
    ("gen", 'seed="x"'),
    ("score-check", "score_check.h=0"),
    ("score-check", "score_check.h=-1e-5"),
    ("score-check", "score_check.h=NaN"),
    ("train", "train.tol=NaN"),
    ("hessian", "hessian.n_mc=Infinity"),
    ("overlap", 'overlap.mode="multi_mode_expect"'),
    ("sample", "sampler.schedule=3"),
    ("hessian", "schedule=3"),
    ("train", "train.m_max=-1"),
    ("estimation", "estimation.n_schedule=[]"),
    ("estimation", "estimation.trials=0"),
    ("estimation", "estimation.n_schedule=[64]"),
    ("train", "train=3"),
    ("train", "train=[]"),
    ("sample", "sampler=3"),
    ("estimation", "estimation=3"),
    ("hessian", "hessian=3"),
    ("overlap", "overlap=[]"),
    ("score-check", "score_check=3"),
    ("gen", "gen=3"),
    ("train", "train.m_max=2.5"),
    ("train", "train.tol=-1"),
    ("train", "train.m_max=true"),
    ("gen", "gen.n=true"),
    ("estimation", "estimation.t=false"),
    ("estimation", "estimation.n_schedule=[64,true]"),
    ("hessian", "schedule.g0=true"),
    ("hessian", "schedule.t_max=true"),
    ("hessian", 'hessian.symmetric={"mu":[true,0.0],"U":[[1.0],[0.0]]}'),
    ("hessian", 'hessian.symmetric={"mu":[NaN,0.0],"U":[[1.0],[0.0]]}'),
    ("gen", "seed=-5"),
    ("sample", 'sampler.schedule={"kind":"vp","beta":1e308}'),
    ("score-check", "score_check.times=[]"),
    ("hessian", "hessian.n_mc=-5"),
    ("train", 'train.symmetric={"mu":4.0,"U":[[1.0],[0.0]]}'),
    ("gen", 'gen.n="7"'),
    ("score-check", 'score_check.times="1"'),
    ("hessian", 'hessian.symmetric={"mu":["4","0"],"U":[[1.0],[0.0]]}'),
    ("score-check", "schedule.g0=1e300"),
    ("score-check", "schedule.g0=1e-200"),
    ("gen", "model.D=4.5"),
    ("estimation", "estimation.half_width=0"),
    ("estimation", "estimation.half_width=-0.25"),
    ("hessian", 'hessian.symmetric={"mu":[],"U":[]}'),
    ("overlap", 'overlap.symmetric={"mu":[],"U":[]}'),
    ("train", 'train.symmetric={"mu":[],"U":[]}'),
    ("estimation", "estimation.n_mc=10"),
    ("estimation", "estimation.n_mc=256"),
    ("hessian", "hessian.subspace=0"),
    ("overlap", "overlap.subspace=0"),
    ("train", "train.subspace=0"),
    ("hessian", "schedule.beta=-5"),
    ("sample", "sampler.schedule.g0=3"),
    ("gen", 'model.subspaces=[{"d":3,"A":[[1.0,0.0],[0.0,1.0],[0.0,0.0]],'
            '"components":[{"pi":1.0,"mu":[1.0,0.0],"U":[[0.5],[0.1]]}]}]'),
    ("gen", 'model.subspaces=[{"d":5,"A_seed":3,'
            '"components":[{"pi":1.0,"mu":[2.0,0.0,0.0],"U":[[0.5],[0.0],[0.0]]}]}]'),
])
def test_malformed_subcommand_field_exits_2(cfg_path, tmp_path, capsys, sub, override):
    assert run(sub, cfg_path, overrides=[override], out_dir=str(tmp_path / "out")) == 2
    _assert_one_line_error(capsys)


@pytest.mark.parametrize("sub, override, key", [
    ("hessian", "hessian.n_MC=5", "hessian.n_MC"),
    ("hessian", 'hessian.jac_mode="fd"', "hessian.jac_mode"),
    ("gen", "gen.nn=5", "gen.nn"),
    ("gen", "sampeler.n=5", "sampeler"),
    ("sample", "sampler.schedule.betta=8", "sampler.schedule.betta"),
    ("train", "train.symmetric.V=[[1.0],[0.0]]", "train.symmetric.V"),
    ("gen", "model.subspaces=[{\"d\":2,\"A_seed\":4,\"A_sed\":5,\"components\":[]}]",
     "model.subspaces[0].A_sed"),
])
def test_unknown_config_key_exits_2_naming_it(cfg_path, tmp_path, capsys, sub, override, key):
    assert run(sub, cfg_path, overrides=[override], out_dir=str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err == f"error: unknown config key {key!r}\n"


@pytest.mark.parametrize("name, text", [
    ("estimation_summary.json", '{"slope": "x"}'),
    ("train_summary.json", "[]"),
    ("quality.json", "not json"),
    ("train_summary.json", '{"rho_bound": 0.5}'),
    ("hessian_summary.json", '{"lambda_min_H": 1.0}'),
])
def test_malformed_summary_report_exits_2(tmp_path, capsys, name, text):
    (tmp_path / name).write_text(text, encoding="utf-8")
    assert run("report", None, out_dir=str(tmp_path)) == 2
    _assert_one_line_error(capsys)


def test_negative_seed_flag_exits_2(cfg_path, tmp_path, capsys):
    assert main(["gen", "--config", cfg_path, "--out", str(tmp_path), "--seed", "-5"]) == 2
    _assert_one_line_error(capsys)


@pytest.mark.parametrize("text", ["[1,2]", "5", "null", '"cfg"'])
def test_non_object_config_exits_2(tmp_path, capsys, text):
    p = tmp_path / "cfg.json"
    p.write_text(text, encoding="utf-8")
    assert run("gen", str(p), out_dir=str(tmp_path / "out")) == 2
    _assert_one_line_error(capsys)


@pytest.mark.parametrize("value", ["5", "null", '["a"]', "true"])
def test_non_string_out_dir_exits_2(cfg_path, tmp_path, capsys, monkeypatch, value):
    monkeypatch.chdir(tmp_path)
    assert run("gen", cfg_path, overrides=[f"out_dir={value}"]) == 2
    _assert_one_line_error(capsys)
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


def test_uncreatable_out_dir_exits_2(cfg_path, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    assert main(["gen", "--config", cfg_path, "--out", str(blocker / "x")]) == 2
    _assert_one_line_error(capsys)


@pytest.mark.parametrize("name", ["dataset.csv", "manifest.json"])
def test_unwritable_output_exits_2(cfg_path, tmp_path, capsys, name):
    """An artifact or manifest path that is a directory exits 2 with one line
    naming it, not a traceback."""
    (tmp_path / name).mkdir()
    assert main(["gen", "--config", cfg_path, "--out", str(tmp_path),
                 "--set", "gen.n=10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(tmp_path / name) in err and "Traceback" not in err


@pytest.mark.parametrize("subspace", [5, "first"])
def test_bad_subspace_index_exits_2(tmp_path, capsys, subspace):
    cfg = json.loads(json.dumps(MINI_CFG))
    cfg["hessian"] = {"t": 1.0, "n_mc": 200, "subspace": subspace}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    assert run("hessian", str(p), out_dir=str(tmp_path / "out")) == 2
    _assert_one_line_error(capsys)


# configs/example.json at small sizes; the property test below mutates it
EXAMPLE_CFG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "example.json")
SMALL_SIZES = {("estimation", "trials"): 1, ("estimation", "n_mc"): 2048,
               ("estimation", "grid"): 4, ("estimation", "n_schedule"): [128, 256],
               ("sampler", "n"): 300, ("sampler", "steps"): 5, ("train", "n"): 1000,
               ("train", "m_max"): 5, ("hessian", "n_mc"): 500, ("overlap", "n_mc"): 500,
               ("gen", "n"): 50, ("score_check", "n_points"): 5}
# top-level blocks each subcommand reads; sample brings its own schedule
READS = {"gen": ("model", "gen"), "score-check": ("model", "schedule", "score_check"),
         "estimation": ("model", "schedule", "estimation"),
         "hessian": ("model", "schedule", "hessian"),
         "overlap": ("model", "schedule", "overlap"),
         "train": ("model", "schedule", "train"), "sample": ("model", "sampler"),
         "report": ()}
REPLACEMENTS = {"true": True, "nan": float("nan"), "empty": [], "string": "x"}


def _small_example():
    with open(EXAMPLE_CFG, encoding="utf-8") as f:
        cfg = json.load(f)
    for (block, key), value in SMALL_SIZES.items():
        cfg[block][key] = value
    return cfg


def _paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


SMALL_CFG = _small_example()
PATHS = list(_paths(SMALL_CFG))
# dropping a size (or a block holding one) would restore a full-size default
DROPPABLE = [p for p in PATHS if not any(p == s[:len(p)] for s in SMALL_SIZES)]


@st.composite
def mutated_run(draw):
    sub = draw(st.sampled_from(sorted(READS)))
    kind = draw(st.sampled_from(["drop", "negate", "number"] + sorted(REPLACEMENTS)))
    path = draw(st.sampled_from(DROPPABLE if kind == "drop" else PATHS))
    return sub, kind, path


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(mutated_run())
def test_mutated_example_config_keeps_exit_contract(case):
    """Every exit is 0, 2 or 3 with no traceback, and a non-number, a boolean,
    NaN or an empty list where a subcommand reads its config exits 2."""
    sub, kind, path = case
    cfg = json.loads(json.dumps(SMALL_CFG))
    *parents, leaf = path
    node = cfg
    for key in parents:
        node = node[key]
    if kind == "drop":
        del node[leaf]
    elif kind == "negate":
        if isinstance(node[leaf], bool) or not isinstance(node[leaf], (int, float)):
            return
        node[leaf] = -node[leaf]
    elif kind == "number":
        node[leaf] = 0.5
    else:
        node[leaf] = REPLACEMENTS[kind]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        p = os.path.join(tmp, "cfg.json")
        with open(p, "w", encoding="utf-8") as f:
            json.dump(cfg, f)
        code = run(sub, p, out_dir=os.path.join(tmp, "out"))
    assert code in (0, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if kind in REPLACEMENTS and path[0] in READS[sub] + ("seed",):
        assert code == 2, err.getvalue()
