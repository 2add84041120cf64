import contextlib
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
    assert set(man["versions"]) == {"python", "numpy", "scipy", "molrmog"}
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
    assert hs["factor2"] is True
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
    """Start-up loads scipy's top level only; each submodule is imported by
    the function that uses it."""
    code = ("import sys, molrmog, molrmog.cli; "
            "print(','.join(m for m in ('scipy.stats', 'scipy.special', 'scipy.linalg') "
            "if m in sys.modules))")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert res.stdout.strip() == ""


def test_subcommands_load_no_scipy_submodules(tmp_path):
    """All eight subcommands on configs/example.json, at small sizes, in one
    fresh interpreter: none of them loads a scipy submodule."""
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    config = os.path.join(root, "configs", "example.json")
    sizes = ["estimation.trials=1", "estimation.n_mc=2048", "estimation.grid=4",
             "estimation.n_schedule=[128,256]", "sampler.n=500", "sampler.steps=10",
             "train.n=2000", "hessian.n_mc=2000", "overlap.n_mc=2000"]
    code = ("import sys\n"
            "from molrmog.cli import SUBCOMMANDS, run\n"
            f"print([run(sub, {config!r}, {sizes!r}, out_dir={str(tmp_path)!r}) "
            "for sub in SUBCOMMANDS])\n"
            "print(','.join(m for m in ('scipy.stats', 'scipy.special', 'scipy.linalg') "
            "if m in sys.modules))")
    src = os.path.join(root, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    codes, loaded = res.stdout.splitlines()
    assert codes == str([0] * 8)
    assert loaded == ""


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
])
def test_malformed_subcommand_field_exits_2(cfg_path, tmp_path, capsys, sub, override):
    assert run(sub, cfg_path, overrides=[override], out_dir=str(tmp_path / "out")) == 2
    _assert_one_line_error(capsys)


@pytest.mark.parametrize("name, text", [
    ("estimation_summary.json", '{"slope": "x"}'),
    ("train_summary.json", "[]"),
    ("quality.json", "not json"),
])
def test_malformed_summary_report_exits_2(tmp_path, capsys, name, text):
    (tmp_path / name).write_text(text, encoding="utf-8")
    assert run("report", None, out_dir=str(tmp_path)) == 2
    _assert_one_line_error(capsys)


def test_negative_seed_flag_exits_2(cfg_path, tmp_path, capsys):
    assert main(["gen", "--config", cfg_path, "--out", str(tmp_path), "--seed", "-5"]) == 2
    _assert_one_line_error(capsys)


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
