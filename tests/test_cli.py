import configparser
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import hierctrl.cli as cli
import hierctrl.config
import hierctrl.linalg
import hierctrl.nash
from hierctrl import operators
from hierctrl.cli import dump_field, fmt, main, run

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

ZERO_NASH = """\
[grid]
dim = 1
lengths = 6.0
nx = 12
T = 1.0
nt = 10

[geometry]
leader = 1.5, 4.2
follower1 = 0.9, 2.7
follower2 = 3.3, 5.1
target1 = 2.1, 3.9
target2 = 2.1, 3.9

[weights]
alpha1 = 1e-3
alpha2 = 1e-3
mu1 = 1.0
mu2 = 1.0

[data]
u0 = "0"
zeta1 = "0"
zeta2 = "0"
f = "0"
"""


def _summary(path):
    out = {}
    for line in Path(path, "summary.txt").read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def test_nash_zero_data(tmp_path):
    cfg = tmp_path / "zero.ini"
    cfg.write_text(ZERO_NASH)
    out = tmp_path / "out"
    assert run("nash", cfg, out) == 0
    s = _summary(out)
    assert float(s["w_norm"]) == 0.0
    assert float(s["v1_norm"]) == 0.0
    assert float(s["residual_1"]) == 0.0
    assert float(s["residual_2"]) == 0.0
    body = (out / "nash_history.csv").read_text().splitlines()
    assert body[0] == "iter,change_norm,residual_1,residual_2"


def test_missing_follower_box_fails_before_outputs(tmp_path, capsys):
    cfg = tmp_path / "broken.ini"
    cfg.write_text(ZERO_NASH.replace("follower1 = 0.9, 2.7\n", ""))
    out = tmp_path / "never"
    assert run("nash", cfg, out) == 2
    assert not out.exists()
    record = json.loads(capsys.readouterr().err.strip())
    assert record["stage"] == "validation"
    assert "follower1" in record["message"]


def test_bad_expression_fails_validation(tmp_path, capsys):
    cfg = tmp_path / "badexpr.ini"
    cfg.write_text(ZERO_NASH.replace('u0 = "0"', 'u0 = "x +* 2"'))
    out = tmp_path / "never"
    assert run("nash", cfg, out) == 2
    assert not out.exists()


def test_unknown_solver_key_rejected(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(ZERO_NASH + "\n[solver]\nbogus = 1\n")
    assert run("nash", cfg, tmp_path / "never") == 2


SOLVER = ZERO_NASH + "\n[solver]\n"


@pytest.mark.parametrize("text", [
    pytest.param(ZERO_NASH.replace("mu2 = 1.0", "mu2 = 1.0\nmu2 = 2.0"), id="duplicated-key"),
    pytest.param(ZERO_NASH.replace("[grid]\n", ""), id="no-section-header"),
    pytest.param(SOLVER + "nash_max_iter = lots\n", id="max-iter-not-a-number"),
    pytest.param(ZERO_NASH.replace("mu2 = 1.0", "mu2 = 1.0\nlambda = big"), id="lambda-not-a-number"),
    pytest.param(ZERO_NASH + "\n[nonlinearity]\npreset = tanh\nc = strong\n", id="c-not-a-number"),
    pytest.param(SOLVER + "damping = 0\n", id="damping-zero"),
    pytest.param(SOLVER + "damping = 1.5\n", id="damping-above-one"),
    pytest.param(SOLVER + "damping = nan\n", id="damping-nan"),
    pytest.param(SOLVER + "nash_max_iter = 0\n", id="nash-max-iter-zero"),
    pytest.param(SOLVER + "cg_max_iter = -3\n", id="cg-max-iter-negative"),
    pytest.param(SOLVER + "max_outer = 0\n", id="max-outer-zero"),
    pytest.param(SOLVER + "nash_tol = 0\n", id="nash-tol-zero"),
    pytest.param(SOLVER + "coupled_tol = -1e-12\n", id="coupled-tol-negative"),
    pytest.param(SOLVER + "cg_tol = inf\n", id="cg-tol-inf"),
    pytest.param(SOLVER + "outer_tol = nan\n", id="outer-tol-nan"),
    pytest.param(SOLVER + "penalty_mode = exact-norm\n", id="penalty-mode-is-not-a-key"),
])
def test_malformed_config_fails_validation(tmp_path, capsys, text):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    out = tmp_path / "never"
    assert run("nash", cfg, out) == 2
    assert not out.exists()
    record = json.loads(capsys.readouterr().err.strip())
    assert record == {"error": "ConfigError", "message": record["message"], "stage": "validation"}


@pytest.mark.parametrize("text, seed, error", [
    pytest.param(ZERO_NASH.replace("alpha1 = 1e-3", "alpha1 = nan"), None, "ConfigError", id="alpha1-nan"),
    pytest.param(ZERO_NASH.replace("alpha2 = 1e-3", "alpha2 = inf"), None, "ConfigError", id="alpha2-inf"),
    pytest.param(ZERO_NASH.replace("mu1 = 1.0", "mu1 = inf"), None, "ConfigError", id="mu1-inf"),
    pytest.param(ZERO_NASH.replace("mu2 = 1.0", "mu2 = nan"), None, "ConfigError", id="mu2-nan"),
    pytest.param(ZERO_NASH.replace("mu2 = 1.0", "mu2 = 1.0\nlambda = nan"), None, "ConfigError",
                 id="lambda-nan"),
    pytest.param(ZERO_NASH.replace("mu2 = 1.0", "mu2 = 1.0\ns = -inf"), None, "ConfigError", id="s-inf"),
    pytest.param(ZERO_NASH.replace("mu2 = 1.0", "mu2 = 1.0\neps_list = 1e-2, inf"), None, "ConfigError",
                 id="eps-list-inf"),
    pytest.param(ZERO_NASH.replace("lengths = 6.0", "lengths = nan"), None, "InvalidGrid", id="lengths-nan"),
    pytest.param(ZERO_NASH.replace("T = 1.0", "T = nan"), None, "InvalidGrid", id="T-nan"),
    pytest.param(ZERO_NASH.replace("T = 1.0", "T = inf"), None, "InvalidGrid", id="T-inf"),
    pytest.param(SOLVER + "seed = -1\n", None, "ConfigError", id="seed-negative"),
    pytest.param(ZERO_NASH, -1, "ConfigError", id="seed-override-negative"),
    pytest.param(SOLVER + "n_samples = -5\n", None, "ConfigError", id="n-samples-negative"),
    pytest.param(SOLVER + "n_samples = 0\n", None, "ConfigError", id="n-samples-zero"),
    pytest.param(SOLVER + "n_directions = -1\n", None, "ConfigError", id="n-directions-negative"),
])
def test_bad_number_fails_validation(tmp_path, capsys, text, seed, error):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    out = tmp_path / "never"
    assert run("nash", cfg, out, seed=seed) == 2
    assert not out.exists()
    record = json.loads(capsys.readouterr().err.strip())
    assert record == {"error": error, "message": record["message"], "stage": "validation"}


def test_manifest_contents(tmp_path):
    cfg = tmp_path / "zero.ini"
    cfg.write_text(ZERO_NASH)
    out = tmp_path / "out"
    run("nash", cfg, out, seed=99)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "nash"
    assert manifest["seed"] == 99
    assert "numpy" in manifest["versions"]
    assert manifest["config"]["grid"]["nx"] == "12"


def test_field_dump_format(tmp_path):
    from hierctrl.mesh import SpaceTimeField, build_grid

    g = build_grid(1, 1.0, 9, 1.0, 4)
    f = SpaceTimeField(g, np.arange((g.nt + 1) * 9, dtype=float).reshape(g.nt + 1, 9))
    path = tmp_path / "x.field.txt"
    dump_field(path, f)
    lines = path.read_text().splitlines()
    assert lines[0] == "# 9 1 4"
    assert len(lines) == 1 + g.nt + 1
    assert lines[1].split()[0] == fmt(0.0)


def test_null_control_sweep_decreasing(tmp_path):
    out = tmp_path / "nc"
    assert run("null-control", CONFIGS / "null_control_1d.ini", out) == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0] == "eps,terminal_norm,cg_iters,f_norm,J_leader"
    tns = [float(r.split(",")[1]) for r in rows[1:]]
    assert all(tns[k] > tns[k + 1] for k in range(len(tns) - 1))
    s = _summary(out)
    assert s["strictly_decreasing"] == "True"


@pytest.mark.parametrize("subcommand,config", [("null-control", "null_control_1d.ini"),
                                               ("trajectory", "trajectory_1d.ini")])
def test_cg_history_matches_sweep(tmp_path, subcommand, config):
    out = tmp_path / "cgh"
    assert run(subcommand, CONFIGS / config, out) == 0
    lines = (out / "cg_history.csv").read_text().splitlines()
    assert lines[0] == "eps,iter,residual"
    history = {}
    for line in lines[1:]:
        eps, it, residual = line.split(",")
        history.setdefault(eps, []).append((int(it), float(residual)))
    sweep = [row.split(",") for row in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert list(history) == [row[0] for row in sweep]
    for eps, _, cg_iters, _, _ in sweep:
        rows = history[eps]
        assert [it for it, _ in rows] == list(range(int(cg_iters) + 1))
        assert rows[0][1] == 1.0 and rows[-1][1] <= 1e-10


def test_null_control_deterministic(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    run("null-control", CONFIGS / "null_control_1d.ini", out1)
    run("null-control", CONFIGS / "null_control_1d.ini", out2)
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    assert (out1 / "f.field.txt").read_bytes() == (out2 / "f.field.txt").read_bytes()


def test_null_control_threads_match_serial(tmp_path):
    """main() writes what run() writes, and there is no --threads flag."""
    out1 = tmp_path / "run"
    out2 = tmp_path / "main"
    run("null-control", CONFIGS / "null_control_1d.ini", out1)
    config = str(CONFIGS / "null_control_1d.ini")
    assert main(["null-control", "--config", config, "--out", str(out2)]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    with pytest.raises(SystemExit) as exc:
        main(["null-control", "--config", config, "--out", str(tmp_path / "never"), "--threads", "3"])
    assert exc.value.code == 2
    assert not (tmp_path / "never").exists()


def test_observability_csv_and_seed_behavior(tmp_path):
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    out3 = tmp_path / "o3"
    assert run("observability", CONFIGS / "observability_1d.ini", out1) == 0
    run("observability", CONFIGS / "observability_1d.ini", out2)
    run("observability", CONFIGS / "observability_1d.ini", out3, seed=7)
    b1 = (out1 / "observability.csv").read_bytes()
    assert b1 == (out2 / "observability.csv").read_bytes()
    assert b1 != (out3 / "observability.csv").read_bytes()
    header = b1.decode().splitlines()[0]
    assert header == "sample,ratio,denominator"


def test_carleman_csv(tmp_path):
    out = tmp_path / "c"
    assert run("carleman", CONFIGS / "carleman_1d.ini", out) == 0
    rows = (out / "carleman_ratio.csv").read_text().splitlines()
    assert rows[0] == "sample,lhs,rhs,ratio"
    assert len(rows) == 21
    s = _summary(out)
    assert s["identity_ok"] == "True"
    assert s["time_bound_relaxed_ok"] == "True"


def test_oracle_subcommand(tmp_path):
    out = tmp_path / "orc"
    assert run("oracle", CONFIGS / "nash_1d.ini", out) == 0
    s = _summary(out)
    assert float(s["nash_vs_oracle_rel"]) <= 1e-8
    assert float(s["coupled_adjoint_vs_oracle_rel"]) <= 1e-8


@pytest.mark.parametrize("subcommand, config", [
    ("oracle", "nash_1d.ini"),
    ("trajectory", "trajectory_1d.ini"),
])
def test_run_builds_one_stepper(tmp_path, monkeypatch, subcommand, config):
    """The iterative solves, the dense oracles and the residual checks of
    oracle, and the free and shifted problems of trajectory, all march with
    the one stepper their spec owns."""
    builds = []
    original = operators.TimeStepper.__init__

    def counted(self, *args, **kwargs):
        builds.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(operators.TimeStepper, "__init__", counted)
    assert run(subcommand, CONFIGS / config, tmp_path / "out") == 0
    assert len(builds) == 1


def _with(config, section, key, value):
    """The shipped config with one key of a section set to value."""
    return _with_keys(config, [(section, key, value)])


def _with_keys(config, edits):
    """The shipped config with each (section, key, value) of edits set."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    parser.optionxform = str
    parser.read(CONFIGS / config)
    for section, key, value in edits:
        if not parser.has_section(section):
            parser.add_section(section)
        parser[section][key] = value
    text = io.StringIO()
    parser.write(text)
    return text.getvalue()


BAD_INPUT = {
    "a": ("coefficients", "a", '"1/x"'),
    "f": ("data", "f", '"1/x"'),
    "center": ("geometry", "omega0_center", "9.0"),
    "no-center2": ("geometry", "case", "distinct"),
    "lambda": ("weights", "lambda", "1e3"),
}


@pytest.mark.parametrize("subcommand, config, bad", [
    pytest.param(sub, config, bad, id=f"{sub}-{bad}") for sub, config, bad in [
        ("nash", "nash_1d.ini", "a"),
        ("nash", "nash_1d.ini", "f"),
        ("null-control", "null_control_1d.ini", "a"),
        ("trajectory", "trajectory_1d.ini", "a"),
        ("semilinear", "semilinear_1d.ini", "a"),
        ("second-order", "second_order_1d.ini", "a"),
        ("second-order", "second_order_1d.ini", "f"),
        ("observability", "observability_1d.ini", "a"),
        ("observability", "observability_1d.ini", "center"),
        ("observability", "observability_1d.ini", "lambda"),
        ("carleman", "null_control_1d.ini", "a"),
        ("carleman", "carleman_1d.ini", "center"),
        ("carleman", "carleman_1d.ini", "no-center2"),
        ("carleman", "carleman_1d.ini", "lambda"),
        ("oracle", "nash_1d.ini", "a"),
        ("oracle", "nash_1d.ini", "f"),
    ]
])
def test_bad_input_fails_validation(tmp_path, capsys, subcommand, config, bad):
    """A non-finite field (a = 1/x, f = 1/x), or Carleman weights that cannot
    be built (a centre outside the domain, a distinct case without a second
    centre, a lambda that overflows them), is a validation error under every
    subcommand that reads it: exit 2 and no output directory."""
    cfg = tmp_path / "bad.ini"
    cfg.write_text(_with(config, *BAD_INPUT[bad]))
    out = tmp_path / "never"
    assert run(subcommand, cfg, out) == 2
    assert not out.exists()
    record = json.loads(capsys.readouterr().err.strip())
    assert record["stage"] == "validation"


@pytest.mark.parametrize("subcommand, code", [
    ("nash", 0), ("null-control", 0), ("oracle", 0), ("second-order", 0), ("observability", 0),
    ("carleman", 0), ("trajectory", 2), ("semilinear", 2),
])
def test_ubar0_is_validated_only_where_it_is_read(tmp_path, capsys, subcommand, code):
    """data.ubar0 is the free trajectory's initial state, read by trajectory
    and semilinear only: a non-finite value fails their validation (exit 2,
    no output directory) and every other subcommand runs."""
    cfg = tmp_path / "ubar0.ini"
    cfg.write_text(_with("nash_1d.ini", "data", "ubar0", '"1/x"'))
    out = tmp_path / "out"
    assert run(subcommand, cfg, out) == code
    if code == 2:
        assert not out.exists()
        record = json.loads(capsys.readouterr().err.strip())
        assert record["stage"] == "validation" and "ubar0" in record["message"]


@pytest.mark.parametrize("subcommand, config", [
    ("nash", "nash_1d.ini"),
    ("null-control", "null_control_1d.ini"),
    ("trajectory", "trajectory_1d.ini"),
    ("semilinear", "semilinear_1d.ini"),
    ("second-order", "second_order_1d.ini"),
    ("observability", "observability_1d.ini"),
    ("carleman", "null_control_1d.ini"),
    ("oracle", "nash_1d.ini"),
])
def test_run_builds_one_problem_spec(tmp_path, monkeypatch, subcommand, config):
    """Validation builds the ProblemSpec and the run uses that one: every
    module that binds build_problem_spec is counted."""
    builds = []
    original = hierctrl.config.build_problem_spec

    def counted(*args, **kwargs):
        builds.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("hierctrl") and getattr(module, "build_problem_spec", None) is original:
            monkeypatch.setattr(module, "build_problem_spec", counted)
    assert run(subcommand, CONFIGS / config, tmp_path / "out") == 0
    assert len(builds) == 1


def test_oracle_factorizes_once(tmp_path, monkeypatch):
    """The oracle assembles the stacked system once and factors it once; the
    Nash and coupled-adjoint solves share that factorization.  Every module
    that binds factorize or stacked_system is counted."""
    calls = {"factorize": [], "stacked_system": []}

    def counting(original, log):
        def counted(*args, **kwargs):
            log.append(1)
            return original(*args, **kwargs)
        return counted

    for fn_name, home in (("factorize", hierctrl.linalg), ("stacked_system", hierctrl.nash)):
        original = getattr(home, fn_name)
        counted = counting(original, calls[fn_name])
        for name, module in list(sys.modules.items()):
            if name.startswith("hierctrl") and getattr(module, fn_name, None) is original:
                monkeypatch.setattr(module, fn_name, counted)
    for config in ("nash_1d.ini", "nash_2d.ini"):
        for log in calls.values():
            log.clear()
        assert run("oracle", CONFIGS / config, tmp_path / config) == 0
        assert (len(calls["factorize"]), len(calls["stacked_system"])) == (1, 1)


def test_semilinear_honours_cg_max_iter(tmp_path):
    cfg = tmp_path / "short_cg.ini"
    cfg.write_text(_with("semilinear_1d.ini", "solver", "cg_max_iter", "2"))
    out = tmp_path / "sem"
    assert run("semilinear", cfg, out) == 1
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "MaxIterations" and record["stage"] == "solve"
    assert record["iterations"] == 2


def test_semilinear_runs_without_weights_it_cannot_build(tmp_path):
    """The Carleman weights only feed semilinear's target check: a centre
    outside the domain, or a lambda that overflows them, leaves it out."""
    for section, key, value in (("geometry", "omega0_center", "9.0"), ("weights", "lambda", "1e3")):
        cfg = tmp_path / f"{key}.ini"
        cfg.write_text(_with("semilinear_1d.ini", section, key, value))
        out = tmp_path / key
        assert run("semilinear", cfg, out) == 0
        assert not any(k.startswith("target_condition") for k in _summary(out))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_carleman_large_lambda_skips_samples_without_nan(tmp_path):
    """With lambda = 400, xi^k overflows where exp(2 s alpha) underflows.
    The weighted energies are taken in log form: every sample is finite or
    skipped, no row is NaN, and nothing warns."""
    cfg = tmp_path / "lambda400.ini"
    cfg.write_text(_with("carleman_1d.ini", "weights", "lambda", "400"))
    out = tmp_path / "c"
    assert run("carleman", cfg, out) == 0
    assert "nan" not in (out / "carleman_ratio.csv").read_text()
    s = _summary(out)
    assert int(s["ratio_samples"]) + int(s["ratio_skipped"]) == 20


def test_carleman_all_samples_skipped_says_why(tmp_path):
    """With lambda = 5 every sample has a side beyond a double: the summary
    adds a note next to the nan ratios.  The shipped run has no such note."""
    cfg = tmp_path / "lambda5.ini"
    cfg.write_text(_with("carleman_1d.ini", "weights", "lambda", "5"))
    out = tmp_path / "c"
    assert run("carleman", cfg, out) == 0
    lines = (out / "summary.txt").read_text().splitlines()
    assert "ratio_samples = 0" in lines and "ratio_skipped = 20" in lines
    assert "ratio_max = nan" in lines
    assert ("note = every ratio sample was skipped: a weighted energy under- or overflows a double"
            in lines)
    shipped = tmp_path / "shipped"
    assert run("carleman", CONFIGS / "carleman_1d.ini", shipped) == 0
    assert "skipped:" not in (shipped / "summary.txt").read_text()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_semilinear_target_condition_beyond_double_range(tmp_path):
    """With lambda = 1, theta underflows at every inner node, so the
    theta^{-2}-weighted target check exceeds a double: it reads inf and is
    flagged.  With lambda = 0.05 it is finite."""
    values = {}
    for lam in ("1.0", "0.05"):
        cfg = tmp_path / f"lambda{lam}.ini"
        cfg.write_text(_with_keys("semilinear_1d.ini", [
            ("weights", "lambda", lam), ("data", "zeta1", '"0.1"'), ("data", "zeta2", '"0.1"')]))
        out = tmp_path / lam
        assert run("semilinear", cfg, out) == 0
        values[lam] = _summary(out)
    for i in (1, 2):
        assert values["1.0"][f"target_condition_{i}"] == "inf"
        assert values["1.0"][f"target_condition_{i}_infinite"] == "True"
        assert float(values["0.05"][f"target_condition_{i}"]) == pytest.approx(1.2858055001200275e+27, rel=1e-14)
        assert values["0.05"][f"target_condition_{i}_infinite"] == "False"


def test_second_order_subcommand(tmp_path):
    out = tmp_path / "so"
    assert run("second-order", CONFIGS / "second_order_1d.ini", out) == 0
    s = _summary(out)
    assert s["all_positive"] == "True"
    rows = (out / "second_order.csv").read_text().splitlines()
    assert rows[0] == "follower,sample,form"
    assert len(rows) == 1 + 2 * 20


def test_semilinear_subcommand(tmp_path):
    out = tmp_path / "sem"
    assert run("semilinear", CONFIGS / "semilinear_1d.ini", out) == 0
    s = _summary(out)
    assert float(s["terminal_mismatch"]) > 0.0
    assert int(s["outer_iterations"]) <= 30
    assert (out / "outer_history.csv").exists()


def test_semilinear_cg_history_blocks(tmp_path, monkeypatch):
    """One cg_history.csv block per outer iteration; the last is the final HumResult's."""
    captured = []
    original = cli.semilinear_null_control

    def recording(*args, **kwargs):
        captured.append(original(*args, **kwargs))
        return captured[-1]

    monkeypatch.setattr(cli, "semilinear_null_control", recording)
    out = tmp_path / "semcg"
    assert run("semilinear", CONFIGS / "semilinear_1d.ini", out) == 0
    res, = captured
    lines = (out / "cg_history.csv").read_text().splitlines()
    assert lines[0] == "outer,iter,residual"
    blocks = {}
    for line in lines[1:]:
        outer, it, residual = line.split(",")
        blocks.setdefault(int(outer), []).append((int(it), residual))
    assert list(blocks) == list(range(1, res.outer_iterations + 1))
    for rows in blocks.values():
        assert [it for it, _ in rows] == list(range(len(rows)))
    assert [r for _, r in blocks[res.outer_iterations]] == [fmt(r) for r in res.hum.cg_residuals]
    assert len(blocks[res.outer_iterations]) == res.hum.cg_iterations + 1
    # every block is its start row plus one row per CG iteration
    assert int(_summary(out)["cg_iterations"]) == res.cg_iterations == sum(len(r) - 1 for r in blocks.values())


def test_cg_max_iterations_reports_converged_eps(tmp_path):
    """A sweep whose smallest eps misses cg_max_iter fails as a whole, and
    error.json says which eps converged, at which iteration, and which missed."""
    text = (CONFIGS / "null_control_1d.ini").read_text()
    assert "cg_max_iter = 300" in text
    cfg = tmp_path / "short_cg.ini"
    cfg.write_text(text.replace("cg_max_iter = 300", "cg_max_iter = 20"))
    out = tmp_path / "nc"
    assert run("null-control", cfg, out) == 1
    assert not (out / "sweep.csv").exists()
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "MaxIterations" and record["stage"] == "solve"
    assert record["iterations"] == 20
    assert record["missed_eps"] == [1e-5]
    assert [c["eps"] for c in record["converged_eps"]] == [1e-1, 1e-2, 1e-3, 1e-4]
    its = [c["iterations"] for c in record["converged_eps"]]
    assert its == sorted(its) and 0 < its[0] and its[-1] < 20


def test_trajectory_subcommand(tmp_path):
    out = tmp_path / "traj"
    assert run("trajectory", CONFIGS / "trajectory_1d.ini", out) == 0
    s = _summary(out)
    assert s["strictly_decreasing"] == "True"
    assert (out / "u.field.txt").exists() and (out / "ubar.field.txt").exists()


def test_nash_2d_config(tmp_path):
    out = tmp_path / "n2d"
    assert run("nash", CONFIGS / "nash_2d.ini", out) == 0
    s = _summary(out)
    assert float(s["residual_1"]) <= 1e-10
    header = (out / "w.field.txt").read_text().splitlines()[0]
    assert header == "# 8 8 6"


def test_observability_distinct_config(tmp_path):
    out = tmp_path / "odist"
    assert run("observability", CONFIGS / "observability_distinct_1d.ini", out) == 0
    s = _summary(out)
    assert s["case"] == "distinct"
    assert s["all_finite"] == "True"


def test_main_entry_point(tmp_path):
    cfg = tmp_path / "zero.ini"
    cfg.write_text(ZERO_NASH)
    code = main(["nash", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0


def test_main_unknown_subcommand():
    with pytest.raises(SystemExit):
        main(["frobnicate", "--config", "x", "--out", "y"])


def test_distinct_case_validation(tmp_path):
    cfg = tmp_path / "distinct.ini"
    text = ZERO_NASH.replace("target1 = 2.1, 3.9", "target1 = 1.8, 3.0")
    text = text.replace("target2 = 2.1, 3.9", "target2 = 2.7, 3.9")
    text += "\n"
    cfg.write_text(text)
    # distinct geometry under a shared-case label is rejected for pipelines
    # that need the case hypotheses
    assert run("observability", cfg, tmp_path / "never") == 2
