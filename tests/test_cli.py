import ast
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symorbit import (
    DomainExit,
    ForceField,
    NoCrossing,
    PowerLawParams,
    Reflection,
    State,
    analysis,
    circular_speed,
    cli,
    continuation,
    errors,
    flow,
    integrator,
    orbit,
    section,
    serialize,
    zero_perturbation,
)
from symorbit.cli import main

from oracles import csv_text_17g, json_dumps_17g

README = Path(__file__).resolve().parents[1] / "README.md"


def write_config(path, **overrides):
    cfg = {
        "field": {
            "kappa": 1.0,
            "alpha": 1.0,
            "perturbation": {
                "kind": "radial_power",
                "params": {"lam": 1.0, "beta": 3.0},
                "symmetries": ["x_axis", "y_axis"],
            },
            "mu_range": 0.5,
            "annulus": [0.5, 2.0],
        },
        "mode": "quarter",
        "radius": 1.0,
        "mu": 0.02,
        "mu_grid": {"stop": 0.01, "count": 3, "mirror": False},
        "scan": {
            "sigma_min": 0.95,
            "sigma_max": 1.05,
            "sigma_count": 7,
            "mu_max": 0.01,
            "mu_count": 3,
        },
        "seed": 0,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


MISSING = object()


def write_config_with(path, key_path, value):
    """The test configuration with the dotted key path set to value, or
    removed when value is MISSING."""
    cfg = json.loads(write_config(path).read_text())
    *parents, key = key_path.split(".")
    section = cfg
    for part in parents:
        section = section[part]
    if value is MISSING:
        del section[key]
    else:
        section[key] = value
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture()
def config_path(tmp_path):
    return write_config(tmp_path / "config.json")


FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e16, 1e17])
LEAVES = (
    FINITE
    | st.integers()
    | st.booleans()
    | st.none()
    | st.text()
    | st.builds(np.float64, FINITE)  # a float subclass
    | st.lists(FINITE, min_size=1, max_size=6)  # a sample row
    | st.lists(FINITE, min_size=1, max_size=6).map(tuple)
)
PAYLOADS = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=5).map(tuple)
    | st.dictionaries(st.text(), children, max_size=5),
    max_leaves=40,
)


# A table of float rows of one length 0 to 6: (length, rows).
TABLES = st.integers(0, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.lists(FINITE, min_size=n, max_size=n), max_size=6))
)


class TestSerialize:
    def test_seventeen_digits_round_trip(self):
        payload = {"a": 1.0 / 3.0, "b": [1.5, 2], "c": {"d": math.pi}}
        text = serialize.dumps(payload)
        parsed = json.loads(text)
        assert parsed["a"] == 1.0 / 3.0
        assert parsed["c"]["d"] == math.pi
        assert "0.33333333333333331" in text

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            serialize.dumps({"x": float("inf")})

    def test_numpy_scalars(self):
        # np.float64 is a float; other numpy scalars are refused as json.dumps refuses them.
        assert serialize.dumps({"v": np.float64(0.1)}) == '{\n  "v": 0.10000000000000001\n}'
        for value in (np.int64(3), np.bool_(True)):
            with pytest.raises(TypeError) as expected:
                json.dumps(value)
            with pytest.raises(TypeError) as got:
                serialize.dumps({"n": value})
            assert str(got.value) == str(expected.value)

    @settings(max_examples=150, deadline=None)
    @given(payload=PAYLOADS)
    def test_dumps_matches_the_tagged_json_encoding(self, payload):
        assert serialize.dumps(payload) == json_dumps_17g(payload)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("where", ["float_row", "mixed_list"])
    def test_non_finite_rejected_in_any_list(self, bad, where):
        items = [1.0, bad, 2.0] if where == "float_row" else [1.0, "x", bad]
        with pytest.raises(ValueError, match="non-finite"):
            serialize.dumps({"samples": [items]})

    def test_non_str_key_refused_naming_its_type(self):
        for key in (1, 1.5, True, None, (1, 2)):
            for payload in ({key: 0.5}, {"a": {"b": 1.0, key: 0.5}}):
                with pytest.raises(TypeError, match=f"^keys must be str, not {type(key).__name__}$"):
                    serialize.dumps(payload)

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.lists(st.floats(), max_size=6), max_size=8))
    def test_csv_float_rows_match_the_per_cell_writer(self, rows, tmp_path_factory):
        path = tmp_path_factory.mktemp("csv") / "rows.csv"
        serialize.write_csv(path, ["a", "b"], rows)
        assert path.read_text(encoding="utf-8") == csv_text_17g(["a", "b"], rows)

    def test_csv_mixed_rows_match_the_per_cell_writer(self, tmp_path):
        # The zero_set.csv shape (a formatted sigma, then int signs), next to
        # float rows holding every cell kind the template must leave alone.
        rows = [
            [serialize.fmt(0.95), 1, -1, 0],
            [1.0, 2, 3.5],
            [True, 0.1, None],
            [np.float64(0.1), 10**20, -0.0],
            [5e-324, 1e16, 1e17, -math.inf, math.nan],
            (0.1, 0.2),
            [],
        ]
        serialize.write_csv(tmp_path / "mixed.csv", ["sigma", "0", "0.005", "0.01"], rows)
        assert (tmp_path / "mixed.csv").read_text(encoding="utf-8") == csv_text_17g(["sigma", "0", "0.005", "0.01"], rows)

    @settings(max_examples=150, deadline=None)
    @given(table=TABLES)
    def test_float_tables_match_the_oracles_with_and_without_shared_lines(self, table, tmp_path_factory):
        n, rows = table
        shared = serialize.FloatRows(np.array(rows, dtype=float).reshape(len(rows), n))
        assert shared == rows
        header = [f"c{k}" for k in range(n)]
        path = tmp_path_factory.mktemp("csv") / "rows.csv"
        for table_rows in (rows, shared):
            for payload in ({"samples": table_rows}, {"a": [{"samples": table_rows}], "b": 1.0}):
                assert serialize.dumps(payload) == json_dumps_17g(payload)
            serialize.write_csv(path, header, table_rows)
            assert path.read_text(encoding="utf-8") == csv_text_17g(header, rows)

    @settings(max_examples=100, deadline=None)
    @given(table=TABLES, bad=st.sampled_from([math.inf, -math.inf, math.nan]), data=st.data())
    def test_non_finite_in_a_float_table_refused_by_json_and_written_by_csv(self, table, bad, data, tmp_path_factory):
        n, rows = table
        if not rows or n == 0:
            rows, n = [[1.0]], 1
        i = data.draw(st.integers(0, len(rows) - 1))
        j = data.draw(st.integers(0, n - 1))
        rows = [list(r) for r in rows]
        rows[i][j] = bad
        shared = serialize.FloatRows(np.array(rows, dtype=float))
        with pytest.raises(ValueError) as oracle:
            json_dumps_17g({"samples": rows})
        for table_rows in (rows, shared):
            with pytest.raises(ValueError) as refused:
                serialize.dumps({"samples": table_rows})
            assert str(refused.value) == str(oracle.value)
            path = tmp_path_factory.mktemp("csv") / "rows.csv"
            serialize.write_csv(path, ["c"] * n, table_rows)
            assert path.read_text(encoding="utf-8") == csv_text_17g(["c"] * n, rows)

    def test_float_rows_pass_json_dumps_and_render_once(self):
        shared = serialize.FloatRows([[0.1, -0.0], [5e-324, 1e17]])
        assert json.loads(json.dumps({"s": shared})) == {"s": [[0.1, -0.0], [5e-324, 1e17]]}
        assert shared.lines == ["0.10000000000000001,-0", "4.9406564584124654e-324,1e+17"]
        assert shared.lines is shared.lines
        with pytest.raises(ValueError, match="2-D"):
            serialize.FloatRows([1.0, 2.0])

    def test_refused_payload_leaves_no_file(self, tmp_path):
        path = tmp_path / "x.json"
        with pytest.raises(ValueError, match="non-finite value inf not serializable"):
            serialize.dump({"x": float("inf")}, path)
        assert not path.exists()
        serialize.dump({"x": 0.5}, path)
        assert path.read_text(encoding="utf-8") == '{\n  "x": 0.5\n}\n'


def _readme_exit_codes() -> dict:
    """{error class name: exit code}, read off the README's exit-code paragraph."""
    text = re.search(r"Exit codes: (.*?)\n\n", README.read_text(), re.S).group(1)
    parts = re.split(r"`(\d)`", text)
    return {name: int(code) for code, body in zip(parts[1::2], parts[2::2]) for name in re.findall(r"`([A-Z]\w+)`", body)}


def _subclasses(cls) -> list:
    """Every subclass of cls, at any depth."""
    return [c for sub in cls.__subclasses__() for c in (sub, *_subclasses(sub))]


@pytest.mark.parametrize("error", _subclasses(errors.SolverError), ids=lambda e: e.__name__)
def test_every_solver_error_has_its_documented_exit_code(error):
    assert error("x").exit_code == _readme_exit_codes()[error.__name__]


class TestSolveCommand:
    def test_solve_writes_outputs(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["solve", "--config", str(config_path), "--mu", "0.02", "--out", str(out), "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sigma_star"] == pytest.approx(math.sqrt(1.02), abs=1e-9)
        assert payload["diagnostics"]["valid"] is True
        orbit = json.loads((out / "orbit.json").read_text())
        assert len(orbit["samples"]) == 1025
        csv_lines = (out / "orbit.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "t,x,y,vx,vy"
        assert len(csv_lines) == 1026

    def test_orbit_json_and_csv_carry_the_same_text_per_value(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert main(["solve", "--config", str(config_path), "--out", str(out)]) == 0
        text = (out / "orbit.json").read_text(encoding="utf-8")
        tokens = json.loads(text, parse_float=str, parse_int=str)["samples"]  # each number as written
        csv_lines = (out / "orbit.csv").read_text(encoding="utf-8").splitlines()
        assert len(tokens) == 1025 and tokens == [line.split(",") for line in csv_lines[1:]]

    def test_half_mode_is_labelled_x_axis(self, tmp_path, capsys):
        cfg = write_steep_half_config(tmp_path / "a3.json", 0)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["symmetry"] == "x_axis"
        assert json.loads((out / "orbit.json").read_text())["symmetry"] == "x_axis"

    def test_plain_output_prints_plain_floats(self, config_path, capsys):
        # No np.float64(...) under numpy 2: v_mu is printed as a list of floats.
        assert main(["solve", "--config", str(config_path), "--mu", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "np." not in out
        v_mu = next(line for line in out.splitlines() if line.startswith("v_mu: "))
        assert [type(v) for v in ast.literal_eval(v_mu[len("v_mu: "):])] == [float, float]

    def test_failed_validation_names_the_failing_checks(self, config_path, capsys, monkeypatch):
        monkeypatch.setattr(orbit, "_CLOSURE_POS_TOL", 0.0)
        assert main(["solve", "--config", str(config_path), "--json"]) == 4
        out, err = capsys.readouterr()
        assert json.loads(out)["diagnostics"]["valid"] is False
        assert err == "solve failed: ValidationFailure at mu=0.02 (closure_position)\n"

    def test_bracket_failure_exit_code(self, config_path, capsys):
        code = main(["solve", "--config", str(config_path), "--mu", "0.45", "--json"])
        assert code == 2

    def test_far_out_of_range_mu_is_bracket_class(self, tmp_path, capsys):
        # Wildly strong perturbation inside a wide declared mu range: the probe
        # orbits leave the annulus, which surfaces as a bracketing failure (the
        # usable-range signal).
        cfg = json.loads(write_config(tmp_path / "c.json").read_text())
        cfg["field"]["mu_range"] = 20.0
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert main(["solve", "--config", str(tmp_path / "c.json"), "--mu", "10"]) == 2

    @pytest.mark.parametrize("value", ["0.5", "-0.5", "0.7", "10"])
    def test_mu_outside_field_range_is_config_class(self, config_path, capsys, value):
        assert main(["solve", "--config", str(config_path), f"--mu={value}"]) == 1
        assert "--mu" in capsys.readouterr().err

    def test_config_mu_outside_field_range_is_config_class(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", mu=0.7)
        assert main(["solve", "--config", str(cfg)]) == 1
        assert "'mu'" in capsys.readouterr().err

    def test_nonconvergence_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", solve_tol=0.0)
        assert main(["solve", "--config", str(cfg), "--mu", "0.0"]) == 3

    def test_overflowing_initial_step_norm_is_step_failure(self, tmp_path, capsys, set_tolerance):
        # At tolerances of 1e-300 the starting-step heuristic's scaled norms
        # overflow; the step size comes out NaN and the solve ends as a
        # StepFailure with its exit code, not an OverflowError traceback.
        set_tolerance(1e-300)
        cfg = write_config(tmp_path / "c.json")
        assert main(["solve", "--config", str(cfg)]) == 5
        assert "StepFailure: step size underflow" in capsys.readouterr().err

    def test_force_overflowing_at_launch_is_step_failure(self, tmp_path, capsys):
        # 1.45**2000 overflows, and Python's float ** raises OverflowError:
        # the launch force is undefined, which is a StepFailure, not a
        # traceback. The symmetry check leaves out the samples where it is.
        cfg = {
            "field": {
                "kappa": 1.0,
                "alpha": 1.0,
                "perturbation": {
                    "kind": "axis_poly",
                    "params": {"px": 2000, "cy": 0.1, "py": 3},
                    "symmetries": ["x_axis", "y_axis"],
                },
            },
            "radius": 1.45,
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["solve", "--config", str(path)]) == 5
        assert "StepFailure: force evaluation at the launch raised OverflowError" in capsys.readouterr().err
        assert main(["sweep", "--config", str(path)]) == 5
        assert main(["verify", "--config", str(path)]) == 4

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_mu_rejected(self, config_path, capsys, value):
        assert main(["solve", "--config", str(config_path), f"--mu={value}"]) == 1
        assert "--mu must be finite" in capsys.readouterr().err

    def test_bad_config_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["solve", "--config", str(missing)]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text('{"field": {"kappa": -1, "alpha": 1}}')
        assert main(["solve", "--config", str(bad)]) == 1

    def test_config_that_is_no_json_object_refused(self, tmp_path, capsys):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2]")
        assert main(["solve", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "configuration error: configuration must be a JSON object\n"


@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize("below", [False, True])
def test_out_naming_a_file_refused_before_any_work(config_path, tmp_path, capsys, monkeypatch, command, below):
    # An existing file, or a path under one, cannot be the output directory:
    # exit 1 naming --out, before the solve or the sweep runs.
    started = []
    for name in ("solve_orbit", "run_sweep", "zero_set_scan"):
        monkeypatch.setattr(cli, name, lambda *a, name=name, **k: started.append(name))
    target = tmp_path / "taken.txt"
    target.write_text("kept")
    out = target / "sub" if below else target
    assert main([command, "--config", str(config_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: --out ") and "Traceback" not in err
    assert started == [] and target.read_text() == "kept"


@pytest.mark.parametrize(
    "command, config, extra, named",
    [
        ("solve", {"field": {"kappa": 1.0, "alpha": 0.5}}, [], "configuration key 'mode'"),
        ("solve", {"field": {"kappa": 1.0, "alpha": 1.0}}, ["--mu", "0.7"], "--mu"),
        # The default scan.sigma_min 0.9 lies outside the speed band (0.95, 1.05).
        ("sweep", {"field": {"kappa": 1.0, "alpha": 1.0}, "eta": 0.04, "delta": 0.05}, [], "configuration key 'scan.sigma_min'"),
    ],
    ids=["mode", "mu", "scan"],
)
def test_refused_configuration_leaves_no_out_directory(tmp_path, capsys, command, config, extra, named):
    # --out is created last of main's refusals, so a configuration refused
    # for another fault leaves no directory behind.
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), *extra, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {named}") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "config, extra, code, first",
    [
        ({"field": {"kappa": 1.0, "alpha": 1.0}, "samples": 1024}, [], 1, "configuration error: "),
        # sigma*(mu) = sqrt(1 + 100 mu) is far outside the bracket at mu = 0.49.
        (
            {
                "field": {
                    "kappa": 1.0,
                    "alpha": 1.0,
                    "perturbation": {"kind": "radial_power", "params": {"lam": 100.0}, "symmetries": ["x_axis", "y_axis"]},
                }
            },
            ["--mu", "0.49"],
            2,
            "BracketFailure: ",
        ),
    ],
    ids=["refusal", "bracket"],
)
def test_exit_code_is_the_process_exit_status(tmp_path, config, extra, code, first):
    # main's return becomes the exit status of `python -m symorbit.cli`, and
    # the error is one stderr line, with no traceback.
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = subprocess.run(
        [sys.executable, "-m", "symorbit.cli", "solve", "--config", str(cfg), *extra],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == code
    assert run.stderr.startswith(first) and run.stderr.count("\n") == 1


def _defect(*args, **kwargs):
    raise ValueError("a defect in the package's own work")


@pytest.mark.parametrize(
    "command, extra, name",
    [
        ("solve", [], "solve_orbit"),
        ("sweep", [], "run_sweep"),
        ("verify", [], "orbit"),  # one _VERIFY_CHECKS entry
        ("analyze", ["--sigma", "1.05"], "apsides"),
    ],
)
def test_a_value_error_from_a_commands_own_work_propagates(config_path, capsys, monkeypatch, command, extra, name):
    # Only main's refusal point, before any work, maps a ValueError to a
    # configuration error; one raised later is a defect, with its traceback.
    if name == "orbit":
        monkeypatch.setattr(cli, "_VERIFY_CHECKS", tuple((n, _defect if n == name else f) for n, f in cli._VERIFY_CHECKS))
    else:
        monkeypatch.setattr(cli, name, _defect)
    with pytest.raises(ValueError, match="a defect in the package's own work"):
        main([command, "--config", str(config_path), *extra])
    assert "configuration error" not in capsys.readouterr().err


class TestConfigKeys:
    @pytest.mark.parametrize(
        "path",
        [
            "solve_tolerance",
            "field.radius_scale",
            "field.perturbation.kinds",
            "integrator",
            "mu_grid.stpe",
            "scan.sigma_cnt",
            "field.perturbation.params.lamda",
            "t_bar",
            "mu_grid.step",
        ],
    )
    def test_unknown_key_rejected_by_path(self, tmp_path, capsys, path):
        cfg = write_config_with(tmp_path / "c.json", path, 1e-3)
        assert main(["solve", "--config", str(cfg)]) == 1
        assert f"unknown configuration key '{path}'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("samples", 1024), ("symmetry_samples", 64)])
    @pytest.mark.parametrize("command", ["solve", "sweep", "verify"])
    def test_validation_sample_counts_are_no_keys(self, tmp_path, capsys, monkeypatch, command, key, value):
        # The counts are part of the validation's calibration, as its
        # tolerances are: a configuration that sets one, even to the count
        # used, is refused before any work.
        started = []
        for name in ("check_symmetry", "solve_orbit", "run_sweep", "zero_set_scan"):
            monkeypatch.setattr(cli, name, lambda *a, **k: started.append(a))
        cfg = write_config_with(tmp_path / "c.json", key, value)
        assert main([command, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"configuration error: unknown configuration key '{key}'\n"
        assert started == []

    @pytest.mark.parametrize(
        "path, value",
        [
            ("seed", -1),
            ("mu_grid.count", True),
            ("scan.mu_count", 0),
            ("seed", 1.5),
            ("field.alpha", float("nan")),
            ("field.kappa", float("inf")),
            ("radius", "abc"),
            ("eta", "0.1"),
            ("delta", True),
            ("solve_tol", "1e-10"),
            ("mu", "0.05"),
            ("radius", float("nan")),
            ("field.annulus", [0.5, float("inf")]),
            ("mu_grid.stop", 0.5),
            ("mu_grid.stop", 0.0),
            ("mu_grid.count", None),
            ("mu_grid.count", 0),
            ("mu_grid.mirror", "false"),
            ("scan.sigma_min", "0.95"),
            ("scan.sigma_max", 0.9),
            ("scan.sigma_count", 1),
            ("scan.mu_max", float("inf")),
            ("scan.mu_count", 2.0),
            ("field.kappa", "1.0"),
            ("field.alpha", None),
            ("field.alpha", True),
            ("field.mu_range", "0.5"),
            ("field.annulus", [0.5]),
            ("field.annulus", "ab"),
            ("field.annulus", [2.0, 0.5]),
            ("mode", "quater"),
            ("field.perturbation.symmetries", ["x_axi"]),
            ("field.perturbation.params", [1]),
            ("field.perturbation.params.lam", "abc"),
            ("field.kappa", MISSING),
        ],
    )
    def test_bad_value_rejected_by_path(self, tmp_path, capsys, path, value):
        cfg = write_config_with(tmp_path / "c.json", path, value)
        assert main(["solve", "--config", str(cfg)]) == 1
        assert f"configuration error: configuration key '{path}' must be" in capsys.readouterr().err

    @pytest.mark.parametrize("radius", [3.0, 0.25])
    @pytest.mark.parametrize(
        "command", [["solve"], ["verify"], ["analyze", "--sigma", "1.05"], ["sweep"]], ids=lambda c: c[0]
    )
    def test_radius_outside_annulus_refused(self, tmp_path, capsys, command, radius):
        # The launch point (radius, 0) must lie in field.annulus [0.5, 2.0].
        cfg = write_config(tmp_path / "c.json", radius=radius)
        assert main([command[0], "--config", str(cfg), *command[1:]]) == 1
        err = capsys.readouterr().err
        assert "configuration error: configuration key 'radius' must be a number in field.annulus" in err

    @pytest.mark.parametrize(
        "kappa, alpha, annulus, radius",
        [(1.0, 1.5, [0.5, 1e250], 1e130), (1.0, 1.5, [1e-250, 2.0], 1e-200), (1e-100, 0.0, [0.5, 1e200], 1e150)],
        ids=["overflow", "underflow", "vanishing"],
    )
    @pytest.mark.parametrize(
        "command", [["solve"], ["verify"], ["analyze", "--sigma", "1.05"]], ids=lambda c: c[0]
    )
    def test_radius_where_the_force_is_not_representable_refused(
        self, tmp_path, capsys, command, kappa, alpha, annulus, radius
    ):
        # Each radius lies in its annulus. At alpha = 1.5, U''(r) = -2.5 /
        # r**3.5: the power overflows at r = 1e130 (OverflowError) and
        # underflows to 0 at r = 1e-200 (ZeroDivisionError). At alpha = 0,
        # U''(r) = -kappa / r**2 underflows to -0.0 at kappa = 1e-100, r = 1e150.
        cfg = tmp_path / "c.json"
        field = {"kappa": kappa, "alpha": alpha, "annulus": annulus}
        cfg.write_text(json.dumps({"field": field, "radius": radius, "mode": "half"}))
        assert main([command[0], "--config", str(cfg), *command[1:]]) == 1
        err = capsys.readouterr().err
        assert "configuration error: configuration key 'radius' must be" in err
        assert "where U' and U'' are finite and nonzero" in err

    @pytest.mark.parametrize(
        "command", [["solve"], ["verify"], ["analyze", "--sigma", "1.05", "--json"], ["sweep"]], ids=lambda c: c[0]
    )
    def test_radius_whose_solve_window_is_below_the_time_resolution_refused(self, tmp_path, capsys, command):
        # At kappa = 1e31 the circular speed at radius 1 is 3.2e15 and the
        # solve window 0.75 * 2 pi / 3.2e15 = 1.5e-15, under flow's time
        # resolution 1e-14: a flow that short takes no step. analyze used to
        # exit 0 with no apsides, and solve 2 with a BracketFailure.
        cfg = tmp_path / "c.json"
        field = {
            "kappa": 1e31,
            "alpha": 0.5,
            "perturbation": {"kind": "axis_poly", "params": {"cx": 1.0, "px": 2, "cy": 1.0, "py": 3}, "symmetries": ["x_axis"]},
        }
        cfg.write_text(json.dumps({"field": field, "mode": "half", "radius": 1.0, "mu": 0.01}))
        assert main([command[0], "--config", str(cfg), *command[1:]]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert "configuration error: configuration key 'radius' must be" in err
        assert "the solve window 0.75 * 2 pi radius / v0 exceeds 1e-14" in err

    @pytest.mark.parametrize("kappa, loads", [(2e29, True), (3e29, False)])
    def test_solve_window_bound(self, tmp_path, kappa, loads):
        # At radius 1 the window 0.75 * 2 pi / sqrt(kappa) passes 1e-14 at
        # kappa = 2.22e29.
        cfg = write_config_with(tmp_path / "c.json", "field.kappa", kappa)
        if loads:
            assert cli.RunConfig.load(cfg).problem().window > 1e-14
        else:
            with pytest.raises(ValueError, match="configuration key 'radius' must be"):
                cli.RunConfig.load(cfg)

    @pytest.mark.parametrize(
        "key, value, requirement",
        [("field.alpha", 0.5, "alpha == 1"), ("field.perturbation.symmetries", ["x_axis"], "both reflection symmetries")],
    )
    @pytest.mark.parametrize("command", ["solve", "sweep", "verify"])
    def test_mode_that_does_not_fit_the_field_named(self, tmp_path, capsys, command, key, value, requirement):
        # Checked when a command builds the shooting problem, not at load
        # time: analyze never reads the mode.
        cfg = write_config_with(tmp_path / "c.json", key, value)
        assert main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "configuration error: configuration key 'mode'" in err
        assert f"quarter mode requires {requirement}" in err

    def test_verify_refuses_a_mode_that_does_not_fit_before_any_flow(self, tmp_path, capsys, monkeypatch):
        flows = []
        for module in (analysis, cli, orbit, section):
            monkeypatch.setattr(module, "flow", lambda *a, **k: flows.append(a) or integrator.flow(*a, **k))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"field": {"kappa": 1, "alpha": 0.5}}))
        assert main(["verify", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error: configuration key 'mode' does not fit the field: ")
        assert captured.out == "" and flows == []

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_mode_that_does_not_fit_refused_before_the_symmetry_check(self, tmp_path, capsys, monkeypatch, command):
        # alpha 0.5 does not fit the default quarter mode, and the constant
        # force breaks both declared reflections: the mode is refused first,
        # before check_symmetry or any flow runs.
        started = []
        check = cli.check_symmetry
        monkeypatch.setattr(cli, "check_symmetry", lambda *a, **k: started.append("check_symmetry") or check(*a, **k))
        for module in (analysis, cli, orbit, section):
            monkeypatch.setattr(module, "flow", lambda *a, **k: started.append("flow") or integrator.flow(*a, **k))
        pert = {"kind": "axis_poly", "params": {"cx": 0.0, "px": 0, "cy": 0.1, "py": 0}, "symmetries": ["x_axis", "y_axis"]}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"field": {"kappa": 1.0, "alpha": 0.5, "perturbation": pert}, "mu": 0.02}))
        assert main([command, "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error: configuration key 'mode' does not fit the field: ")
        assert captured.out == "" and started == []

    @pytest.mark.parametrize("radius", [0.5, 2.0])
    def test_radius_on_the_annulus_accepted(self, tmp_path, radius):
        assert cli.RunConfig.load(write_config(tmp_path / "c.json", radius=radius)).radius == radius

    @pytest.mark.parametrize("key, value", [("px", 2.5), ("py", 2.5), ("px", -1), ("py", "3")])
    def test_axis_poly_exponent_rejected_by_path(self, tmp_path, capsys, key, value):
        cfg = write_config_with(tmp_path / "c.json", "field.perturbation.kind", "axis_poly")
        raw = json.loads(cfg.read_text())
        raw["field"]["perturbation"]["params"] = {"cx": 0.0, "cy": 0.0, key: value}
        cfg.write_text(json.dumps(raw))
        assert main(["solve", "--config", str(cfg)]) == 1
        path = f"field.perturbation.params.{key}"
        assert f"configuration error: configuration key '{path}' must be a nonnegative integer" in capsys.readouterr().err

    def test_axis_poly_integral_exponents_accepted(self, tmp_path):
        cfg = write_config_with(tmp_path / "c.json", "field.perturbation.kind", "axis_poly")
        raw = json.loads(cfg.read_text())
        raw["field"]["perturbation"]["params"] = {"px": 2, "py": 3.0}
        cfg.write_text(json.dumps(raw))
        assert cli.RunConfig.load(cfg).field.perturbation.params == {"px": 2, "py": 3.0}

    def test_count_grid_and_default_grid(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", mu_grid={"stop": 0.01, "count": 7})
        (forward,) = cli._mu_grids(cli.RunConfig.load(cfg))
        assert forward.tolist() == np.linspace(0.0, 0.01, 7).tolist()
        cfg = write_config(tmp_path / "c.json", mu_grid={})
        (forward,) = cli._mu_grids(cli.RunConfig.load(cfg))
        assert forward.tolist() == np.linspace(0.0, 0.25, 64).tolist()

    def test_mirrored_grid_starts_at_positive_zero(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", mu_grid={"stop": 0.01, "count": 7, "mirror": True})
        forward, backward = cli._mu_grids(cli.RunConfig.load(cfg))
        assert math.copysign(1.0, backward[0]) == 1.0 and backward[0] == 0.0
        assert backward[1:].tolist() == (-forward[1:]).tolist()

    def test_step_with_count_refused(self, tmp_path, capsys, monkeypatch):
        # A grid is spelled by its count only: step is no key, also beside
        # count, and is refused before any work.
        started = []
        for name in ("check_symmetry", "run_sweep", "zero_set_scan"):
            monkeypatch.setattr(cli, name, lambda *a, **k: started.append(a))
        cfg = write_config(tmp_path / "c.json", mu_grid={"stop": 0.01, "step": 0.005, "count": 7})
        assert main(["sweep", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "configuration error: unknown configuration key 'mu_grid.step'\n"
        assert started == []

    @pytest.mark.parametrize(
        "command, path, value",
        [
            ("sweep", "mu_grid.count", 10**12),
            ("sweep", "mu_grid.count", 10_001),
            ("sweep", "scan.sigma_count", 10**12),
            ("sweep", "scan.mu_count", 10**12),
            ("sweep", "scan.mu_count", 1_000_000 // 7 + 1),  # sigma_count 7
        ],
    )
    def test_count_above_its_bound_refused_at_load(self, tmp_path, capsys, monkeypatch, command, path, value):
        # Only the refusal runs here: a count that loads may allocate what it sizes.
        started = []
        for name in ("check_symmetry", "solve_orbit", "run_sweep", "zero_set_scan"):
            monkeypatch.setattr(cli, name, lambda *a, **k: started.append(a))
        cfg = write_config_with(tmp_path / "c.json", path, value)
        assert main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: configuration key '{path}' must be ")
        assert "Traceback" not in err and started == []

    def test_counts_at_their_bounds_load(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", mu_grid={"count": 10_000})
        assert cli.RunConfig.load(cfg).mu_grid["count"] == 10_000
        cfg = write_config(tmp_path / "c.json", scan={"sigma_count": 1_000_000, "mu_count": 1})
        assert cli.RunConfig.load(cfg).scan["sigma_count"] == 1_000_000
        cfg = write_config(tmp_path / "c.json", scan={"sigma_count": 7, "mu_count": 1_000_000 // 7})
        assert cli.RunConfig.load(cfg).scan["mu_count"] == 142_857

    def test_section_must_be_an_object(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", scan=[0.9, 1.1])
        assert main(["sweep", "--config", str(cfg)]) == 1
        assert "'scan'" in capsys.readouterr().err

    def test_every_documented_key_accepted(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            eta=0.1,
            delta=0.2,
            solve_tol=1e-10,
            mu_grid={"stop": 0.01, "count": 3, "mirror": False},
        )
        config = cli.RunConfig.load(cfg)
        assert config.solve_tol == 1e-10 and config.mu == 0.02
        # The README's configuration schema loads as written.
        schema = re.search(r"### Configuration schema\n\n```json\n(.*?)```", README.read_text(), re.S)
        (tmp_path / "readme.json").write_text(schema.group(1))
        config = cli.RunConfig.load(tmp_path / "readme.json")
        assert config.mu == 0.05 and config.mu_grid["count"] == 21


class TestConfigLoading:
    @staticmethod
    def force(field, p, mu):
        return np.array(field.acceleration(float(p[0]), float(p[1]), mu))

    def test_round_trip(self):
        cfg = {
            "kappa": 2.0,
            "alpha": 0.5,
            "perturbation": {
                "kind": "radial_power",
                "params": {"lam": 1.5, "beta": 3.0},
                "symmetries": ["x_axis", "y_axis"],
            },
            "mu_range": 0.3,
            "annulus": [0.4, 2.5],
        }
        f = cli.RunConfig.from_dict({"field": cfg}).field
        assert f.base.kappa == 2.0
        assert f.base.alpha == 0.5
        assert f.mu_range == 0.3
        assert f.annulus == (0.4, 2.5)
        assert f.symmetries == frozenset({Reflection.X_AXIS, Reflection.Y_AXIS})
        assert np.allclose(
            self.force(f, (1.0, 0.0), 0.1), [-2.0 - 0.1 * 1.5, 0.0]
        )

    def test_defaults(self):
        f = cli.RunConfig.from_dict({"field": {"kappa": 1.0, "alpha": 1.0}}).field
        assert f.perturbation.kind == "zero"
        assert f.annulus == (0.5, 2.0)


class TestSweepCommand:
    def test_outputs_and_determinism(self, config_path, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--config", str(config_path), "--out", str(out1)]) == 0
        capsys.readouterr()
        assert main(["sweep", "--config", str(config_path), "--out", str(out2)]) == 0
        for name in ("sweep.csv", "sweep_summary.json", "zero_set.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        lines = (out1 / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "mu,sigma_star,period,closure_residual"
        assert len(lines) == 4  # mu grid 0, 0.005, 0.01
        mus = [float(l.split(",")[0]) for l in lines[1:]]
        assert mus == sorted(mus)

    def test_orbits_validated_with_the_default_samples(self, config_path, monkeypatch, capsys):
        real_validate, counts = continuation.validate_orbit, []

        def validate(orbit, *args):
            counts.append(len(orbit.times) - 1)
            return real_validate(orbit, *args)

        monkeypatch.setattr(continuation, "validate_orbit", validate)
        assert main(["sweep", "--config", str(config_path)]) == 0
        assert counts == [orbit._SAMPLES] * 3  # mu grid 0, 0.005, 0.01

    def test_truncated_sweep_names_the_failure(self, tmp_path, capsys):
        # sigma*(mu) = sqrt(1 + 100 mu) leaves the bracket at mu = 0.005.
        cfg = json.loads(write_config(tmp_path / "c.json").read_text())
        cfg["field"]["perturbation"]["params"]["lam"] = 100.0
        cfg["scan"] = {"sigma_count": 3, "mu_max": 0.0, "mu_count": 1}
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(tmp_path / "c.json"), "--json"]) == 4
        out, err = capsys.readouterr()
        assert json.loads(out)["failure_positive"]["error"] == "BracketFailure"
        assert err == "sweep failed: failure_positive BracketFailure at mu=0.005\n"

    def test_failed_validation_names_the_failing_checks(self, tmp_path, capsys, monkeypatch):
        # Both directions start at mu = +0.0.
        monkeypatch.setattr(orbit, "_SYMMETRY_TOL", 0.0)
        cfg = write_config(tmp_path / "c.json", mu_grid={"stop": 0.01, "count": 3, "mirror": True})
        assert main(["sweep", "--config", str(cfg)]) == 4
        assert capsys.readouterr().err == (
            "sweep failed: failure_positive ValidationFailure at mu=0.0 (symmetry_residuals); "
            "failure_negative ValidationFailure at mu=0.0 (symmetry_residuals)\n"
        )

    def test_mirrored_sweep(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json", mu_grid={"stop": 0.01, "count": 3, "mirror": True}
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["empirical_delta0_positive"] == pytest.approx(0.01)
        assert summary["empirical_delta0_negative"] == pytest.approx(0.01)
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 7  # -0.01..0.01 with 0 listed once per direction
        fields = [f for line in lines[1:] for f in line.split(",")]
        assert "-0" not in fields and "0" in fields and "-0.01" in fields

    def test_failing_scan_refused_before_any_sweep(self, tmp_path, capsys, monkeypatch):
        # On the alpha = 3 half family every launch at the scan's sigma
        # boundaries leaves the annulus: both boundary rows are failed cells.
        # The scan runs first, so the refusal costs no sweep, no validated
        # orbit and no output file.
        started = []
        for module, name in ((cli, "run_sweep"), (continuation, "validate_orbit")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, real=real, name=name, **k: started.append(name) or real(*a, **k))
        cfg = json.loads(write_steep_half_config(tmp_path / "c.json", seed=0).read_text())
        cfg["mu_grid"] = {"stop": 0.005, "count": 3, "mirror": True}
        cfg["scan"] = {"sigma_min": 0.964, "sigma_max": 1.036, "sigma_count": 5, "mu_max": 0.005, "mu_count": 3}
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(tmp_path / "c.json"), "--out", str(out)]) == 5
        captured = capsys.readouterr()
        assert captured.out == "" and started == [] and list(out.iterdir()) == []
        assert re.fullmatch(
            r"BoundaryHypothesisFailure: sigma boundary rows need one nonzero sign each, the two opposite: "
            r"sigma=0.964 row \[0, 0, 0\], sigma=1.036 row \[0, 0, 0\]; first failed cell sigma=0.964, mu=0.0: "
            r"DomainExit: orbit left annulus \[0.5, 2.0\] at t=[0-9.]+\n",
            captured.err,
        )

    @pytest.mark.parametrize("key, sigmas", [("sigma_min", (0.9, 1.04)), ("sigma_max", (0.96, 1.1))])
    def test_scan_outside_speed_band_refused_before_any_sweep(self, tmp_path, capsys, monkeypatch, key, sigmas):
        started = []
        monkeypatch.setattr(cli, "run_sweep", lambda *a, **k: started.append("sweep"))
        monkeypatch.setattr(cli, "zero_set_scan", lambda *a, **k: started.append("scan"))
        scan = {"sigma_min": sigmas[0], "sigma_max": sigmas[1], "sigma_count": 7, "mu_max": 0.01, "mu_count": 3}
        cfg = write_config(tmp_path / "c.json", eta=0.04, delta=0.05, scan=scan)
        assert main(["sweep", "--config", str(cfg)]) == 1
        assert f"configuration key 'scan.{key}' must be" in capsys.readouterr().err
        assert started == []

    @pytest.mark.parametrize("mu_max", [0.6, -0.5])
    def test_scan_outside_mu_range_refused_before_any_sweep(self, tmp_path, capsys, monkeypatch, mu_max):
        started = []
        monkeypatch.setattr(cli, "run_sweep", lambda *a, **k: started.append("sweep"))
        monkeypatch.setattr(cli, "zero_set_scan", lambda *a, **k: started.append("scan"))
        scan = {"sigma_min": 0.95, "sigma_max": 1.05, "sigma_count": 7, "mu_max": mu_max, "mu_count": 3}
        cfg = write_config(tmp_path / "c.json", scan=scan)
        cli.RunConfig.load(cfg)  # a solve reads the same configuration
        assert main(["sweep", "--config", str(cfg)]) == 1
        assert "configuration key 'scan.mu_max' must be" in capsys.readouterr().err
        assert started == []

    def test_broken_symmetry_refused_before_any_sweep(self, tmp_path, capsys, monkeypatch):
        # A constant force declared symmetric about both axes, as `solve` refuses it.
        started = []
        monkeypatch.setattr(cli, "run_sweep", lambda *a, **k: started.append("sweep"))
        monkeypatch.setattr(cli, "zero_set_scan", lambda *a, **k: started.append("scan"))
        pert = {
            "kind": "axis_poly",
            "params": {"cx": 0.0, "px": 0, "cy": 0.1, "py": 0},
            "symmetries": ["x_axis", "y_axis"],
        }
        field = {"kappa": 1.0, "alpha": 1.0, "perturbation": pert, "mu_range": 0.5, "annulus": [0.5, 2.0]}
        cfg = write_config(tmp_path / "c.json", field=field)
        assert main(["solve", "--config", str(cfg)]) == 4
        assert "SymmetryViolation" in capsys.readouterr().err
        assert main(["sweep", "--config", str(cfg)]) == 4
        assert "SymmetryViolation" in capsys.readouterr().err
        assert started == []

    def test_zero_set_csv_shape(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        main(["sweep", "--config", str(config_path), "--out", str(out)])
        lines = (out / "zero_set.csv").read_text().strip().splitlines()
        assert len(lines) == 8  # header + 7 sigma rows
        assert lines[0].startswith("sigma,")
        cells = lines[1].split(",")
        assert len(cells) == 4  # sigma + 3 mu columns
        assert set(c for c in cells[1:]) <= {"-1", "0", "1"}


class TestAnalyzeCommand:
    def test_kepler_ellipse(self, config_path, capsys):
        code = main(["analyze", "--config", str(config_path), "--sigma", "1.1", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["Phi"] == pytest.approx(math.pi, abs=1e-6)
        assert payload["r_min"] == pytest.approx(1.0)
        assert payload["circular"] is False
        kinds = [a["kind"] for a in payload["apsides"]]
        assert kinds[0] == "pericenter"

    def test_retrograde_launch(self, config_path, capsys):
        # The mirror image of the +1.05 launch: the same level set, K negated.
        payloads = []
        for sigma in ("1.05", "-1.05"):
            assert main(["analyze", "--config", str(config_path), "--sigma", sigma, "--json"]) == 0
            payloads.append(json.loads(capsys.readouterr().out))
        prograde, retrograde = payloads
        assert retrograde["K"] == -prograde["K"]
        assert retrograde["r_max"] == prograde["r_max"] == pytest.approx(1.2284122562674094, abs=1e-12)
        assert retrograde["circular"] is False
        assert [a["kind"] for a in retrograde["apsides"]] == ["pericenter", "apocenter"]

    @pytest.mark.parametrize("sigma", [0.95, 1.1])
    def test_prints_the_apsides_rows(self, config_path, capsys, sigma):
        # The printed rows are apsides' own, read back to the same floats.
        assert main(["analyze", "--config", str(config_path), "--sigma", str(sigma), "--json"]) == 0
        printed = json.loads(capsys.readouterr().out)["apsides"]
        config = cli.RunConfig.load(config_path)
        traj = cli._one_period(config, sigma, circular_speed(config.field.base, config.radius))
        assert printed == analysis.apsides(traj) and len(printed) >= 2

    def test_circular_flag(self, config_path, capsys):
        assert main(["analyze", "--config", str(config_path), "--sigma", "1.0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["circular"] is True
        assert payload["Phi"] == payload["Phi_limit"]

    @pytest.mark.parametrize("flag", ["--sigma"])
    def test_non_finite_flag_rejected(self, config_path, capsys, flag):
        argv = ["analyze", "--config", str(config_path), "--sigma", "1.0", flag, "nan"]
        assert main(argv) == 1
        assert f"{flag} must be finite" in capsys.readouterr().err

    def test_radial_launch_is_no_bounded_motion(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"field": {"kappa": 1.0, "alpha": 1.0}}))
        assert main(["analyze", "--config", str(cfg), "--sigma", "0"]) == 5
        assert "NoBoundedMotion" in capsys.readouterr().err

    def test_launch_past_escape_speed_is_no_bounded_motion(self, tmp_path, capsys):
        # At alpha = 1.99 the escape speed is sqrt(2 / alpha) = 1.0025 circular
        # speeds, so sigma = 1.01 has E > 0 although alpha < 2.
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"field": {"kappa": 1.0, "alpha": 1.99}}))
        assert main(["analyze", "--config", str(cfg), "--sigma", "1.01"]) == 5
        err = capsys.readouterr().err
        assert err.startswith("NoBoundedMotion") and "E=" in err

    def test_nonzero_mu_rejected(self, config_path):
        assert (
            main(["analyze", "--config", str(config_path), "--sigma", "1.0", "--mu", "0.1"]) == 1
        )

    def test_mu_is_no_analyze_flag(self, config_path, capsys):
        # analyze covers the unperturbed problem only, so even --mu 0 is a
        # usage error.
        assert main(["analyze", "--config", str(config_path), "--sigma", "1.0", "--mu", "0"]) == 1
        assert "unrecognized arguments: --mu 0" in capsys.readouterr().err


def write_steep_half_config(path, seed):
    # The alpha = 3 half family: miss is undefined near sigma = 1.02 beyond
    # mu ~ 0.024, hence the narrow eta.
    return write_config(
        path,
        field={
            "kappa": 1.0,
            "alpha": 3.0,
            "perturbation": {
                "kind": "axis_poly",
                "params": {"cx": 1.0, "px": 2, "cy": 1.0, "py": 3},
                "symmetries": ["x_axis"],
            },
            "mu_range": 0.5,
            "annulus": [0.5, 2.0],
        },
        mode="half",
        eta=0.04,
        mu=0.005,
        seed=seed,
    )


class TestVerifyCommand:
    def test_default_config_passes(self, config_path, capsys):
        assert main(["verify", "--config", str(config_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        names = {c["name"] for c in payload["checks"]}
        assert names == {"symmetry", "crossing_continuity", "conservation", "orbit"}

    def test_broken_symmetry_fails_named_check(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "broken.json",
            field={
                "kappa": 1.0,
                "alpha": 1.0,
                "perturbation": {
                    "kind": "axis_poly",
                    "params": {"cx": 0.0, "px": 0, "cy": 0.1, "py": 0},
                    "symmetries": ["x_axis", "y_axis"],
                },
                "mu_range": 0.5,
                "annulus": [0.5, 2.0],
            },
        )
        code = main(["verify", "--config", str(cfg), "--json"])
        assert code == 4
        payload = json.loads(capsys.readouterr().out)
        failing = [c["name"] for c in payload["checks"] if not c["passed"]]
        assert "symmetry" in failing

    def test_orbit_step_failure_fails_its_check(self, tmp_path, capsys):
        # radius 1e100 is a valid launch at alpha = 0.5 (U'' = -1.5e-250), but
        # the flow's first step underflows at this scale: the orbit check
        # fails with solve's StepFailure named, and the other checks still run.
        cfg = tmp_path / "c.json"
        field = {"kappa": 1.0, "alpha": 0.5, "annulus": [0.5, 1e250]}
        cfg.write_text(json.dumps({"field": field, "radius": 1e100, "mode": "half"}))
        assert main(["verify", "--config", str(cfg), "--json"]) == 4
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert len(checks) == 4 and checks["symmetry"]["passed"]
        assert checks["orbit"]["detail"] == {
            "error": "StepFailure",
            "message": "step size underflow at t=0.0 (h=9.999999999999999e-05)",
        }
        assert main(["solve", "--config", str(cfg)]) == 5
        assert main(["analyze", "--config", str(cfg), "--sigma", "1.05"]) == 5
        # analyze's level set is the unit one, scaled; like solve, it fails in
        # the flow.
        assert capsys.readouterr().err.count("StepFailure: step size underflow at t=0.0") == 2

    @pytest.mark.parametrize("radius", [1e-3, 1e-2, 1.0, 1e4, 1e6])
    def test_orbit_check_answers_as_solve_does(self, tmp_path, capsys, radius):
        # Quarter radial_power with lam = R^2: the same circle at every R,
        # scaled. Away from R = 1 solve fails on its absolute tolerances
        # (NonConvergence below, symmetry residuals above); verify fails
        # exactly when solve does, its orbit check with solve's error.
        cfg = tmp_path / "c.json"
        perturbation = {"kind": "radial_power", "params": {"lam": radius**2, "beta": 3.0}, "symmetries": ["x_axis", "y_axis"]}
        field = {"kappa": 1.0, "alpha": 1.0, "perturbation": perturbation, "annulus": [0.5 * radius, 2.0 * radius]}
        cfg.write_text(json.dumps({"field": field, "radius": radius, "solve_tol": 1e-10, "mu": 0.05}))
        solved = main(["solve", "--config", str(cfg)])
        err = capsys.readouterr().err
        verified = main(["verify", "--config", str(cfg), "--json"])
        orbit = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}["orbit"]
        assert (verified == 0) == (solved == 0) == orbit["passed"]
        if solved == cli.EXIT_VALIDATION:
            failed = ", ".join(orbit["detail"]["failed_checks"])
            assert err == f"solve failed: ValidationFailure at mu=0.05 ({failed})\n"
        elif solved != 0:
            assert err == f"{orbit['detail']['error']}: {orbit['detail']['message']}\n"

    def test_plain_output_lines(self, config_path, capsys):
        assert main(["verify", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4

    # Seeds whose continuity probes drew mu past the family's range (NoCrossing)
    # while mu was capped only by 0.05 and half the mu range.
    @pytest.mark.parametrize("seed", [0, 5, 13])
    def test_steep_force_continuity_probes_stay_in_range(self, tmp_path, capsys, seed):
        cfg = write_steep_half_config(tmp_path / "a3.json", seed)
        assert main(["verify", "--config", str(cfg), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        check = {c["name"]: c for c in payload["checks"]}["crossing_continuity"]
        assert check["passed"] is True
        assert all(0.0 <= p["mu"] <= 0.02 for p in check["detail"])

    def test_quarter_continuity_probes_unchanged(self, config_path, capsys):
        assert main(["verify", "--config", str(config_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        check = {c["name"]: c for c in payload["checks"]}["crossing_continuity"]
        drawn = [(p["sigma"], p["mu"]) for p in check["detail"]]
        assert drawn == [
            (1.0136961687321455, 0.013489335688193516),
            (0.9540973523936195, 0.0008263817764264548),
            (1.0313270239200272, 0.04563777886388609),
        ]

    def test_continuity_probes_stay_in_a_narrow_speed_band(self, tmp_path, capsys):
        # eta / 2 + 1e-3 exceeds delta: sigma is drawn from 1 +- (delta - 1e-3 -
        # 1e-15), so every probe sigma + h lies in (1 - delta, 1 + delta).
        cfg = tmp_path / "narrow.json"
        cfg.write_text(json.dumps({"field": {"kappa": 1.0, "alpha": 1.0}, "eta": 0.001, "delta": 0.0011}))
        assert main(["verify", "--config", str(cfg), "--json"]) == 0
        check = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}["crossing_continuity"]
        assert check["passed"] is True
        assert all(abs(p["sigma"] - 1.0) <= 1e-4 for p in check["detail"])

    def test_speed_band_narrower_than_the_probe_step_fails_the_check(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "narrower.json",
            field={
                "kappa": 1.0,
                "alpha": 0.5,
                "perturbation": {
                    "kind": "axis_poly",
                    "params": {"cx": 1.0, "px": 2, "cy": 1.0, "py": 3},
                    "symmetries": ["x_axis"],
                },
            },
            mode="half",
            eta=1e-6,
            delta=2e-6,
        )
        assert main(["verify", "--config", str(cfg), "--json"]) == 4
        out, err = capsys.readouterr()
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert [name for name, c in checks.items() if not c["passed"]] == ["crossing_continuity", "orbit"]
        assert "narrower than the probe step 1e-3" in checks["crossing_continuity"]["detail"]["message"]
        # At mu = 0.02 sigma* leaves the bracket of half-width eta = 1e-6:
        # the orbit check fails as solve does.
        assert checks["orbit"]["detail"]["error"] == "BracketFailure"
        assert err == "failing checks: crossing_continuity, orbit\n"

    def test_continuity_probe_error_fails_the_check(self, config_path, capsys, monkeypatch):
        def no_crossing(*args, **kwargs):
            raise NoCrossing("forced")

        monkeypatch.setattr(cli, "crossing_time_deviation", no_crossing)
        assert main(["verify", "--config", str(config_path), "--json"]) == 4
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is False
        check = {c["name"]: c for c in payload["checks"]}["crossing_continuity"]
        assert check["passed"] is False
        assert check["detail"]["error"] == "NoCrossing"


def _per_state_drifts(params, traj, v0):
    """The conservation drifts from one `State` per sample time, through
    analysis.energy and angular_momentum."""
    ts = np.linspace(0.0, traj.t_end, 256)
    states = [State(t=t, position=y[:2], velocity=y[2:]) for t, y in zip(ts, traj.eval_many(ts))]
    h0, k0 = analysis.energy(params, states[0]), analysis.angular_momentum(states[0])
    scale_h = max(abs(h0), 0.5 * v0 * v0)
    drift_h = max(abs(analysis.energy(params, s) - h0) for s in states) / scale_h
    drift_k = max(abs(analysis.angular_momentum(s) - k0) for s in states) / abs(k0)
    return drift_h, drift_k


def _launch_flow(params, sigma):
    """The conservation check's flow from (1, 0): one period of the circular
    orbit at sigma times its speed, cut where it leaves the annulus."""
    field = ForceField(base=params, perturbation=zero_perturbation())
    v0 = circular_speed(params, 1.0)
    try:
        return flow(field, 0.0, (1.0, 0.0), (0.0, sigma * v0), 2.0 * math.pi / v0), v0, False
    except DomainExit as exc:
        return exc.trajectory, v0, True


class TestConservation:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
    def test_array_drifts_equal_the_per_state_ones_bit_for_bit(self, alpha):
        params = PowerLawParams(1.0, alpha)
        exits = []
        for sigma in [*np.linspace(0.9, 1.1, 15).tolist(), 1.01]:
            traj, v0, exited = _launch_flow(params, sigma)
            exits.append(exited)
            assert cli._conservation_drifts(params, traj, v0) == _per_state_drifts(params, traj, v0), sigma
        if alpha == 3.0:
            assert exits[-1]  # sigma = 1.01 leaves the annulus: a span that DomainExit cut short

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
    def test_check_reports_the_per_state_drifts(self, tmp_path, alpha):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"field": {"kappa": 1.0, "alpha": alpha}, "mode": "quarter" if alpha == 1.0 else "half"}))
        config = cli.RunConfig.load(cfg)
        _, detail = cli._check_conservation(config, config.problem())
        traj, v0, exited = _launch_flow(config.field.base, 1.05 if alpha < 2.0 else 1.01)
        assert (detail["energy_drift"], detail["momentum_drift"]) == _per_state_drifts(config.field.base, traj, v0)
        assert detail["span"] == traj.t_end
        assert exited == (alpha == 3.0)


class TestUsage:
    def test_usage_error_is_config_class(self, config_path, capsys):
        # "-inf" as a separate argument reads as an unknown option.
        assert main(["solve", "--config", str(config_path), "--mu", "-inf"]) == 1
        assert "expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-5e-3", "-1e-2", "-5E-3", "-0.5e-2"])
    def test_negative_mu_in_exponent_form(self, config_path, capsys, value):
        # argparse alone reads -5e-3 as an option and leaves --mu without a value.
        assert main(["solve", "--config", str(config_path), "--mu", value, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["mu"] == float(value)

    @pytest.mark.parametrize("flag", ["--sigma", "--sig"])
    def test_negative_sigma_in_exponent_form(self, config_path, capsys, flag):
        assert main(["analyze", "--config", str(config_path), flag, "-1.05e0", "--json"]) == 0
        by_word = json.loads(capsys.readouterr().out)
        assert main(["analyze", "--config", str(config_path), "--sigma=-1.05", "--json"]) == 0
        assert by_word == json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("argv", [["--mu"], ["--mu", "--json"], ["--mu", "-x1e-3"]], ids=str)
    def test_missing_value_stays_a_usage_error(self, config_path, capsys, argv):
        assert main(["solve", "--config", str(config_path), *argv]) == 1
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, error",
        [(["--mu", "-nan"], "expected one argument"), (["--mu=-inf"], "--mu must be finite"), (["--mu", "nan"], "--mu must be finite")],
        ids=str,
    )
    def test_non_finite_values_stay_refused(self, config_path, capsys, argv, error):
        assert main(["solve", "--config", str(config_path), *argv]) == 1
        assert error in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert main(["solve"]) == 1
        assert "--config" in capsys.readouterr().err

    def test_help_exits_ok(self, capsys):
        assert main(["solve", "--help"]) == 0
        assert "usage:" in capsys.readouterr().out

    def test_repeated_calls_print_what_a_new_parser_prints(self, config_path, capsys, monkeypatch):
        # main builds its parser once per process: help, usage errors and exit
        # codes read the same on every call, and as they do from a parser
        # built for the call.
        argvs = [
            ["--help"],
            ["solve", "--help"],
            [],
            ["solve"],
            ["bogus"],
            ["analyze", "--config", str(config_path)],
            ["solve", "--config", str(config_path), "--mu", "-inf"],
            ["verify", "--config", str(config_path), "--sigma", "1.0"],
        ]

        def run_all():
            out = []
            for argv in argvs:
                code = main(argv)
                out.append((code, *capsys.readouterr()))
            return out

        first = run_all()
        assert run_all() == first
        monkeypatch.setattr(cli, "_parser", cli._parser.__wrapped__)  # a new parser per call
        assert run_all() == first
        assert [code for code, _, _ in first] == [0, 0, 1, 1, 1, 1, 1, 1]
