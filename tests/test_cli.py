"""Command-line interface: output schemas, exit codes, determinism."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from fracperim import cli
from fracperim.cli import main
from fracperim.cylinder import SubgraphSet
from fracperim.grid import (
    GridSpec,
    ScalarField,
    cellset_from_shape,
    read_grid_file,
    write_grid_file,
)
from fracperim.kernel import InteractionTable
from tests.conftest import cli_output_bytes


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def ball_grid(tmp_path):
    spec = GridSpec(2, (0.0, 0.0), (16, 16), 1.0 / 16)
    E = cellset_from_shape(
        spec, {"shape": "ball", "center": [0.5, 0.5], "radius": 0.3}
    )
    path = tmp_path / "ball.fracgrid"
    write_grid_file(path, E)
    return str(path)


class TestCompute:
    def test_json_schema(self, runner):
        res = runner.invoke(main, [
            "compute", "--s", "0.5",
            "--shape", '{"shape": "ball", "center": [0.5, 0.5], "radius": 0.3}',
            "--extent", "8,8", "--h", "0.125",
        ])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert set(doc) == {
            "s", "local", "nonlocal", "total", "truncation_error_bound",
            "degenerate",
        }
        assert doc["total"] == pytest.approx(doc["local"] + doc["nonlocal"])
        assert not doc["degenerate"]

    def test_rejects_s_outside_unit_interval(self, runner):
        res = runner.invoke(main, [
            "compute", "--s", "1.5",
            "--shape", '{"shape": "full"}', "--extent", "4,4",
        ])
        assert res.exit_code == 1

    def test_requires_grid_or_shape(self, runner):
        res = runner.invoke(main, ["compute", "--s", "0.5"])
        assert res.exit_code == 1

    @pytest.mark.parametrize("args", [
        ["compute", "--s", "0.5", "--shape", '{"shape": "full"}'],
        ["minimize", "--s", "0.5", "--exterior", '{"shape": "empty"}',
         "--omega", '{"shape": "full"}'],
    ], ids=["compute", "minimize"])
    def test_shape_requires_extent(self, runner, args):
        res = runner.invoke(main, args)
        assert res.exit_code == 1
        assert json.loads(res.stderr)["error"] == "config"

    def test_missing_shape_key_is_invalid_shape(self, runner):
        res = runner.invoke(main, [
            "compute", "--s", "0.5", "--shape", '{"shape": "ball", "center": [0.5, 0.5]}',
            "--extent", "8,8", "--h", "0.125",
        ])
        assert res.exit_code == 1
        assert json.loads(res.stderr)["kind"] == "InvalidShape"

    @pytest.mark.parametrize("shape,kind", [
        ('{"shape": "ball", "center": [0.5], "radius": 0.2}', "InvalidShape"),
        ('{"shape": "ball", "center": [0.5, 0.5], "radius": -0.2}', "InvalidRadius"),
        ('{"shape": "ball", "center": [0.5, 0.5], "radius": null}', "InvalidShape"),
        ('{"shape": "subgraph", "heights": 3}', "InvalidShape"),
        ('{"shape": "halfspace", "axis": 5, "level": 0.5}', "InvalidShape"),
        ('{"shape": "halfspace", "axis": -1, "level": 0.5}', "InvalidShape"),
        ('{"shape": "ball", "center": [0.5, 0.5], "radius": "inf"}', "InvalidRadius"),
        ('{"shape": "ball", "center": [0.5, 0.5], "radius": 1e999}', "InvalidRadius"),
        ('{"shape": "ball", "center": [NaN, 0.5], "radius": 0.2}', "InvalidShape"),
        ('{"shape": "halfspace", "axis": 1.7, "level": 0.5}', "InvalidShape"),
        ('{"shape": "halfspace", "axis": true, "level": 0.5}', "InvalidShape"),
        ('{"shape": "halfspace", "axis": 0, "level": NaN}', "InvalidShape"),
    ], ids=["short-center", "negative-radius", "null-radius", "int-heights",
            "axis-beyond", "axis-negative", "inf-radius", "overflow-radius",
            "nan-center", "float-axis", "bool-axis", "nan-level"])
    def test_bad_shape_value_is_a_diagnostic(self, runner, shape, kind):
        res = runner.invoke(main, ["compute", "--s", "0.5", "--shape", shape,
                                   "--extent", "4,4", "--h", "0.25"])
        assert res.exit_code == 1
        assert res.stdout == ""
        assert json.loads(res.stderr)["kind"] == kind

    @pytest.mark.parametrize("level,total", [("Infinity", 0.0), ("-Infinity", 0.0)])
    def test_infinite_half_space_level_is_valid(self, runner, level, total):
        # H is the whole lattice or empty, so the full or empty box has no boundary
        res = runner.invoke(main, ["compute", "--s", "0.5", "--shape",
                                   f'{{"shape": "halfspace", "axis": 0, "level": {level}}}',
                                   "--extent", "4,4", "--h", "0.25"])
        assert res.exit_code == 0, res.output
        assert json.loads(res.stdout)["total"] == total

    def test_malformed_grid_header(self, runner, tmp_path):
        path = tmp_path / "short.fracgrid"
        path.write_text("fracgrid 2 4\n")
        res = runner.invoke(main, ["compute", "--s", "0.5", "--grid", str(path)])
        assert res.exit_code == 1
        assert json.loads(res.stderr)["kind"] == "InvalidShape"

    @pytest.mark.parametrize("radius", ["-0.1", "nan", "inf"])
    def test_rejects_bad_truncation_radius(self, runner, radius):
        res = runner.invoke(main, [
            "compute", "--s", "0.5", "--shape", '{"shape": "full"}',
            "--extent", "4,4", "--policy", f"truncate:{radius}",
        ])
        assert res.exit_code == 1
        assert json.loads(res.stderr)["kind"] == "InvalidRadius"

    @pytest.mark.parametrize("doc", [
        {"shape": "halfspace", "axis": 0, "offset": 0.5},
        {"shape": "ball", "center": [0.5, 0.5], "radius": 0.3, "radus": 9},
        {"shape": "full", "level": 0.5},
        {"complement": {"shape": "full"}, "shape": "empty"},
        {"union": [{"shape": "empty", "center": [0.5, 0.5]}]},
    ])
    def test_rejects_unknown_shape_keys(self, runner, doc):
        # a misspelt key would otherwise run as the kind's default
        res = runner.invoke(main, [
            "compute", "--s", "0.5", "--shape", json.dumps(doc),
            "--extent", "8,8", "--h", "0.125",
        ])
        assert res.exit_code == 1
        assert json.loads(res.stderr)["kind"] == "InvalidShape"

    def test_grid_file_input(self, runner, ball_grid):
        res = runner.invoke(main, [
            "compute", "--s", "0.5", "--grid", ball_grid,
            "--policy", "truncate:0.5",
        ])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert doc["total"] > 0


class TestApprox:
    def test_rows_and_containment(self, runner, ball_grid, tmp_path):
        out = tmp_path / "approx.csv"
        res = runner.invoke(main, [
            "approx", "--s", "0.5", "--grid", ball_grid,
            "--eps", "0.25,0.125,0.0625", "--policy", "truncate:0.5",
            "--output", str(out),
        ])
        assert res.exit_code == 0, res.output
        lines = out.read_text().strip().splitlines()
        header = [ln for ln in lines if not ln.startswith("#")][0]
        assert header == "eps,threshold,perimeter,boundary_in_neighborhood"
        rows = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]
        assert len(rows) == 3
        assert all(r[3] == "1" for r in rows)

    @pytest.mark.parametrize("eps", ["inf", "nan", "inf,0.25"])
    def test_non_finite_eps_is_a_diagnostic(self, runner, ball_grid, eps):
        res = runner.invoke(main, ["approx", "--s", "0.5", "--grid", ball_grid,
                                   "--eps", eps])
        assert res.exit_code == 1
        assert res.stdout == ""
        assert json.loads(res.stderr)["kind"] == "InvalidRadius"


class TestMinimize:
    def test_oracle_agreement(self, runner, tmp_path):
        out_grid = tmp_path / "min.fracgrid"
        res = runner.invoke(main, [
            "minimize", "--s", "0.5",
            "--exterior", '{"shape": "halfspace", "axis": 0, "level": 0.5}',
            "--extent", "8", "--h", "0.125",
            "--omega", '{"shape": "ball", "center": [0.5], "radius": 0.2}',
            "--oracle", "--out-grid", str(out_grid),
        ])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert doc["oracle_ok"]
        assert doc["energy"] <= doc["oracle_energy"] + 1e-9 * (
            1 + abs(doc["oracle_energy"])
        )
        saved = read_grid_file(out_grid)
        assert saved.spec.extent == (8,)

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_tol_not_at_least_zero_is_a_diagnostic(self, runner, tol):
        res = runner.invoke(main, [
            "minimize", "--s", "0.5",
            "--exterior", '{"shape": "halfspace", "axis": 0, "level": 0.5}',
            "--extent", "8", "--h", "0.125",
            "--omega", '{"shape": "ball", "center": [0.5], "radius": 0.2}',
            "--tol", tol,
        ])
        assert res.exit_code == 1
        assert res.stdout == ""
        assert json.loads(res.stderr)["kind"] == "InvalidTolerance"

    def test_infinite_tol_is_valid(self, runner):
        res = runner.invoke(main, [
            "minimize", "--s", "0.5",
            "--exterior", '{"shape": "halfspace", "axis": 0, "level": 0.5}',
            "--extent", "8", "--h", "0.125",
            "--omega", '{"shape": "ball", "center": [0.5], "radius": 0.2}',
            "--tol", "inf",
        ])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["gap"] >= 0.0

    def test_rejects_unknown_window_keys(self, runner):
        res = runner.invoke(main, [
            "minimize", "--s", "0.5",
            "--exterior", '{"shape": "halfspace", "axis": 0, "level": 0.5}',
            "--extent", "8", "--h", "0.125",
            "--omega", '{"shape": "ball", "centre": [0.5], "radius": 0.2}',
        ])
        assert res.exit_code == 1
        assert json.loads(res.stderr)["kind"] == "InvalidShape"


class TestIdentityChecks:
    def test_coarea(self, runner):
        res = runner.invoke(main, [
            "coarea-check", "--s", "0.5", "--extent", "8,8", "--h", "0.125",
            "--policy", "truncate:0.5",
        ])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert doc["residual"] <= 1e-10

    @pytest.mark.parametrize("levels", ["0", "-3"])
    def test_coarea_levels_below_one_is_a_diagnostic(self, runner, levels):
        res = runner.invoke(main, [
            "coarea-check", "--s", "0.5", "--extent", "8,8", "--h", "0.125",
            "--levels", levels,
        ])
        assert res.exit_code == 1
        assert res.stdout == ""
        diag = json.loads(res.stderr)
        assert diag["kind"] == "ValueError"
        assert "--levels" in diag["message"]

    @pytest.mark.parametrize("tol", ["nan", "-1e-10"])
    def test_coarea_tol_not_at_least_zero_is_a_diagnostic(self, runner, tol):
        res = runner.invoke(main, [
            "coarea-check", "--s", "0.5", "--extent", "8,8", "--h", "0.125",
            "--tol", tol,
        ])
        assert res.exit_code == 1
        assert res.stdout == ""
        assert json.loads(res.stderr)["kind"] == "InvalidTolerance"

    @pytest.mark.parametrize("tol", ["nan", "-1e-10"])
    def test_decomposition_tol_not_at_least_zero_is_a_diagnostic(self, runner, ball_grid,
                                                                  tol):
        res = runner.invoke(main, [
            "decomposition-check", "--s", "0.5", "--grid", ball_grid,
            "--inner", '{"shape": "ball", "center": [0.5, 0.5], "radius": 0.2}',
            "--outer", '{"shape": "ball", "center": [0.5, 0.5], "radius": 0.45}',
            "--tol", tol,
        ])
        assert res.exit_code == 1
        assert res.stdout == ""
        assert json.loads(res.stderr)["kind"] == "InvalidTolerance"

    def test_decomposition(self, runner, ball_grid):
        res = runner.invoke(main, [
            "decomposition-check", "--s", "0.5", "--grid", ball_grid,
            "--inner", '{"shape": "ball", "center": [0.5, 0.5], "radius": 0.2}',
            "--outer", '{"shape": "ball", "center": [0.5, 0.5], "radius": 0.45}',
            "--policy", "truncate:0.5",
        ])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert doc["relative"] <= 1e-10


class TestScans:
    def test_strip_scan_reports_exponents(self, runner, tmp_path):
        out = tmp_path / "strip.csv"
        res = runner.invoke(main, [
            "strip-scan", "--s", "0.5", "--strip-cells", "4",
            "--deltas", "0.25,0.125", "--output", str(out),
        ])
        # the property gate may trip on the exponent fit; the data must
        # still be emitted in full either way
        assert res.exit_code in (0, 2), res.output
        text = out.read_text()
        assert "fitted_exponent" in text
        data = [ln for ln in text.splitlines()
                if ln and not ln.startswith("#")][1:]
        assert len(data) == 2

    @staticmethod
    def _synthetic_strip(monkeypatch, svals, deltas, offset):
        """Replace the strip interactions by A delta^p + B delta rows with
        p = 1 - s + offset, in the CLI's job order (s-major)."""
        values = iter([
            28.0 * d ** (1.0 - s + offset) - 1.06 * 28.0 * d
            for s in svals for d in deltas
        ])
        monkeypatch.setattr(cli, "build_table", lambda spec, params, max_offset: (
            InteractionTable(spec, params, max_offset,
                             np.zeros((2 * max_offset + 1,) * spec.dim))))
        monkeypatch.setattr(cli, "interaction", lambda *a: next(values))

    @staticmethod
    def _fitted(output):
        return [float(ln.split(":")[1]) for ln in output.splitlines()
                if ln.startswith("# fitted_exponent")]

    def test_strip_gate_accepts_exact_exponent(self, runner, monkeypatch):
        deltas = [0.25, 0.125, 0.0625, 0.03125]
        self._synthetic_strip(monkeypatch, [0.3, 0.7], deltas, 0.0)
        res = runner.invoke(main, [
            "strip-scan", "--s", "0.3,0.7", "--strip-cells", "1",
            "--deltas", "0.25,0.125,0.0625,0.03125",
        ])
        assert res.exit_code == 0, res.output
        assert self._fitted(res.output) == pytest.approx([0.7, 0.3], abs=1e-10)

    @pytest.mark.parametrize("offset", [0.2, -0.2])
    def test_strip_gate_trips_on_wrong_exponent(self, runner, monkeypatch,
                                                offset):
        deltas = [0.25, 0.125, 0.0625, 0.03125]
        self._synthetic_strip(monkeypatch, [0.5], deltas, offset)
        res = runner.invoke(main, [
            "strip-scan", "--s", "0.5", "--strip-cells", "1",
            "--deltas", "0.25,0.125,0.0625,0.03125",
        ])
        assert res.exit_code == 2, res.output
        assert self._fitted(res.output) == pytest.approx([0.5 + offset],
                                                         abs=1e-10)

    def test_strip_scan_rejects_non_geometric_deltas(self, runner,
                                                     monkeypatch):
        self._synthetic_strip(monkeypatch, [0.5], [0.25, 0.125, 0.1], 0.0)
        res = runner.invoke(main, [
            "strip-scan", "--s", "0.5", "--deltas", "0.25,0.125,0.1",
        ])
        assert res.exit_code == 1, res.output
        assert "geometric" in res.output

    def test_cylinder_scan_slope(self, runner, tmp_path):
        out = tmp_path / "cyl.csv"
        res = runner.invoke(main, [
            "cylinder-scan", "--s", "0.5",
            "--t-schedule", "2,4,8,16,32,64,128",
            "--output", str(out),
        ])
        assert res.exit_code == 0, res.output
        text = out.read_text()
        assert "fitted_slope" in text

    def test_sector_scan(self, runner):
        res = runner.invoke(main, [
            "sector-scan", "--s", "0.5", "--sigma", "0.5",
            "--t-schedule", "2,4,8,16,32,64,128",
        ])
        assert res.exit_code == 0, res.output
        assert "T,lower_bound,value" in res.output

    def test_davila_scan_rows(self, runner):
        res = runner.invoke(main, [
            "davila-scan", "--s-schedule", "0.9", "--n-schedule", "8",
        ])
        assert res.exit_code == 0, res.output
        lines = [ln for ln in res.output.splitlines() if not ln.startswith("#")]
        assert lines[0] == "s,h,scaled_local,classical,ratio"
        assert len(lines) == 2

    def test_diverge_1d_values_increase(self, runner):
        res = runner.invoke(main, [
            "diverge-1d", "--s", "0.5", "--m-schedule", "8,16,32",
        ])
        assert res.exit_code == 0, res.output
        rows = [ln.split(",") for ln in res.output.splitlines()
                if ln and not ln.startswith("#")][1:]
        vals = [float(r[1]) for r in rows]
        assert vals == sorted(vals)

    @pytest.mark.parametrize("args,flag", [
        (["diverge-1d", "--s", "0"], "(0, 1)"),
        (["diverge-1d", "--s", "1"], "(0, 1)"),
        (["diverge-1d", "--s", "1.2"], "(0, 1)"),
        (["diverge-1d", "--s", "-0.5", "--m-schedule", "8"], "(0, 1)"),
        (["davila-scan", "--n-schedule", "8,0"], "--n-schedule"),
        (["strip-scan", "--strip-cells", "0"], "--strip-cells"),
        (["strip-scan", "--strip-cells", "-3"], "--strip-cells"),
        (["strip-scan", "--s", "0.5", "--deltas", "0.6,0.3,0.15"], "--deltas"),
        (["strip-scan", "--deltas", "1.2,0.6"], "--deltas"),
        (["strip-scan", "--deltas", "0.5,0.25,0.125"], "--deltas"),
    ], ids=["diverge-s0", "diverge-s1", "diverge-s1.2", "diverge-s-neg", "davila-n0",
            "strip-cells0", "strip-cells-neg", "strip-delta0.6", "strip-delta1.2",
            "strip-delta-half"])
    def test_bad_scan_parameter_is_a_diagnostic(self, runner, args, flag):
        res = runner.invoke(main, args)
        assert res.exit_code == 1
        assert res.stdout == ""
        diag = json.loads(res.stderr)
        assert diag["kind"] == "ValueError"
        assert flag in diag["message"]


class TestConfinement:
    def test_flat_graph(self, runner, tmp_path):
        base = GridSpec(1, (0.0,), (8,), 0.25)
        u = ScalarField(base, np.zeros(8), 0.0)
        sg = SubgraphSet(base, u, 2.0)
        path = tmp_path / "slab.fracgrid"
        write_grid_file(path, sg.cellset())
        res = runner.invoke(main, [
            "confinement", "--grid", str(path), "--base-extent", "8",
        ])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert doc["measured_M"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("dim,base_extent", [(2, "8"), (2, "16,16"), (1, "8")])
    def test_base_extent_mismatch_is_a_config_error(self, runner, tmp_path, dim,
                                                    base_extent):
        spec = GridSpec(dim, (0.0,) * dim, (16,) * dim, 1.0 / 16)
        path = tmp_path / "full.fracgrid"
        write_grid_file(path, cellset_from_shape(spec, {"shape": "full"}))
        res = runner.invoke(main, [
            "confinement", "--grid", str(path), "--base-extent", base_extent,
        ])
        assert res.exit_code == 1, res.output
        assert json.loads(res.output)["kind"] == "SpecMismatch"


class TestDeterminism:
    def test_hash_seed_does_not_change_bytes(self, tmp_path):
        args = ["strip-scan", "--s", "0.3,0.5", "--strip-cells", "4",
                "--deltas", "0.25,0.125"]
        outs = [cli_output_bytes(args, tmp_path / f"{seed}.csv", seed) for seed in (0, 1)]
        assert outs[0] == outs[1]
