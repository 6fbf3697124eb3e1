"""Tests for the command-line interface: reports, exit codes, determinism."""

import json
import math

import numpy as np
import pytest

from reuleaux.cli import main
from reuleaux.formulas import AnglePair, reuleaux_volume_term
from reuleaux.mesh import import_obj, import_ply
from reuleaux.polyhedron import tetra_points


def run(argv):
    return main(argv)


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestValidate:
    def test_tetra_exits_zero_with_six_pairs(self, tmp_path):
        out = tmp_path / "v.json"
        assert run(["validate", "generator:tetra", "--json", str(out)]) == 0
        data = load(out)
        assert data["extremality"]["is_extremal"]
        assert data["extremality"]["diametric_pair_count"] == 6

    def test_non_extremal_file_exits_two(self, tmp_path, capsys):
        geo = tmp_path / "square.json"
        geo.write_text(json.dumps({"points": [[0, 0, 0], [1, 0, 0], [1, 1, 0],
                                              [0, 1, 0]]}))
        assert run(["validate", str(geo)]) == 2
        report = json.loads(capsys.readouterr().out)
        assert not report["extremality"]["is_extremal"]
        assert report["extremality"]["violations"]

    def test_analyze_non_extremal_exits_two_with_error(self, tmp_path, capsys):
        geo = tmp_path / "square.json"
        geo.write_text(json.dumps({"points": [[0, 0, 0], [1, 0, 0], [1, 1, 0],
                                              [0, 1, 0]]}))
        assert run(["analyze", str(geo)]) == 2
        err = capsys.readouterr().err
        assert json.loads(err.splitlines()[-1])["error"]["exit_code"] == 2

    def test_missing_file_exits_five(self, capsys):
        assert run(["validate", "/no/such/file.json"]) == 5
        payload = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert payload["error"]["exit_code"] == 5

    def test_malformed_json_exits_five(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["validate", str(bad)]) == 5

    def test_deeply_nested_json_exits_five(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        assert run(["validate", str(deep)]) == 5
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        error = json.loads(err[0])["error"]
        assert (error["exit_code"], error["kind"]) == (5, "io")
        assert "is not valid JSON" in error["message"]

    @pytest.mark.filterwarnings("error")
    def test_overflowing_coordinates_print_one_error(self, tmp_path, capsys):
        # the distance 2e308 overflows; a numpy RuntimeWarning would raise
        geo = tmp_path / "huge.json"
        geo.write_text(json.dumps({"points": [[1e308, 0, 0], [-1e308, 0, 0],
                                              [0, 1, 0], [0, 0, 1]]}))
        assert run(["analyze", str(geo)]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert (error["exit_code"], error["kind"]) == (2, "validation")

    @pytest.mark.parametrize("command", ["validate", "analyze"])
    def test_overflowing_coordinates_print_strict_json(self, tmp_path, capsys,
                                                       command):
        # analyze writes the report from main's NotExtremalError handler
        geo = tmp_path / "huge.json"
        geo.write_text(json.dumps({"points": [[1e308, 0, 0], [-1e308, 0, 0],
                                              [0, 1, 0], [0, 0, 1]]}))
        assert run([command, str(geo)]) == 2

        def refuse(name):
            raise ValueError(f"{name} is not RFC 8259 JSON")
        report = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert report["extremality"]["diameter"] is None

    def test_unwritable_report_of_non_extremal_set_exits_five(self, tmp_path,
                                                              capsys):
        geo = tmp_path / "square.json"
        geo.write_text(json.dumps({"points": [[0, 0, 0], [1, 0, 0], [1, 1, 0],
                                              [0, 1, 0]]}))
        out = tmp_path / "missing" / "r.json"
        assert run(["analyze", str(geo), "--json", str(out)]) == 5
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        error = json.loads(err[0])["error"]
        assert (error["exit_code"], error["kind"]) == (5, "io")

    def test_bad_schema_exits_two(self, tmp_path):
        bad = tmp_path / "schema.json"
        bad.write_text(json.dumps({"points": [[1, 2], [3]]}))
        assert run(["validate", str(bad)]) == 2

    def test_custom_tolerance_flag(self, tmp_path):
        pts = (tetra_points() * (1 + 2e-7)).tolist()
        geo = tmp_path / "near.json"
        geo.write_text(json.dumps({"points": pts}))
        assert run(["validate", str(geo)]) == 2
        assert run(["validate", str(geo), "--tol-dist", "1e-5"]) == 0

    @pytest.mark.parametrize("command, code", [
        ("validate", 0), ("analyze", 4), ("mesh", 4), ("report", 4)])
    def test_stretched_tetra_fails_every_structure_command(
            self, tmp_path, capsys, command, code):
        # diameters 1 + 5e-9 pass --tol-dist 1e-8, but theta then exceeds
        # the pi/3 + 1e-9 that every angle pair must respect
        geo = tmp_path / "stretched.json"
        geo.write_text(json.dumps({"points": (tetra_points()
                                              * (1 + 5e-9)).tolist()}))
        out = tmp_path / "out.json"
        assert run([command, str(geo), "--tol-dist", "1e-8",
                    "--json", str(out)]) == code
        err = capsys.readouterr().err.splitlines()
        if code == 0:
            assert err == []
        else:
            assert len(err) == 1
            error = json.loads(err[0])["error"]
            assert (error["exit_code"], error["kind"]) == (4, "domain")
            assert error["message"].startswith("theta must lie in (0, pi/3]")


class TestAnalyze:
    def test_values_against_formulas(self, tmp_path):
        out = tmp_path / "a.json"
        assert run(["analyze", "generator:tetra", "--json", str(out)]) == 0
        data = load(out)
        sym = AnglePair(math.pi / 3, math.pi / 3)
        expect = 2 * math.pi / 3 - 1.5 * reuleaux_volume_term(sym)
        assert data["reuleaux"]["volume"] == pytest.approx(expect, abs=1e-9)
        assert data["structure"]["dual_pair_count"] == 3
        assert len(data["pairs"]) == 3

    def test_pentad_structure_fields(self, tmp_path):
        out = tmp_path / "p.json"
        assert run(["analyze", "generator:pentad", "--json", str(out)]) == 0
        data = load(out)
        assert data["structure"]["dual_pair_count"] == 4
        assert data["structure"]["vertex_classes"].count("dangling") == 1
        assert data["structure"]["euler_characteristic"] == 2

    def test_file_input_round_trip(self, tmp_path):
        geo = tmp_path / "tetra.json"
        geo.write_text(json.dumps({"points": tetra_points().tolist()}))
        out = tmp_path / "a.json"
        assert run(["analyze", str(geo), "--json", str(out)]) == 0
        assert load(out)["structure"]["edge_count"] == 6


class TestMc:
    def test_runs_and_reports(self, tmp_path):
        out = tmp_path / "mc.json"
        assert run(["mc", "generator:tetra", "--body", "meissner", "--seed", "7",
                    "--samples", "100000", "--json", str(out)]) == 0
        data = load(out)
        est = data["mc"]["estimates"]["meissner"]
        assert est["sample_count"] == 100000
        assert data["mc"]["seed"] == 7
        assert est["volume_mean"] == pytest.approx(0.42, abs=0.05)

    def test_wedge_body_flag(self, tmp_path):
        out = tmp_path / "w.json"
        assert run(["mc", "generator:tetra", "--body", "wedge:2", "--seed", "3",
                    "--samples", "50000", "--json", str(out)]) == 0
        assert "wedge:2" in load(out)["mc"]["estimates"]

    def test_invalid_body_exits_four(self, capsys):
        assert run(["mc", "generator:tetra", "--body", "cube"]) == 4
        payload = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert payload["error"]["exit_code"] == 4


class TestMeshCommand:
    def test_writes_obj_and_metrics(self, tmp_path):
        out_mesh = tmp_path / "t.obj"
        out_json = tmp_path / "t.json"
        assert run(["mesh", "generator:tetra", "--body", "reuleaux",
                    "--refine", "24", "--format", "obj",
                    "--out", str(out_mesh), "--json", str(out_json)]) == 0
        data = load(out_json)["mesh"]
        assert data["watertight"] and data["euler_characteristic"] == 2
        mesh = import_obj(str(out_mesh))
        assert mesh.n_triangles == data["n_triangles"]

    def test_writes_ply_for_wedge(self, tmp_path):
        out_mesh = tmp_path / "w.ply"
        assert run(["mesh", "generator:pentad", "--body", "wedge:0",
                    "--refine", "24", "--format", "ply",
                    "--out", str(out_mesh)]) == 0
        mesh = import_ply(str(out_mesh))
        assert mesh.n_triangles > 0


class TestSweep:
    def test_row_count_and_header(self, tmp_path):
        out = tmp_path / "s.csv"
        summary = tmp_path / "s.json"
        assert run(["sweep", "--grid", "12", "--out", str(out),
                    "--json", str(summary)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].split(",")[0] == "theta"
        assert len(lines) == 1 + 144
        data = load(summary)
        assert data["violations"] == 0
        assert data["max_flux_residual"] < 1e-10

    def test_default_grid_yields_2500_clean_rows(self, tmp_path):
        out = tmp_path / "s50.csv"
        summary = tmp_path / "s50.json"
        assert run(["sweep", "--grid", "50", "--out", str(out),
                    "--json", str(summary)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 2500
        assert load(summary)["violations"] == 0


class TestReportDeterminism:
    def _strip_timing(self, payload):
        payload.pop("timing", None)
        return payload

    def test_identical_runs_identical_json(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["report", "generator:pentad", "--full", "--seed", "42",
                "--samples", "60000", "--refine", "12", "--batch", "20000"]
        assert run(argv + ["--json", str(a)]) == 0
        assert run(argv + ["--json", str(b)]) == 0
        ja = json.dumps(self._strip_timing(load(a)), sort_keys=True)
        jb = json.dumps(self._strip_timing(load(b)), sort_keys=True)
        assert ja == jb

    def test_workers_do_not_change_the_report(self, tmp_path):
        a, b = tmp_path / "w1.json", tmp_path / "w8.json"
        base = ["report", "generator:tetra", "--full", "--seed", "5",
                "--samples", "80000", "--refine", "12", "--batch", "10000"]
        assert run(base + ["--workers", "1", "--json", str(a)]) == 0
        assert run(base + ["--workers", "8", "--json", str(b)]) == 0
        ja = json.dumps(self._strip_timing(load(a)), sort_keys=True)
        jb = json.dumps(self._strip_timing(load(b)), sort_keys=True)
        assert ja == jb

    def test_report_is_self_contained(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["report", "generator:tetra", "--full", "--seed", "9",
                    "--samples", "50000", "--refine", "12",
                    "--json", str(out)]) == 0
        data = load(out)
        assert data["mc"]["seed"] == 9
        assert data["mc"]["samples"] == 50000
        assert data["mesh"]["refine"] == 12
        assert data["tolerances"]["dist_eps"] == 1e-9
        assert "timing" in data
