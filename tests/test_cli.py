"""Tests for the command-line interface: reports, exit codes, determinism."""

import dataclasses
import json
import math
import re
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reuleaux import cli, formulas, oracle
from reuleaux.cli import main
from reuleaux.errors import DomainError, MeshError
from reuleaux.formulas import AnglePair, BodyScalars, PairTerm, \
    reuleaux_volume_term
from reuleaux.mesh import MeshStats, build_body_mesh, import_obj, \
    mesh_area, mesh_volume
from reuleaux.oracle import BodySpec, McEstimate, body_from_structure, \
    draw_chunk, mc_volume
from reuleaux.polyhedron import ExtremalityReport, StructureReport, \
    analyze_config, body_label, config_from_generator, tetra_points
import golden
from golden import pentad_grown
from test_mesh import ply_mesh


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

    def test_file_not_utf8_exits_five(self, tmp_path, capsys):
        latin = tmp_path / "latin.json"
        latin.write_bytes('{"labels": ["\xe9"]}'.encode("latin-1"))
        assert run(["validate", str(latin)]) == 5
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        error = json.loads(err[0])["error"]
        assert (error["exit_code"], error["kind"]) == (5, "io")
        assert error["message"].startswith(f"{latin} is not valid JSON: ")

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

    @pytest.mark.parametrize("command", ["validate", "analyze", "mesh",
                                         "report"])
    def test_pulled_vertex_analyzes_at_its_tolerance(self, tmp_path, capsys,
                                                     command):
        # vertex 0 moved 5e-5 toward the centroid: its diameters still pass
        # --tol-dist 1e-4, and the diameter graph they form, the
        # tetrahedron's, fixes every face and edge
        pts = tetra_points()
        toward = pts.mean(axis=0) - pts[0]
        pts[0] += 5e-5 * toward / np.linalg.norm(toward)
        geo = tmp_path / "pulled.json"
        geo.write_text(json.dumps({"points": pts.tolist()}))
        out = tmp_path / "out.json"
        assert run([command, str(geo), "--tol-dist", "1e-4",
                    "--json", str(out)]) == 0
        assert capsys.readouterr().err == ""
        if command == "analyze":
            data = load(out)
            assert data["tolerances"] == {"dist_eps": 1e-4}
            assert data["structure"]["edge_count"] == 6
            tetra = formulas.volume_reuleaux(
                [AnglePair(math.pi / 3, math.pi / 3)] * 3)
            assert abs(data["reuleaux"]["volume"] - tetra) < 1e-4


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
        mesh = ply_mesh(str(out_mesh))
        assert mesh.n_triangles > 0


class TestMeshBlocks:
    """A command's mesh block is the stats of the mesh it built."""

    @pytest.fixture
    def built(self, monkeypatch):
        meshes = []

        def recording(*args, **kwargs):
            meshes.append(build_body_mesh(*args, **kwargs))
            return meshes[-1]
        monkeypatch.setattr(cli, "build_body_mesh", recording)
        return meshes

    @staticmethod
    def assert_block_of(block, mesh):
        assert block == mesh.stats.to_dict()
        assert (block["volume"], block["surface_area"]) == (
            mesh_volume(mesh), mesh_area(mesh))

    def test_mesh_command(self, tmp_path, built):
        out = tmp_path / "m.json"
        assert run(["mesh", "generator:pentad", "--body", "meissner",
                    "--refine", "12", "--json", str(out)]) == 0
        block = load(out)["mesh"]
        assert [block.pop(k) for k in ("refine", "body", "out", "format")] \
            == [12, "meissner", None, "obj"]
        (mesh,) = built
        self.assert_block_of(block, mesh)

    def test_full_report(self, tmp_path, built):
        out = tmp_path / "r.json"
        assert run(["report", "generator:tetra", "--full", "--samples",
                    "20000", "--refine", "12", "--json", str(out)]) == 0
        blocks = load(out)["mesh"]["bodies"]
        assert sorted(blocks) == ["meissner", "reuleaux"] and len(built) == 2
        for label, mesh in zip(("reuleaux", "meissner"), built):
            self.assert_block_of(blocks[label], mesh)


class TestReportBlocksAreRecords:
    """Each report block is its record's fields, by the fields' names."""

    @staticmethod
    def names(record, *left_out):
        return sorted(f.name for f in dataclasses.fields(record)
                      if f.name not in left_out)

    def test_full_report_keys_are_field_names(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["report", "generator:pentad", "--full", "--samples",
                    "2000", "--refine", "4", "--json", str(out)]) == 0
        data = load(out)
        assert sorted(data["extremality"]) == self.names(ExtremalityReport)
        assert sorted(data["structure"]) == self.names(StructureReport)
        terms = []
        for body in ("reuleaux", "meissner"):
            assert sorted(data[body]) == self.names(BodyScalars)
            terms += data[body]["per_pair_terms"]
        estimates = list(data["mc"]["estimates"].values())
        meshes = list(data["mesh"]["bodies"].values())
        assert (len(terms), len(estimates), len(meshes)) == (8, 6, 2)
        assert all(sorted(t) == self.names(PairTerm) for t in terms)
        assert all(sorted(e) == self.names(McEstimate) for e in estimates)
        assert all(sorted(m) == self.names(MeshStats, "bad_edges")
                   for m in meshes)


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

    @staticmethod
    def scalar_rows(n):
        """The sweep's CSV rows at grid n, from one scalar pair per cell."""
        terms = (formulas.meissner_area_term, formulas.reuleaux_area_term,
                 formulas.reuleaux_volume_term, formulas.blaschke_defect_term,
                 formulas.wedge_volume)
        grid = np.linspace(0.01, math.pi / 3 - 0.01, n).tolist()
        rows = []
        for t in grid:
            for tp in grid:
                p = AnglePair(t, tp)
                row = [t, tp] + [term(p) for term in terms]
                row.append(row[-1] - formulas.wedge_volume_via_flux(p))
                rows.append(",".join(f"{x:.17g}" for x in row))
        return rows

    def test_cells_equal_the_scalar_terms(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run(["sweep", "--grid", "12", "--out", str(out)]) == 0
        assert run(["sweep", "--grid", "12"]) == 0
        text = out.read_text()
        assert capsys.readouterr().out == text
        assert text.splitlines()[1:] == self.scalar_rows(12)

    def test_cells_across_blocks_equal_the_scalar_terms(self, tmp_path,
                                                        monkeypatch):
        # 40 cells a block at grid 13: blocks of 3, 3, 3, 3 and 1 theta rows
        monkeypatch.setattr(cli, "SWEEP_BLOCK_CELLS", 40)
        out = tmp_path / "s.csv"
        assert run(["sweep", "--grid", "13", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1:] == self.scalar_rows(13)

    def test_grid_50_bytes_are_pinned(self):
        """The grid-50 CSV keeps its recorded bytes."""
        golden.check(golden.CLI, "sweep")

    def test_a_nan_term_is_a_violation(self, tmp_path, monkeypatch, capsys):
        flux = formulas.wedge_volume_via_flux

        def one_nan(p):
            value = flux(p)
            value[5] = math.nan
            return value

        monkeypatch.setattr(formulas, "wedge_volume_via_flux", one_nan)
        out, summary = tmp_path / "s.csv", tmp_path / "s.json"
        assert run(["sweep", "--grid", "12", "--out", str(out),
                    "--json", str(summary)]) == 4
        assert "1 violations" in one_error(capsys, 4)["message"]
        data = load(summary)
        assert data["violations"] == 1
        assert data["max_flux_residual"] is None
        assert out.read_text().splitlines()[6].endswith(",nan")


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
        assert data["tolerances"] == {"dist_eps": 1e-9}
        assert "timing" in data


class TestPinnedPayloads:
    """The analyze and report --full JSON outside its timing block, and the
    OBJ and PLY files of the mesh command, on tetra, pentad and a JSON n = 6
    pyramid, keep their recorded bytes."""

    @pytest.mark.parametrize("corpus", ["analyze", "report_full", "mesh"])
    def test_payloads_are_pinned(self, corpus):
        golden.check(golden.CLI, corpus)


class TestOneSampler:
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_report_estimates_equal_mc_estimates(self, tmp_path, workers):
        # report --full and mc --body must take the same sampling path
        mc_opts = ["--seed", "3", "--samples", "200000", "--batch", "50000",
                   "--workers", workers]
        out = tmp_path / "o.json"
        assert run(["report", "generator:tetra", "--full", "--refine", "4",
                    "--json", str(out)] + mc_opts) == 0
        estimates = load(out)["mc"]["estimates"]
        assert sorted(estimates) == ["meissner", "reuleaux", "wedge:0",
                                     "wedge:1", "wedge:2"]
        for label, est in estimates.items():
            assert run(["mc", "generator:tetra", "--body", label,
                        "--json", str(out)] + mc_opts) == 0
            assert load(out)["mc"]["estimates"] == {label: est}


class TestReportRun:
    def test_one_mc_volume_call_per_body(self, tmp_path, monkeypatch):
        # the traced benchmark keys its spans by the body of each call
        calls = []

        def counted(body, mc, *draws):
            calls.append(body_label(body.kind, body.wedge_index,
                                    len(body.arcs)))
            return mc_volume(body, mc, *draws)

        monkeypatch.setattr(cli, "mc_volume", counted)
        out = tmp_path / "r.json"
        assert run(["report", "generator:pentad", "--full", "--samples",
                    "2000", "--refine", "4", "--json", str(out)]) == 0
        assert calls == ["reuleaux", "meissner", "wedge:0", "wedge:1",
                         "wedge:2", "wedge:3"]
        assert sorted(load(out)["mc"]["estimates"]) == sorted(calls)

    def test_timing_has_each_body_run_and_build(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["report", "generator:tetra", "--full", "--samples",
                    "2000", "--refine", "4", "--json", str(out)]) == 0
        data = load(out)
        timing = data["timing"]
        assert sorted(timing) == ["draws_s", "elapsed_s", "mc_s", "mesh_s"]
        assert sorted(timing["mc_s"]) == sorted(data["mc"]["estimates"])
        assert sorted(timing["mesh_s"]) == sorted(data["mesh"]["bodies"])
        # the shared draws, then each body's run without them
        seconds = [timing["draws_s"], *timing["mc_s"].values(),
                   *timing["mesh_s"].values()]
        assert all(s > 0.0 for s in seconds)
        assert sum(seconds) < timing["elapsed_s"]

    def test_timing_under_overlap(self, tmp_path):
        # with 2 workers a helper draws beside the meshes, then both threads
        # test bodies: each body's test starts once the draws are whole, and
        # each thread runs one job at a time
        out = tmp_path / "r.json"
        assert run(["report", "generator:tetra", "--full", "--samples",
                    "2000", "--refine", "4", "--workers", "2",
                    "--json", str(out)]) == 0
        timing = load(out)["timing"]
        assert sorted(timing) == ["draws_s", "elapsed_s", "mc_s", "mesh_s"]
        mesh_s, mc_s = timing["mesh_s"].values(), timing["mc_s"].values()
        assert sum(mesh_s) < timing["elapsed_s"]
        assert timing["draws_s"] + max(mc_s) < timing["elapsed_s"]
        assert sum(mesh_s) + sum(mc_s) < 2 * timing["elapsed_s"]

    def test_workers_bound_the_threads(self, tmp_path, monkeypatch):
        # --workers 3 runs two helpers beside the main thread and no more;
        # each body is tested once, and the report does not depend on it
        threads = threading.active_count()
        calls = []

        def counted(body, mc, draws):
            calls.append((body_label(body.kind, body.wedge_index,
                                     len(body.arcs)),
                          threading.active_count()))
            return mc_volume(body, mc, draws)

        monkeypatch.setattr(cli, "mc_volume", counted)
        reports = []
        for workers in (1, 2, 3):
            calls.clear()
            out = tmp_path / f"w{workers}.json"
            assert run(["report", "generator:pentad", "--full", "--samples",
                        "200000", "--batch", "25000", "--refine", "8",
                        "--workers", str(workers), "--json", str(out)]) == 0
            assert sorted(label for label, _ in calls) == [
                "meissner", "reuleaux", "wedge:0", "wedge:1", "wedge:2",
                "wedge:3"]
            assert max(n for _, n in calls) <= threads + workers - 1
            payload = load(out)
            del payload["timing"]
            reports.append(json.dumps(payload, sort_keys=True))
        assert threading.active_count() == threads
        assert reports[0] == reports[1] == reports[2]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_bad_refine_exits_before_any_draw(self, capsys, monkeypatch,
                                              workers):
        # a helper's error would be lost behind the refine error, so the
        # calls are counted
        calls = []

        def refused(*args):
            calls.append(args)
            raise AssertionError("MC ran before the refine check")

        monkeypatch.setattr(oracle, "draw_chunk", refused)
        monkeypatch.setattr(cli, "mc_volume", refused)
        assert run(["report", "generator:tetra", "--full",
                    "--refine", "1", "--workers", workers]) == 2
        assert one_error(capsys, 2)["message"] == "refine must be at least 2"
        assert not calls

    def test_mesh_error_beside_the_mc_exits_three(self, capsys,
                                                  monkeypatch):
        # the error stops the MC's job list: the helper returns after the
        # chunk it draws, long before the ten chunks are drawn
        drawn = []

        def counted(mc, k, hull):
            drawn.append(k)
            return draw_chunk(mc, k, hull)

        def refused(*args, **kwargs):
            raise MeshError("reuleaux mesh is not closed")

        monkeypatch.setattr(oracle, "draw_chunk", counted)
        monkeypatch.setattr(cli, "build_body_mesh", refused)
        threads = threading.active_count()
        assert run(["report", "generator:pentad", "--full", "--samples",
                    str(10 ** 7), "--batch", str(10 ** 6),
                    "--workers", "2"]) == 3
        assert threading.active_count() == threads
        assert len(drawn) < 10
        error = one_error(capsys, 3)
        assert error == {"exit_code": 3, "kind": "structure",
                         "message": "reuleaux mesh is not closed"}

    def test_helper_error_stops_the_report(self, capsys, monkeypatch):
        # the meshes wait until the helper's first draw has failed: the
        # error stops the job list and is the report's exit
        failed = threading.Event()
        drawn = []

        def helper_fails(mc, k, hull):
            drawn.append(k)
            if threading.current_thread() is threading.main_thread():
                return draw_chunk(mc, k, hull)
            failed.set()
            raise MemoryError("Unable to allocate the draw")

        def after_failure(*args, **kwargs):
            assert failed.wait(timeout=60)
            return build_body_mesh(*args, **kwargs)

        monkeypatch.setattr(oracle, "draw_chunk", helper_fails)
        monkeypatch.setattr(cli, "build_body_mesh", after_failure)
        threads = threading.active_count()
        assert run(["report", "generator:pentad", "--full", "--samples",
                    str(10 ** 7), "--batch", str(10 ** 6), "--refine", "4",
                    "--workers", "2"]) == 4
        assert threading.active_count() == threads
        assert drawn[0] == 0 and len(drawn) < 10
        assert one_error(capsys, 4) == {
            "exit_code": 4, "kind": "domain",
            "message": "Unable to allocate the draw"}


def one_error(capsys, code):
    """The single JSON error object on stderr, checked against the exit."""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    error = json.loads(err[0])["error"]
    assert error["exit_code"] == code
    return error


def point_set_text(first):
    """Point-set JSON whose first coordinate is the raw JSON text given."""
    return ('{"points": [[%s, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]}'
            % first)


class TestPointSetInput:
    @pytest.mark.parametrize("value", [
        '{"x": 1}', '"1"', "true", "false", "null", "[1]", "1" + "0" * 400])
    @pytest.mark.parametrize("command", ["validate", "analyze"])
    def test_coordinate_that_is_no_number_exits_two(self, tmp_path, capsys,
                                                    command, value):
        geo = tmp_path / "bad.json"
        geo.write_text(point_set_text(value))
        assert run([command, str(geo)]) == 2
        error = one_error(capsys, 2)
        assert error["kind"] == "validation"
        assert error["message"] in (
            "point 0: coordinates must be JSON numbers",
            "an integer coordinate is too large for a double")

    @pytest.mark.parametrize("text, message", [
        (point_set_text("NaN"), "coordinates must be finite"),
        (point_set_text("1e400"), "coordinates must be finite"),
        ('{"points": [[0, 0, 0], [0, 0, 0], [1, 0, 0], [0, 1, 0]]}',
         "pairwise distinct"),
        ('{"points": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], '
         '"labels": ["a", "b"]}', "labels must match")])
    def test_point_config_errors_exit_two(self, tmp_path, capsys, text,
                                          message):
        geo = tmp_path / "bad.json"
        geo.write_text(text)
        assert run(["validate", str(geo)]) == 2
        assert message in one_error(capsys, 2)["message"]

    def test_unknown_generator_exits_five(self, capsys):
        assert run(["analyze", "generator:cube"]) == 5
        assert "unknown generator" in one_error(capsys, 5)["message"]

    @pytest.mark.parametrize("scale, code", [
        (1 - 5e-10, 0), (1 + 5e-10, 0), (1 + 9e-10, 0), (1 + 2e-9, 2)])
    @pytest.mark.parametrize("command", ["validate", "analyze"])
    def test_jitter_against_dist_eps(self, tmp_path, capsys, command, scale,
                                     code):
        # validate and analyze share one slack: theta_max is the chord
        # angle of 1 + dist_eps
        geo = tmp_path / "jitter.json"
        geo.write_text(json.dumps({"points": (tetra_points()
                                              * scale).tolist()}))
        assert run([command, str(geo), "--json", str(tmp_path / "o.json")]) \
            == code
        if code:
            assert one_error(capsys, code)["kind"] == "validation"
        else:
            assert capsys.readouterr().err == ""


class TestOptionErrors:
    @pytest.mark.parametrize("argv", [
        ["mesh", "generator:tetra", "--refine", "1"],
        ["mc", "generator:tetra", "--batch", "0"],
        ["mc", "generator:tetra", "--workers", "0"],
        # usage errors, argparse's own included, are one error object too
        ["mesh", "generator:tetra", "--format", "xyz"],
        ["analyze", "generator:tetra", "--bogus"], [],
        ["sweep", "--grid", "abc"],
        ["sweep", "--grid", "2", "--tol-dist", "5"]])
    def test_bad_counts_exit_two(self, capsys, argv):
        assert run(argv) == 2
        assert one_error(capsys, 2)["kind"] == "validation"

    @pytest.mark.parametrize("argv", [["--help"], ["mesh", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            run(argv)
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: reuleaux")

    @pytest.mark.parametrize("body", ["wedge:3", "wedge:-1"])
    @pytest.mark.parametrize("command", ["mc", "mesh"])
    def test_wedge_index_out_of_range_exits_four(self, capsys, command, body):
        extra = ["--samples", "1000"] if command == "mc" else ["--refine", "4"]
        assert run([command, "generator:tetra", "--body", body] + extra) == 4
        error = one_error(capsys, 4)
        assert error["kind"] == "domain"
        assert error["message"] == \
            f"wedge index {body.split(':')[1]} is outside 0..2"

    @pytest.mark.parametrize("body", ["wedge:0_1", "wedge:+1", "wedge: 1",
                                      "wedge:\u0661", "wedge:", "wedge"])
    @pytest.mark.parametrize("command", ["mc", "mesh"])
    def test_wedge_index_not_in_decimal_digits_exits_four(self, capsys,
                                                          command, body):
        extra = ["--samples", "1000"] if command == "mc" else ["--refine", "4"]
        assert run([command, "generator:tetra", "--body", body] + extra) == 4
        assert one_error(capsys, 4)["message"] == (
            "--body must be reuleaux, meissner, or wedge:<i>, "
            f"got {body!r}")

    @pytest.mark.parametrize("argv, message", [
        (["mc", "generator:tetra", "--seed", "-1"],
         r"seed must lie in 0\.\.2\*\*128 - 1"),
        (["report", "generator:tetra", "--full", "--seed", str(2 ** 128)],
         r"seed must lie in 0\.\.2\*\*128 - 1"),
        (["sweep", "--grid", "0"], "--grid must be at least 1, got 0"),
        (["sweep", "--grid", "-3"], "--grid must be at least 1, got -3")])
    def test_range_errors_name_the_flag(self, capsys, argv, message):
        assert run(argv) == 2
        error = one_error(capsys, 2)
        assert error["kind"] == "validation"
        assert re.fullmatch(message, error["message"])

    @pytest.mark.parametrize("seed", [0, 2 ** 128 - 1])
    def test_seed_range_ends_are_accepted(self, tmp_path, seed):
        out = tmp_path / "mc.json"
        assert run(["mc", "generator:tetra", "--seed", str(seed),
                    "--samples", "1000", "--json", str(out)]) == 0
        assert load(out)["mc"]["seed"] == seed

    # sizes of 1e13 and more fail at once: numpy cannot allocate them, so
    # nothing is filled or swapped first
    @pytest.mark.parametrize("argv", [
        ["mesh", "generator:tetra", "--refine", str(10 ** 14)],
        ["mc", "generator:tetra", "--samples", str(10 ** 13),
         "--batch", str(10 ** 13)],
        # the MC fails on a helper thread, beside the meshes
        ["report", "generator:tetra", "--full", "--workers", "2",
         "--samples", str(10 ** 13), "--batch", str(10 ** 13)]])
    def test_allocation_failure_exits_four(self, capsys, argv):
        threads = threading.active_count()
        assert run(argv) == 4
        assert threading.active_count() == threads
        error = one_error(capsys, 4)
        assert error["kind"] == "domain"
        assert error["message"].startswith("Unable to allocate ")

    def test_wedge_label_is_canonical(self, tmp_path):
        out = tmp_path / "o.json"
        assert run(["mesh", "generator:tetra", "--body", "wedge:01",
                    "--refine", "4", "--json", str(out)]) == 0
        assert load(out)["mesh"]["body"] == "wedge:1"
        assert run(["mc", "generator:tetra", "--body", "wedge:01",
                    "--samples", "1000", "--json", str(out)]) == 0
        assert list(load(out)["mc"]["estimates"]) == ["wedge:1"]


class TestBodyGrammar:
    """polyhedron.body_label is the one list of body kinds, wedge range and
    labels: both oracles refuse a body with its words, and both commands
    name a body the same way."""

    @pytest.mark.parametrize("generator", ["tetra", "pentad"])
    def test_oracles_refuse_alike_and_commands_label_alike(self, tmp_path,
                                                           generator):
        structure = analyze_config(config_from_generator(generator))
        n = len(structure.pairs)
        arcs = tuple(dp.kept.arc for dp in structure.pairs)
        for kind, idx, message in [
                ("cube", None,
                 "body kind must be reuleaux, meissner or wedge, got 'cube'"),
                ("cube", 0,
                 "body kind must be reuleaux, meissner or wedge, got 'cube'"),
                ("wedge", n, f"wedge index {n} is outside 0..{n - 1}"),
                ("wedge", -1, f"wedge index -1 is outside 0..{n - 1}"),
                ("wedge", None, f"wedge index None is outside 0..{n - 1}")]:
            for refuse in (
                    lambda: BodySpec(kind, structure.config, arcs, idx),
                    lambda: body_from_structure(structure, kind, idx),
                    lambda: build_body_mesh(structure, kind, 4, idx)):
                with pytest.raises(DomainError) as info:
                    refuse()
                assert str(info.value) == message
                assert isinstance(info.value, ValueError)
        out = tmp_path / "o.json"
        for body in ["reuleaux", "meissner"] + [f"wedge:{i}"
                                                for i in range(n)]:
            assert run(["mc", f"generator:{generator}", "--body", body,
                        "--samples", "1000", "--json", str(out)]) == 0
            assert list(load(out)["mc"]["estimates"]) == [body]
            assert run(["mesh", f"generator:{generator}", "--body", body,
                        "--refine", "4", "--json", str(out)]) == 0
            assert load(out)["mesh"]["body"] == body


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.just(10 ** 400),
    st.floats(), st.text(max_size=3))
JSON_VALUES = st.recursive(
    JSON_SCALARS, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=8)
NUMBERS = st.one_of(st.floats(-1, 1), st.integers(-1, 1))
# mostly numbers, so that whole rows of junk do not hide the rest
ROWS = st.lists(st.one_of(NUMBERS, NUMBERS, NUMBERS, JSON_SCALARS),
                min_size=3, max_size=3)


@st.composite
def near_extremal(draw):
    """A generator's points, scaled about the dist_eps edge and jittered."""
    name = draw(st.sampled_from(["tetra", "pentad"]))
    pts = config_from_generator(name).points
    scale = draw(st.sampled_from([1 - 5e-10, 1.0, 1 + 9e-10, 1 + 5e-9]))
    jitter = draw(st.lists(st.floats(-3e-10, 3e-10), min_size=pts.size,
                           max_size=pts.size))
    return {"points": (scale * pts + np.reshape(jitter, pts.shape)).tolist()}


POINT_SETS = st.one_of(
    near_extremal(),
    st.fixed_dictionaries(
        {"points": st.one_of(st.lists(ROWS, max_size=7), JSON_VALUES)},
        optional={"labels": st.one_of(st.lists(st.text(max_size=2),
                                               max_size=6), JSON_VALUES)}),
    JSON_VALUES)


class TestFuzzedPointSets:
    @settings(max_examples=150, derandomize=True, deadline=None,
              database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=POINT_SETS, tol=st.sampled_from([[], ["--tol-dist", "1e-8"]]))
    def test_exit_code_and_one_error_object(self, tmp_path, capsys, doc, tol):
        geo = tmp_path / "fuzz.json"
        geo.write_text(json.dumps(doc))
        for command in ("validate", "analyze"):
            capsys.readouterr()
            code = run([command, str(geo), "--json", str(tmp_path / "o.json")]
                       + tol)
            assert code in (0, 2, 3, 4, 5)
            if code:
                one_error(capsys, code)
            else:
                assert capsys.readouterr().err == ""


class TestDegeneracyLadder:
    """The pentad plus the point at fraction f of one of its edge arcs.  The
    set is extremal for every f in (0, 1); as f shrinks the new point nears
    the arc's first end, until the structure analysis (exit 3, at 1e-8),
    then validation (exit 2), refuses it."""

    @pytest.mark.parametrize("f, code, kind", [
        (1e-2, 0, None), (1e-4, 0, None), (1e-6, 0, None),
        (1e-7, 0, None), (1e-8, 3, "structure"),
        (1e-10, 2, "validation")])
    def test_analyze_on_every_edge(self, tmp_path, capsys, f, code, kind):
        geo = tmp_path / "grown.json"
        for edge, pts in enumerate(pentad_grown(f)):
            geo.write_text(json.dumps({"points": pts.tolist()}))
            capsys.readouterr()
            assert run(["analyze", str(geo), "--json",
                        str(tmp_path / "a.json")]) == code, edge
            if code:
                # one error object, so no traceback
                error = one_error(capsys, code)
                assert error["kind"] == kind, edge
                if kind == "structure":
                    # the refusal names the face and the step it fails on
                    assert re.fullmatch(
                        r"extract_edges: face \d+, step \(\d+, \d+\): "
                        r"found \d+ arcs, expected 1", error["message"]), edge
            else:
                assert capsys.readouterr().err == "", edge
