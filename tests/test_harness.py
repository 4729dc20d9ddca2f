"""Harness: generation, file formats, runs, sweeps, CLI, determinism."""

import ast
import importlib.util
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from gridhit import formats, geometry as G, harness
from gridhit.cli import main as cli_main
from gridhit.errors import InstanceFormatError
from gridhit.exactnum import SqrtExt, sqrt_exact
from gridhit.formats import (
    InstanceFile,
    parse_instance,
    parse_scalar_text,
    read_instance,
    scalar_from_json,
    scalar_to_json,
    serialize_instance,
    shape_from_json,
    shape_to_json,
    write_instance,
)
from gridhit.geometry import Ball, Box, Cube, GridSpec

F = Fraction
SQRT2 = sqrt_exact(2)


class TestScalarEncoding:
    @pytest.mark.parametrize("value", [
        F(3), F(-2), F(3, 2), F(-7, 16), 5,
        sqrt_exact(2), 3 + 2 * sqrt_exact(5), sqrt_exact(2) / 3 - F(1, 2),
    ])
    def test_roundtrip(self, value):
        encoded = scalar_to_json(value)
        json.dumps(encoded)  # must be a JSON value
        decoded = scalar_from_json(encoded)
        assert decoded == value
        assert scalar_to_json(decoded) == encoded

    def test_parse_text_forms(self):
        assert parse_scalar_text("2") == 2
        assert parse_scalar_text("3/2") == F(3, 2)
        assert parse_scalar_text("1.5") == F(3, 2)  # decimal strings are exact
        assert parse_scalar_text("sqrt(2)") == SQRT2
        assert parse_scalar_text("sqrt(9/4)") == F(3, 2)
        with pytest.raises(InstanceFormatError):
            parse_scalar_text("fat")

    def test_bad_scalar_json(self):
        with pytest.raises(InstanceFormatError):
            scalar_from_json("x/3")
        with pytest.raises(InstanceFormatError):
            scalar_from_json({"a": 1})


class TestShapeEncoding:
    @pytest.mark.parametrize("shape", [
        Cube((0, 0), 16),
        Ball((F(9, 2), 4), F(5, 2)),
        Box((F(1, 8), 0, 3), (1, 2, F(7, 4))),
    ])
    def test_roundtrip(self, shape):
        rec = shape_to_json(shape)
        assert shape_from_json(rec) == shape
        assert shape_to_json(shape_from_json(rec)) == rec

    def test_unknown_shape(self):
        with pytest.raises(InstanceFormatError):
            shape_from_json({"shape": "torus"})


class TestInstanceFiles:
    def test_serialize_parse_roundtrip_bytes(self):
        inst = harness.gen_random(2, 64, SQRT2, ("ball", "cube", "box"),
                                  12, seed=42)
        text = serialize_instance(inst)
        again = parse_instance(text)
        assert serialize_instance(again) == text
        assert again.objects == inst.objects
        assert again.fatness == inst.fatness

    def test_header_validation(self):
        with pytest.raises(InstanceFormatError):
            parse_instance("")
        with pytest.raises(InstanceFormatError):
            parse_instance('{"d":2,"N":64}\n')
        with pytest.raises(InstanceFormatError):
            parse_instance('{"d":2,"N":64,"alpha":"1/2"}\n')
        cube = '{"shape":"cube","corner":[0],"width":4}\n'
        with pytest.raises(ValueError, match="dimension"):
            parse_instance('{"d":true,"N":8,"alpha":1}\n' + cube)
        for bad in ('"count":true', '"seed":true', '"seed":1.5'):
            with pytest.raises(InstanceFormatError, match="must be an integer"):
                parse_instance('{"d":1,"N":8,"alpha":1,' + bad + '}\n' + cube)

    def test_object_validation_names_line(self):
        header = '{"d":2,"N":16,"alpha":1}'
        bad_fat = '{"shape":"ball","center":[8,8],"radius":2}'
        with pytest.raises(InstanceFormatError, match="line 2"):
            parse_instance(header + "\n" + bad_fat + "\n")
        out_of_grid = '{"shape":"cube","corner":[10,10],"width":8}'
        with pytest.raises(InstanceFormatError, match="line 3"):
            parse_instance(header + "\n"
                           + '{"shape":"cube","corner":[0,0],"width":4}\n'
                           + out_of_grid + "\n")
        empty = '{"shape":"cube","corner":[0,0],"width":1}'
        with pytest.raises(InstanceFormatError, match="no grid point"):
            parse_instance(header + "\n" + empty + "\n")

    def test_file_io(self, tmp_path):
        inst = harness.gen_random(2, 32, F(2), ("cube", "box"), 5, seed=9)
        path = tmp_path / "inst.jsonl"
        write_instance(inst, path)
        assert read_instance(path).objects == inst.objects


class TestGenRandom:
    def test_deterministic_bytes(self):
        a = harness.gen_random(2, 64, SQRT2, ("ball", "cube", "box"), 20, seed=7)
        b = harness.gen_random(2, 64, SQRT2, ("ball", "cube", "box"), 20, seed=7)
        assert serialize_instance(a) == serialize_instance(b)
        c = harness.gen_random(2, 64, SQRT2, ("ball", "cube", "box"), 20, seed=8)
        assert serialize_instance(c) != serialize_instance(a)

    def test_objects_satisfy_header(self):
        inst = harness.gen_random(3, 32, sqrt_exact(3), ("ball", "cube", "box"),
                                  30, seed=1)
        fat_sq = inst.fatness * inst.fatness
        for o in inst.objects:
            G.validate_in_grid(o, inst.grid)
            G.validate_fatness(o, fat_sq)
            assert G.has_grid_point(o)

    def test_count_zero(self):
        inst = harness.gen_random(2, 64, F(1), ("cube",), 0, seed=0)
        assert inst.objects == []
        assert parse_instance(serialize_instance(inst)).objects == []

    def test_negative_count_rejected(self):
        with pytest.raises(InstanceFormatError, match="count must be >= 0"):
            harness.gen_random(2, 64, F(1), ("cube",), -3, seed=0)

    def test_width_beyond_grid_rejected(self):
        with pytest.raises(InstanceFormatError, match="exceeds the grid"):
            harness.gen_random(2, 16, F(1), ("cube",), 3, seed=0, min_width=32)
        with pytest.raises(InstanceFormatError, match="exceeds the grid"):
            harness.gen_random(2, 16, F(1), ("cube",), 3, seed=0, max_width=20)

    @pytest.mark.parametrize("count", [0, 2])
    def test_width_range_off_the_eighth_grid_rejected(self, count):
        # Widths are drawn as multiples of 1/8; [17/16, 17/16] holds none.
        with pytest.raises(InstanceFormatError,
                           match=r"\[17/16, 17/16\] holds no multiple of 1/8"):
            harness.gen_random(2, 16, 1, ("cube",), count, seed=1,
                               min_width=F(17, 16), max_width=F(17, 16))

    def test_balls_need_enough_fatness(self):
        with pytest.raises(InstanceFormatError, match="balls"):
            harness.gen_random(2, 16, F(5, 4), ("ball",), 3, seed=0)

    def test_log_uniform_spread(self):
        inst = harness.gen_random(2, 256, F(1), ("cube",), 200, seed=3)
        widths = sorted(float(o.width) for o in inst.objects)
        assert widths[0] < 4 and widths[-1] > 64  # both ends of the range


class TestRunOnline:
    def test_five_object_report(self, tmp_path):
        objs = [
            Cube((F(7, 2), F(9, 2)), 2),
            Cube((F(9, 2), F(7, 2)), 2),
            Cube((F(9, 2), F(9, 2)), 2),
            Cube((F(19, 2), F(21, 2)), 2),
            Cube((F(21, 2), F(19, 2)), 2),
        ]
        inst = InstanceFile(GridSpec(2, 16), F(1), objs)
        path = tmp_path / "t.jsonl"
        report = harness.run_online(inst, transcript_path=path)
        assert report.alg_size == 5
        assert report.opt_size == 2 and report.opt_exact
        assert report.ratio == F(5, 2)
        assert report.within_bound
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) == 5
        assert lines[0]["decision"]["type"] == "added"
        assert lines[-1]["cumulative_size"] == 5

    def test_empty_instance(self):
        report = harness.run_online(InstanceFile(GridSpec(2, 16), F(1), []))
        assert report.alg_size == 0
        assert report.opt_size is None and report.ratio is None

    def test_single_object_instance(self):
        inst = InstanceFile(GridSpec(2, 16), SQRT2, [Ball((8, 8), 8)])
        report = harness.run_online(inst)
        assert report.opt_size == 1
        assert report.alg_size <= 44

    def test_replay_transcripts_identical(self, tmp_path):
        inst = harness.gen_random(2, 64, SQRT2, ("ball", "cube", "box"),
                                  15, seed=11)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        harness.run_online(inst, transcript_path=p1)
        harness.run_online(inst, transcript_path=p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestRunAdversary:
    def test_cube_engine_game(self, tmp_path):
        trace = tmp_path / "g.jsonl"
        summary, report = harness.run_adversary(2, 1024, "cube", "engine",
                                                trace_path=trace)
        assert summary.total_points >= 10
        assert summary.forced_minimum_met
        assert report.opt_size == 1 and report.opt_exact
        lines = trace.read_text().splitlines()
        assert len(lines) == summary.steps + 1
        tail = json.loads(lines[-1])
        assert tail["forced_minimum_met"] is True
        assert tail["opt_size"] == 1

    def test_ball_baseline_game(self):
        summary, report = harness.run_adversary(2, 256, "ball", "baseline")
        assert summary.forced_minimum_met
        assert report.opt_size == 1

    def test_ball_games_at_scale(self):
        # Balls for d >= 2 leave the rationals after one step, so these
        # games run on SqrtExt floors of values up to 2**128.
        t0 = time.perf_counter()
        for d, n in ((2, 1 << 64), (3, 1 << 64), (2, 1 << 128), (5, 1 << 10)):
            summary, report = harness.run_adversary(d, n, "ball")
            assert summary.forced_minimum_met, (d, n)
            assert report.opt_size == 1, (d, n)
        assert time.perf_counter() - t0 < 5.0

    def test_box_game(self):
        summary, report = harness.run_adversary(2, 128, "box",
                                                aspect=(1, F(3, 2)))
        assert summary.forced_minimum_met
        assert report.opt_size == 1

    def test_optimum_needs_no_offline_solve(self, monkeypatch):
        # The certificate summarize checks in every object is the optimum.
        def refuse(objects):
            raise AssertionError("run_adversary called the offline oracle")

        monkeypatch.setattr(harness.oracle, "reduce_instance", refuse)
        summary, report = harness.run_adversary(2, 256, "ball")
        assert summary.forced_minimum_met
        assert report.opt_size == 1 and report.opt_exact
        assert report.within_bound is True

    def test_trace_determinism(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        harness.run_adversary(2, 512, "ball", "engine", trace_path=p1)
        harness.run_adversary(2, 512, "ball", "engine", trace_path=p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestVerifySuites:
    def test_levelwidth_passes(self):
        # Every level is cross-checked; an oracle whose cost follows the
        # objects' area would take about 30 s here.
        t0 = time.perf_counter()
        res = harness.verify_level_width()
        elapsed = time.perf_counter() - t0
        assert res.passed, res.violations
        assert res.checked == 10_000
        assert elapsed < 15, f"levelwidth suite took {elapsed:.1f} s"

    def test_levelcount_passes(self):
        res = harness.verify_level_count(N=32)
        assert res.passed, res.violations

    def test_stepcap_passes(self):
        res = harness.verify_step_caps(count=40)
        assert res.passed, res.violations

    def test_ratio_passes(self):
        res = harness.verify_ratio(count=12)
        assert res.passed, res.violations

    def test_oracle_passes(self):
        res = harness.verify_oracle(count=25)
        assert res.passed, res.violations

    def test_unknown_suite(self):
        with pytest.raises(InstanceFormatError):
            harness.run_suite("nonsense")

    def test_all_refuses_parameters(self):
        # ``all`` runs every suite at its defaults, so a parameter would be
        # dropped silently; it is refused before any suite runs.
        with pytest.raises(InstanceFormatError, match="'all'"):
            harness.run_suite("all", count=3)

    def test_broken_level_function_is_caught(self, monkeypatch):
        # Mutation check: sabotage the level computation and the sweep must
        # produce a counterexample.
        real = G.object_level
        monkeypatch.setattr(G, "object_level",
                            lambda o: max(0, real(o) - 1))
        res = harness.verify_level_width(count=300)
        assert not res.passed
        assert res.violations

    def test_level_of_large_objects_is_cross_checked(self, monkeypatch):
        # Mutation check: raise the level only on objects with more than
        # 30 000 candidate points.  The width bounds still hold, so only
        # the naive level oracle can object.
        real = G.object_level
        monkeypatch.setattr(G, "object_level", lambda o: real(o) + (
            math.prod(map(len, harness._naive_ranges(o))) > 30_000))
        res = harness.verify_level_width(count=300)
        assert not res.passed
        assert {v["problem"] for v in res.violations} == {
            "level disagrees with the naive enumeration"}

    def test_unaligned_equality_is_caught(self, monkeypatch):
        # Shift every inscribed cube off the dyadic grid, keeping its width:
        # the equality cases lose their alignment and must be reported.
        real = G.inscribed_cube
        monkeypatch.setattr(G, "inscribed_cube", lambda o: Cube(
            tuple(c + Fraction(1, 3) for c in real(o).corner), real(o).width))
        res = harness.verify_level_width(count=600)
        assert not res.passed
        assert {v["problem"] for v in res.violations} == {
            "in_width == 2**(level+1) without dyadic alignment"}

    def test_broken_counting_is_caught(self, monkeypatch):
        # One spurious level-0 point per cube.
        real = G.points_of_level
        monkeypatch.setattr(G, "points_of_level", lambda c, l: (
            real(c, l) + ([(1, 1)] if l == 0 else [])))
        res = harness.verify_level_count(N=16)
        assert not res.passed


class TestCli:
    def run_cli(self, *args):
        import io
        from contextlib import redirect_stdout
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(list(args))
        return code, buf.getvalue()

    def test_gen_run_roundtrip(self, tmp_path):
        inst = tmp_path / "i.jsonl"
        code, _ = self.run_cli("gen", "--d", "2", "--N", "64", "--count", "10",
                               "--seed", "3", "--out", str(inst))
        assert code == 0
        code, out = self.run_cli("run", str(inst))
        assert code == 0
        report = json.loads(out.splitlines()[-1])
        assert report["opt_exact"] is True
        assert report["within_bound"] is True

    def test_gen_determinism_on_disk(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            self.run_cli("gen", "--d", "2", "--N", "64", "--alpha", "sqrt(2)",
                         "--count", "12", "--seed", "21", "--out", str(path))
        assert a.read_bytes() == b.read_bytes()

    def test_gen_takes_irrational_widths(self, tmp_path):
        inst = tmp_path / "i.jsonl"
        code, out = self.run_cli("gen", "--d", "2", "--N", "32",
                                 "--count", "5", "--seed", "2",
                                 "--min-width", "sqrt(2)",
                                 "--max-width", "sqrt(18)", "--out", str(inst))
        assert code == 0
        assert out == f"wrote 5 objects to {inst}\n"
        assert len(read_instance(inst).objects) == 5

    def test_gen_off_grid_width_range_exits_two(self, tmp_path, capsys):
        inst = tmp_path / "i.jsonl"
        code, _ = self.run_cli("gen", "--d", "2", "--N", "16", "--count", "2",
                               "--min-width", "17/16", "--max-width", "17/16",
                               "--out", str(inst))
        assert code == 2
        assert capsys.readouterr().err == (
            "error: width range [17/16, 17/16] holds no multiple of 1/8: "
            "widths are drawn on a 1/8 grid\n")
        assert not inst.exists()

    def test_run_csv_format(self, tmp_path):
        inst = tmp_path / "i.jsonl"
        self.run_cli("gen", "--d", "2", "--N", "32", "--count", "4",
                     "--seed", "5", "--out", str(inst))
        code, out = self.run_cli("run", str(inst), "--format", "csv")
        assert code == 0
        head, row = out.strip().splitlines()
        assert head.split(",")[:3] == ["d", "N", "alpha"]
        assert row.split(",")[0] == "2"

    def test_run_rejects_boolean_header(self, tmp_path, capsys):
        path = tmp_path / "bool.jsonl"
        path.write_text('{"d":true,"N":8,"alpha":1,"count":true}\n'
                        '{"shape":"cube","corner":[0],"width":4}\n')
        code, out = self.run_cli("run", str(path))
        assert code == 2
        assert out == ""
        assert "dimension" in capsys.readouterr().err

    def test_adversary_command(self):
        code, out = self.run_cli("adversary", "--d", "2", "--N", "256",
                                 "--shape", "ball")
        assert code == 0
        assert "forced_minimum_met=True" in out

    @pytest.mark.parametrize("shape, aspect", [("cube", "1,5"), ("ball", "7")])
    def test_adversary_aspect_needs_a_box(self, shape, aspect, capsys):
        code, out = self.run_cli("adversary", "--shape", shape,
                                 "--aspect", aspect)
        assert code == 2 and out == ""
        assert capsys.readouterr().err == \
            f"error: aspect applies to boxes only, not a {shape}\n"

    def test_verify_command(self):
        code, out = self.run_cli("verify", "--suite", "oracle",
                                 "--count", "10")
        assert code == 0
        assert "oracle: pass" in out

    @pytest.mark.parametrize("args", [
        ("--suite", "oracle", "--count", "-3"),
        ("--suite", "ratio", "--count", "0"),
        ("--suite", "levelcount", "--N", "2"),
        ("--suite", "levelcount", "--N", "3"),
    ])
    def test_verify_rejects_values_that_check_nothing(self, args, capsys,
                                                      monkeypatch):
        def refuse(name, **params):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(harness, "run_suite", refuse)
        code, out = self.run_cli("verify", *args)
        assert code == 2 and out == ""
        flag, value = args[2:]
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be >= ")
        assert err.endswith(f"got {value}\n")

    def test_verify_flags_reach_the_suite(self, capsys):
        code, out = self.run_cli("verify", "--suite", "stepcap",
                                 "--count", "5", "--seed", "3")
        assert code == 0
        res = harness.verify_step_caps(count=5, seed=3)
        assert out == f"stepcap: pass ({res.checked} checks)\n"
        assert capsys.readouterr().err == ""

    def test_verify_ignored_flag_is_noted(self, capsys):
        code, out = self.run_cli("verify", "--suite", "levelcount",
                                 "--N", "16", "--seed", "3")
        assert code == 0
        res = harness.verify_level_count(N=16)
        assert out == f"levelcount: pass ({res.checked} checks)\n"
        assert capsys.readouterr().err == \
            "note: --seed ignored for --suite levelcount\n"

    def test_verify_all_ignores_flags(self, capsys, monkeypatch):
        # ``all`` runs every suite at its defaults; stub the sweeps out.
        seen = []

        def run_suite(name, **params):
            seen.append((name, params))
            return [harness.SuiteResult(name, True, 0)]

        monkeypatch.setattr(harness, "run_suite", run_suite)
        code, out = self.run_cli("verify", "--suite", "all", "--count", "3")
        assert code == 0
        assert seen == [("all", {})]
        assert capsys.readouterr().err == \
            "note: --count ignored for --suite all\n"

    def test_cli_import_loads_no_process_pool(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, gridhit.cli; print(sorted("
             "m for m in ('multiprocessing', 'concurrent.futures') "
             "if m in sys.modules))"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_modules_import_only_lower_layers(self):
        # The package's layers, lowest first; ``__init__`` may import any.
        allowed = {
            "errors": set(), "exactnum": set(),
            "geometry": {"errors", "exactnum"},
            "oracle": {"errors", "geometry"},
            "engine": {"errors", "exactnum", "geometry", "oracle"},
            "adversary": {"errors", "exactnum", "geometry"},
            "formats": {"errors", "exactnum", "geometry"},
            "harness": {"adversary", "engine", "errors", "exactnum",
                        "formats", "geometry", "oracle"},
            "cli": {"errors", "formats", "harness"},
        }
        for path in sorted(Path(G.__file__).parent.glob("*.py")):
            if path.stem == "__init__":
                continue
            assert path.stem in allowed, f"{path.stem} has no layer"
            found = set()
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    assert not node.level, f"relative import in {path.name}"
                    names = [f"gridhit.{a.name}" for a in node.names] \
                        if node.module == "gridhit" else [node.module]
                else:
                    continue
                found.update(n.split(".")[1] for n in names
                             if n.startswith("gridhit."))
            assert found <= allowed[path.stem], \
                (path.stem, found - allowed[path.stem])

    def test_verify_games_command(self):
        code, out = self.run_cli("verify", "--suite", "games")
        assert code == 0
        assert "games: pass" in out

    def test_missing_file_exits_two(self):
        code, _ = self.run_cli("run", "/nonexistent/path.jsonl")
        assert code == 2

    def test_bad_instance_exits_two(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"d":2,"N":16,"alpha":1}\n{"shape":"ball"}\n')
        code, _ = self.run_cli("run", str(bad))
        assert code == 2

    def test_console_entry_point(self, tmp_path):
        out = tmp_path / "i.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "gridhit.cli", "gen", "--d", "1",
             "--N", "16", "--count", "3", "--seed", "1", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert out.exists()


class TestBenchmarkHooks:
    def test_traced_names_resolve(self):
        # The benchmark wraps these names from outside the package; a
        # renamed or deleted one would only fail there.
        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("_bench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        names = [(owner, attr) for _, owner, attr in spans.TIMED]
        names += [(owner, attr) for _, owner, attrs in spans.COUNTED
                  for attr in attrs]
        assert len(names) == 33
        for owner, attr in names:
            module, _, cls = owner.partition(":")
            assert module.startswith("gridhit."), owner
            target = importlib.import_module(module)
            if cls:
                target = getattr(target, cls)
            assert callable(getattr(target, attr, None)), (owner, attr)
