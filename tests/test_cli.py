"""End-to-end CLI behavior: output shapes, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rnlie.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out else None, err


class TestPlumbing:
    def test_usage_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            main(["certify"])
        assert exc.value.code == 1

    def test_missing_file_is_precondition(self, capsys):
        code, _, err = run(capsys, "moment", "--file", "/no/such/file.json")
        assert code == 2
        assert json.loads(err)["kind"] == "precondition"

    def test_corpus_listing(self, capsys):
        code, data, _ = run_json(capsys, "corpus")
        assert code == 0
        names = [e["name"] for e in data["entries"]]
        assert "heisenberg" in names and "tricky5" in names

    @pytest.mark.parametrize("argv", [("torus", "--algebra", "heisenberg:x"),
                                      ("moment", "--algebra", "tricky5:1.5"),
                                      ("corpus", "--name", "heisenberg:3.0")])
    def test_non_integer_parameter_is_precondition(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["kind"] == "precondition" and argv[-1] in error["error"]

    def test_non_finite_constant_is_precondition(self, capsys, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text('{"brackets": [[1, 2, [[3, "inf"]]]], "dim": 3, "scalars": "float"}')
        code, out, err = run(capsys, "derivations", "--file", str(path))
        assert code == 2 and out == ""
        assert json.loads(err)["kind"] == "precondition"

    @pytest.mark.parametrize("command", ["moment", "ricci"])
    @pytest.mark.parametrize("text", ["inf", "nan", "1e999"])
    def test_non_finite_constant_is_refused_where_it_stands(self, capsys, tmp_path,
                                                           command, text):
        path = tmp_path / "bad.json"
        path.write_text('{"brackets": [[1, 2, [[3, "%s"]]]], "dim": 3, "scalars": "float"}' % text)
        code, out, err = run(capsys, command, "--file", str(path))
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["kind"] == "precondition"
        assert error["error"] == f"brackets[0].targets[0]: scalar '{text}' is not finite"

    def test_seed_outside_philox_key_range_is_precondition(self, capsys):
        code, out, err = run(capsys, "certify", "--algebra", "tricky5", "--derivation",
                             '["-1","2","1","1","0"]', "--method", "sampled",
                             "--seed", "-1")
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "seed -1 is outside [0, 2**64)",
                                   "kind": "precondition"}

    def test_corpus_emit_and_file_load(self, capsys, tmp_path):
        code, out, _ = run(capsys, "corpus", "--name", "heisenberg:3")
        assert code == 0
        path = tmp_path / "h3.json"
        path.write_text(out)
        code, data, _ = run_json(capsys, "moment", "--file", str(path))
        assert code == 0
        assert data["diagonal"] == ["-1", "-1", "1"]
        assert data["trace"] == "-1"


class TestSharedParser:
    """main parses every call with one parser, built on first use; each
    call gets a namespace of its own."""

    CERTIFY = ("certify", "--algebra", "tricky5", "--derivation", "[1,1,2,2,3]",
               "--method", "sampled", "--sample-count", "8", "--seed", "17")

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_usage_error_leaves_no_trace(self, capsys):
        build_parser.cache_clear()
        first = run(capsys, *self.CERTIFY)
        build_parser.cache_clear()
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--algebra", "tricky5", "--method", "bogus"])
        assert exc.value.code == 1
        capsys.readouterr()
        assert run(capsys, *self.CERTIFY) == first
        assert first[0] == 0 and json.loads(first[1])["result"] == "Certificate"

    def test_seed_does_not_stick(self, capsys):
        args = ("orbit-sample", "--algebra", "tricky5", "--count", "4")
        seeded = run(capsys, *args, "--seed", "3")
        unseeded = run(capsys, *args)
        assert unseeded == run(capsys, *args, "--seed", "0")
        assert unseeded != seeded

    def test_seed_reads_no_environment(self, capsys, monkeypatch):
        """An unseeded run prints the bytes of --seed 0 even where every
        environment variable reads "5"."""
        class EveryVariable(dict):
            def __getitem__(self, key):
                return "5"

            def get(self, key, default=None):
                return "5"

        args = ("orbit-sample", "--algebra", "tricky5", "--count", "4")
        want = run(capsys, *args, "--seed", "0")
        monkeypatch.setattr(os, "environ", EveryVariable(os.environ))
        assert run(capsys, *args) == want

    def test_seed_before_or_after_the_command(self, capsys):
        after = run(capsys, *self.CERTIFY)
        before = run(capsys, "--seed", "17", *self.CERTIFY[:-2])
        assert before == after


class TestReports:
    def test_nice_violations(self, capsys):
        code, data, _ = run_json(capsys, "nice", "--algebra", "tricky5")
        assert code == 0
        assert data["nice"] is False
        assert data["multiple_targets"] == [[[1, 2], [3, 4]]]
        assert data["overlapping_pairs"] == [[[1, 3], [1, 4], 5]]

    def test_torus(self, capsys):
        code, data, _ = run_json(capsys, "torus", "--algebra", "tricky5")
        assert code == 0
        assert data["dimension"] == 2
        assert data["trace_functional"] == ["5", "4"]
        assert data["multiplicity_free"] is False

    def test_hull(self, capsys):
        code, data, _ = run_json(capsys, "hull", "--algebra", "tricky5")
        assert code == 0
        assert data["face_count"] == 9
        assert [1, 2, 3] in data["vertices"]

    def test_hull_bound_is_on_points(self, capsys):
        # heisenberg:9 has 19 basis directions but 4 weight points
        code, data, _ = run_json(capsys, "hull", "--algebra", "heisenberg:9")
        assert code == 0
        assert data["face_count"] == 15
        code, _, err = run(capsys, "hull", "--algebra", "filiform:19")
        assert code == 2
        assert "17 distinct points exceeds the hull bound 16" in err

    def test_ricci_extension(self, capsys):
        code, data, _ = run_json(capsys, "ricci", "--algebra", "heisenberg:3",
                                 "--derivation", "[1,1,2]")
        assert code == 0
        assert data["lambda_max"] == "-4.5"
        assert data["eigenvalues"] == ["-7.5", "-6", "-4.5", "-4.5"]

    def test_ricci_bracket_only(self, capsys):
        code, data, _ = run_json(capsys, "ricci", "--algebra", "heisenberg:3")
        assert code == 0
        assert data["scalar"] == "-0.5"

    def test_derivations_dimension(self, capsys):
        code, data, _ = run_json(capsys, "derivations", "--algebra",
                                 "heisenberg:3")
        assert code == 0
        assert data["dimension"] == 6 and len(data["basis"]) == 6


class TestCertify:
    def test_nice_certificate(self, capsys):
        code, data, _ = run_json(capsys, "certify", "--algebra",
                                 "heisenberg:3", "--derivation", "[1,1,2]")
        assert code == 0
        assert data["result"] == "Certificate" and data["margin"] == "3/2"
        assert data["coefficients"] == [[[1, 2, 3], "1/2"]]

    def test_infeasible(self, capsys):
        code, data, _ = run_json(capsys, "certify", "--algebra",
                                 "heisenberg:3", "--derivation",
                                 "[-1,1.5,0.5]")
        assert code == 0
        assert data["result"] == "Infeasible"

    def test_unknown_exit_three(self, capsys):
        code, data, _ = run_json(capsys, "certify", "--algebra", "tricky5",
                                 "--derivation", "[-1,2,1,1,0]", "--seed", "3",
                                 "--sample-count", "16")
        assert code == 3
        assert data["result"] == "Unknown"

    def test_necessary_gate(self, capsys):
        code, data, _ = run_json(capsys, "certify", "--algebra",
                                 "heisenberg:3", "--derivation", "[1,0,1]",
                                 "--method", "necessary")
        assert code == 0 and data["passes"] is True
        code, data, _ = run_json(capsys, "certify", "--algebra",
                                 "heisenberg:3", "--derivation", "[1,1,0]",
                                 "--method", "necessary")
        assert code == 0 and data["passes"] is False

    def test_constructive(self, capsys):
        """constructive is no method, so asking for it is a usage error;
        NiceLP certifies its old input with the same margin and
        coefficients."""
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--algebra", "heisenberg:3", "--derivation", "[0,1,1]",
                  "--method", "constructive"])
        assert exc.value.code == 1 and "invalid choice" in capsys.readouterr().err
        code, data, _ = run_json(capsys, "certify", "--algebra",
                                 "heisenberg:3", "--derivation", "[0,1,1]",
                                 "--method", "nice")
        assert code == 0
        assert data["method"] == "NiceLP" and data["margin"] == "1/2"
        assert data["coefficients"] == [[[1, 2, 3], "1/2"]]

    def test_bad_derivation_precondition(self, capsys):
        code, _, err = run(capsys, "certify", "--algebra", "heisenberg:3",
                           "--derivation", "[1,1,1]")
        assert code == 2 and json.loads(err)["kind"] == "precondition"

    def test_overflowing_non_derivation_refused(self, capsys):
        # d3 = 1 is not d1 + d2; the Leibniz residual overflows to inf
        for argv in (("certify", "--algebra", "heisenberg:3",
                      "--derivation", "[1e308, 1, 1]"),
                     ("degenerate", "--algebra", "heisenberg:3",
                      "--curve", "heintze:[1e308, 1, 1]")):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert json.loads(err)["kind"] == "precondition"

    @pytest.mark.parametrize("text", ['["x", 1, 1]', '["1/0", 1, 1]',
                                      "[[1,0],[0,1,2],[0,0,2]]"])
    def test_malformed_derivation_precondition(self, capsys, text):
        for argv in (("certify", "--algebra", "heisenberg:3", "--derivation", text),
                     ("degenerate", "--algebra", "heisenberg:3",
                      "--curve", f"heintze:{text}")):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert json.loads(err)["kind"] == "precondition"

    def test_sampled_non_derivation_refused(self, capsys):
        code, out, err = run(capsys, "certify", "--algebra", "tricky5",
                             "--derivation", '["1","1","1","1","3"]',
                             "--method", "sampled", "--sample-count", "8",
                             "--seed", "17")
        assert code == 2 and out == ""
        assert json.loads(err)["kind"] == "precondition"


class TestCone:
    def test_exact_json(self, capsys):
        code, data, _ = run_json(capsys, "cone", "--algebra", "heisenberg:3",
                                 "--trace-level", "1", "--exact")
        assert code == 0
        assert data["exactness"] == "Exact"
        assert data["vertices"] == [["-1/2", "1"], ["1", "-1/2"]]
        assert data["weyl_report"]["ok"] is True
        assert data["weyl_report"]["worst_distance"] == "0"

    def test_csv_octagon(self, capsys):
        code, out, _ = run(capsys, "cone", "--algebra", "heisenberg:5",
                           "--trace-level", "1", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "c1,c2,c3"
        assert len(lines) == 9
        assert "1/3,0,-1/3" in lines

    def test_exact_demanded_but_unavailable(self, capsys):
        code, _, err = run(capsys, "cone", "--algebra", "heisenberg:9",
                           "--trace-level", "1", "--exact")
        assert code == 2

    def test_scaled_level(self, capsys):
        code, data, _ = run_json(capsys, "cone", "--algebra", "heisenberg:3",
                                 "--trace-level", "2")
        assert code == 0
        assert data["vertices"] == [["-1", "2"], ["2", "-1"]]

    def test_level_below_float_range(self, capsys):
        # 1e-400 is a positive Fraction, though it rounds to 0.0 as a float
        code, data, _ = run_json(capsys, "cone", "--algebra", "heisenberg:3",
                                 "--trace-level", "1e-400")
        assert code == 0
        assert data["trace_level"] == f"1/{10**400}"
        assert data["vertices"] == [[f"-1/{2 * 10**400}", f"1/{10**400}"],
                                    [f"1/{10**400}", f"-1/{2 * 10**400}"]]
        assert data["weyl_report"]["ok"] is True

    def test_level_above_float_range(self, capsys):
        # the exact section has its bytes in both formats; the Weyl check
        # measures it on its level-1 vertices, which are floats
        code, out, _ = run(capsys, "cone", "--algebra", "heisenberg:3",
                           "--trace-level", "1e400", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["c1,c2", f"-{5 * 10**399},{10**400}",
                                    f"{10**400},-{5 * 10**399}"]
        code, data, _ = run_json(capsys, "cone", "--algebra", "heisenberg:3",
                                 "--trace-level", "1e400")
        assert code == 0
        assert data["trace_level"] == str(10**400)
        assert data["vertices"] == [[f"-{5 * 10**399}", str(10**400)],
                                    [str(10**400), f"-{5 * 10**399}"]]
        assert data["weyl_report"]["ok"] is True

    def test_filiform_weyl_report(self, capsys):
        code, data, _ = run_json(capsys, "cone", "--algebra", "filiform:10",
                                 "--trace-level", "1")
        assert code == 0
        assert data["weyl_report"] == {"actions_checked": 1, "ok": True,
                                       "worst_distance": "0"}


class TestDegenerate:
    def test_transfer(self, capsys):
        code, data, _ = run_json(capsys, "degenerate", "--algebra", "euclid3",
                                 "--curve", "diag:1,0,1", "--predicate",
                                 "ScalarNegative", "--t-max", "16")
        assert code == 0
        assert data["pinching"]["result"] == "Transfer"
        assert data["pinching"]["index"] == 1
        assert data["pinching"]["value"] == "-0.28125"
        assert data["trajectory"][0]["scalar"] == "0"

    def test_not_reached_exit_three(self, capsys):
        code, data, _ = run_json(capsys, "degenerate", "--algebra",
                                 "heisenberg:3", "--curve",
                                 "heintze:[0.1,0.1,0.2]", "--predicate",
                                 "RicciNegative", "--t-max", "2")
        assert code == 3
        assert data["pinching"]["result"] == "NotReached"

    def test_trajectory_only(self, capsys):
        code, data, _ = run_json(capsys, "degenerate", "--algebra",
                                 "heisenberg:3", "--curve", "heintze:[1,1,2]",
                                 "--t-max", "4")
        assert code == 0
        assert [r["t"] for r in data["trajectory"]] == ["1", "2", "4"]

    def test_bad_curve(self, capsys):
        code, _, err = run(capsys, "degenerate", "--algebra", "euclid3",
                           "--curve", "spiral:1")
        assert code == 2

    @pytest.mark.parametrize("exponent", ["inf", "-inf", "1e400", "nan"])
    def test_non_finite_exponent_is_a_bad_list(self, capsys, exponent):
        code, _, err = run(capsys, "degenerate", "--algebra", "euclid3",
                           "--curve", f"diag:{exponent},0,1")
        assert code == 2
        assert "bad exponent list" in err


class TestDeterminism:
    def test_sampled_certify_byte_identical(self, capsys):
        args = ("certify", "--algebra", "tricky5", "--derivation",
                "[1,1,2,2,3]", "--seed", "7", "--sample-count", "12")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_orbit_sample_byte_identical(self, capsys):
        args = ("orbit-sample", "--algebra", "tricky5", "--count", "6",
                "--seed", "11")
        code, first, _ = run(capsys, *args)
        assert code == 0
        assert first.splitlines()[0] == "index,d1,d2,d3,d4,d5"
        _, second, _ = run(capsys, *args)
        assert first == second


def test_import_loads_no_scipy():
    """The package and the CLI start without scipy; numpy.random loads
    only where a routine first draws."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys, rnlie, rnlie.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
            " or m.startswith('numpy.random')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# Runs in a process whose import system refuses every scipy module.
_REFUSING_SCIPY = """
import contextlib, importlib.abc, io, json, sys

class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError("scipy is refused: " + name)

sys.meta_path.insert(0, RefuseScipy())
import numpy as np
from rnlie import corpus, search_rn_metric
from rnlie.cli import main

for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    print(json.dumps([code, out.getvalue()]))
h7, h3 = corpus("heisenberg", 7).bracket, corpus("heisenberg", 3).bracket
a = search_rn_metric(np.diag([31, 33, 31, 33, 33, 31, 64]) / 256, h7, seed=1)
b = search_rn_metric(np.array([[-0.4, 0.3, 0.0], [0.0, 0.9, 0.0], [0.2, 0.0, 0.5]]), h3, seed=6)
print(json.dumps([type(a).__name__, type(b).__name__]))
print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")))
"""

_H3 = ("--algebra", "heisenberg:3", "--derivation", "[1,1,2]")
_SAMPLED_CERTIFY = ("certify", "--algebra", "tricky5", "--derivation", "[1, 1, 2, 2, 3]",
                    "--method", "sampled", "--sample-count", "8", "--seed", "1")
_EXACT_CONE = ("cone", "--algebra", "heisenberg:5", "--trace-level", "1", "--exact")
_SAMPLED_CONE = ("cone", "--algebra", "tricky5", "--trace-level", "1", "--resolution", "12",
                 "--seed", "5")


def test_run_time_needs_no_scipy():
    """Every subcommand, every certify method, orbit-sample for all three
    groups, exact and sampled cone sections (JSON and CSV), a metric
    search with two 3 x 3 centralizer blocks on heisenberg:7 and one whose
    D is not diagonal: all run with every scipy import refused."""
    commands = [
        ("ricci", "--algebra", "heisenberg:3"), ("ricci", *_H3),
        ("derivations", "--algebra", "heisenberg:3"), ("torus", "--algebra", "tricky5"),
        ("nice", "--algebra", "tricky5"), ("moment", "--algebra", "tricky5"),
        ("hull", "--algebra", "tricky5"),
        ("orbit-sample", "--algebra", "tricky5", "--count", "4", "--seed", "3"),
        ("orbit-sample", "--algebra", "tricky5", "--group", "DiagPositive", "--count", "4",
         "--seed", "17"),
        ("orbit-sample", "--group", "DerivationCentralizer", *_H3, "--count", "4"),
        ("certify", *_H3), ("certify", *_H3, "--method", "nice"), _SAMPLED_CERTIFY,
        ("certify", *_H3, "--method", "necessary"),
        _EXACT_CONE, _SAMPLED_CONE, (*_SAMPLED_CONE, "--format", "csv"),
        ("degenerate", "--algebra", "euclid3", "--curve", "diag:1,0,1",
         "--predicate", "ScalarNegative", "--t-max", "16"),
        ("corpus",), ("corpus", "--name", "heisenberg:3"),
    ]
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", _REFUSING_SCIPY, json.dumps(commands)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    *runs, searches, loaded = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [code for code, _ in runs] == [0] * len(commands)
    outputs = {argv: out for argv, (_, out) in zip(commands, runs)}
    subcommands = next(a.choices for a in build_parser()._actions if a.dest == "command")
    assert {command[0] for command in commands} == set(subcommands)
    assert '"Certificate"' in outputs[_SAMPLED_CERTIFY]
    assert '"Exact"' in outputs[_EXACT_CONE]
    assert '"SampledInner"' in outputs[_SAMPLED_CONE]
    assert outputs[(*_SAMPLED_CONE, "--format", "csv")].startswith("c1,c2\n")
    assert searches == ["RnWitness", "RnWitness"]
    assert loaded == []
