"""Command-line interface: output formats, determinism and exit codes."""

import contextlib
import csv
import io
import json
import math
import subprocess
import sys

import pytest
import yaml
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from spinwitness import cli, scf, witness
from spinwitness.cli import main
from spinwitness.config import REQUIRED, SCHEMA, parse_config
from spinwitness.eigensolvers import SolverError
from spinwitness.hamiltonians import defected_ring
from spinwitness.operators import parse_spin, product_dim

RING4 = """\
model:
  topology: ring
  N: 4
  spin: "1/2"
"""

RING6_S1 = """\
model:
  topology: ring
  N: 6
  spin: "1"
"""

CHAIN2 = """\
model:
  topology: chain
  N: 2
  spin: "1/2"
"""


def write(tmp_path, text, name="run.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def one_cycle(start):
    """In place of scf's ``count``: every SCF branch runs one cycle."""
    return [start]


class TestGround:
    def test_two_site_chain(self, tmp_path, capsys):
        code, out, err = run_main(
            ["ground", "--config", write(tmp_path, CHAIN2)], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "e0,gap,s_squared,degenerate"
        fields = lines[1].split(",")
        assert fields[0] == "-7.500000000000e-01"
        assert fields[3] == "false"

    def test_degenerate_triangle(self, tmp_path, capsys):
        cfg = 'model: {topology: ring, N: 3, spin: "1/2"}\n'
        code, out, _ = run_main(
            ["ground", "--config", write(tmp_path, cfg)], capsys)
        assert code == 0
        assert out.splitlines()[1].split(",")[3] == "true"

    def test_marshall_ring(self, tmp_path, capsys):
        code, out, _ = run_main(
            ["ground", "--config", write(tmp_path, RING4)], capsys)
        fields = out.splitlines()[1].split(",")
        assert float(fields[2]) < 1e-8  # singlet
        assert fields[3] == "false"


class TestFormats:
    def test_json_structure(self, tmp_path, capsys):
        code, out, _ = run_main(
            ["ground", "--config", write(tmp_path, CHAIN2),
             "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["metadata"]["command"] == "ground"
        assert payload["metadata"]["seed"] == 42
        assert len(payload["metadata"]["config_hash"]) == 16
        assert payload["columns"][0] == "e0"
        # floats are emitted as bare JSON numbers in %.12e rendering
        assert '"e0"' in out
        assert "-7.500000000000e-01" in out
        assert payload["rows"][0][0] == pytest.approx(-0.75)

    def test_json_nan_is_null(self, tmp_path, capsys):
        # a threshold above the infinite-T mean has no crossing temperature
        cfg = RING4 + "thermal: {points: 2, thresholds: [5.0]}\n"
        code, out, _ = run_main(
            ["thermal", "--config", write(tmp_path, cfg), "--format", "json"],
            capsys)
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows[-1] == ["crossing", None, 5.0]

    def test_out_file_lf_endings(self, tmp_path, capsys):
        dest = tmp_path / "table.csv"
        code, out, _ = run_main(
            ["ground", "--config", write(tmp_path, CHAIN2),
             "--out", str(dest)], capsys)
        assert code == 0
        assert out == ""
        raw = dest.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        cfg = 'model: {topology: hexagon, N: 6, spin: "1/2"}\n'
        code, out, err = run_main(
            ["ground", "--config", write(tmp_path, cfg)], capsys)
        assert code == 2
        assert out == ""
        assert "config error" in err

    def test_missing_config_is_2(self, capsys):
        code, _, err = run_main(
            ["ground", "--config", "/nonexistent.yaml"], capsys)
        assert code == 2
        assert "config error" in err

    @pytest.mark.parametrize("content", [None, b'model: {spin: "\xbd"}\n'],
                             ids=["directory", "not-utf8"])
    def test_unreadable_config_is_2(self, tmp_path, capsys, content):
        path = tmp_path / "run.yaml"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        code, out, err = run_main(["ground", "--config", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert "config error" in err

    @pytest.mark.parametrize("out, message", [
        ("", "--out "), ("missing/x.csv", "--out "),
        ("x" * 300, "cannot write --out "),
    ], ids=["directory", "missing-directory", "name-too-long"])
    def test_unwritable_out_is_2_before_solving(self, tmp_path, capsys,
                                                monkeypatch, out, message):
        def solve(cfg, seed, workers):
            raise AssertionError("solved before --out was checked")
        monkeypatch.setitem(cli.COMMANDS, "ground", solve)
        code, out_text, err = run_main(
            ["ground", "--config", write(tmp_path, RING4),
             "--out", str(tmp_path / out)], capsys)
        assert code == 2
        assert out_text == ""
        assert err.startswith("config error: " + message)
        assert [p.name for p in tmp_path.iterdir()] == ["run.yaml"]

    def test_unopenable_out_is_2(self, tmp_path, capsys):
        # a name too long to open is refused before the solve, with the
        # message a failed write gives: a config error, not a traceback
        dest = tmp_path / ("x" * 300 + ".csv")
        code, out, err = run_main(
            ["ground", "--config", write(tmp_path, CHAIN2), "--out", str(dest)],
            capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"config error: cannot write --out {dest}: ")
        assert len(err.splitlines()) == 1

    def test_solver_failure_is_3(self, tmp_path, capsys):
        # N=17 qubit chain: reversal splits its 2M=1 sector (24310 states,
        # 70 of them mirror-symmetric) into blocks of 12190 and 12120, above
        # the dense limit, so the full-spectrum build must fail loudly
        cfg = ('model: {topology: chain, N: 17, spin: "1/2"}\n'
               'thermal: {points: 2}\n')
        code, out, err = run_main(
            ["thermal", "--config", write(tmp_path, cfg)], capsys)
        assert code == 3
        assert "solver failure" in err

    def test_solver_diagnostics_on_stderr(self, tmp_path, capsys, monkeypatch):
        def fail(cfg, seed, workers):
            raise SolverError("Lanczos failed to converge",
                              {"residual": 0.5, "dim": 70})
        monkeypatch.setitem(cli.COMMANDS, "ground", fail)
        code, out, err = run_main(
            ["ground", "--config", write(tmp_path, RING4)], capsys)
        assert code == 3
        assert out == ""
        assert 'diagnostics: {"dim": 70, "residual": 0.5}' in err.splitlines()

    def test_unconverged_bisep_is_3(self, tmp_path, capsys, monkeypatch):
        # one SCF iteration converges none of the odd-odd arc's branches
        monkeypatch.setattr(scf, "count", one_cycle)
        cfg = RING6_S1 + "bisep: {n_a: 3}\n"
        code, out, err = run_main(
            ["bisep", "--config", write(tmp_path, cfg)], capsys)
        assert code == 3
        assert out == ""
        lines = err.splitlines()
        assert lines[0] == "solver failure: no SCF branch converged"
        diag = json.loads(lines[1].removeprefix("diagnostics: "))
        assert diag["branches"] == 10
        assert len(diag["last_residuals"]) == 10
        assert (diag["n_a"], diag["offset"]) == (3, 1)  # the arc, as in a scan

    @pytest.mark.parametrize("command,extra", [
        ("thermal", "thermal: {points: abc}"),
        ("thermal", "thermal: {points: -1}"),
        ("verdict", "verdict: {energy: abc}"),
        # coupling keys and scf blocks, here and below, are unknown keys:
        # energies are in units of J, and the SCF search is fixed
        ("ground", "  coupling: abc"),  # continues RING4's model block
        ("bisep", "bisep: {n_a: 1}\nscf: {init_grid: 3}"),
        ("bisep", "bisep: {n_a: 9}"),
        ("bisep", "bisep: {n_a: 2, eta: -1}"),
        ("map", "map: {theta_points: abc}"),
        ("map", "map: {lengths: [0]}"),
        ("ground", "  defect: {site: abc, spin: \"1\"}"),  # continues RING4's model
        ("defect", "defect_series: {site: 1, spins: [abc]}"),
        # a whole number is required, never truncated
        ("bisep", "bisep: {n_a: 2.5}"),
        ("thermal", "thermal: {points: 2.7}"),
        ("ground", "  defect: {site: 1.5, spin: \"1\"}"),  # continues RING4's model
        ("bisep", "bisep: {n_a: 1}\nscf: {max_iter: 2.9}"),
        ("bisep", "bisep: {n_a: 1}\nscf: {etas: [1.9]}"),
        ("ground", "seed: true"),
        ("ground", "seed: -1"),  # Lanczos start vectors need a seed >= 0
        # a config that starts with its own model replaces RING4
        ("ground", 'model: {topology: ring, N: 2, spin: "1/2", '
                   'defect: {site: 1, spin: "1"}}'),
        ("ground", 'model: {topology: ring, N: 3, spin: "0", '
                   'defect: {site: 1, spin: "1"}}'),
        ("defect", "defect_series: {site: 9, spins: [\"1\"]}"),
        ("defect", "defect_series: {site: 1, spins: [\"1\"], labels: 5}"),
        ("defect", "defect_series: {site: 1, spins: [\"1\"], labels: [yes]}"),
        ("defect", "defect_series: {site: 1, spins: [\"1\", \"0\"], labels: []}"),
        ("defect", "defect_series: {site: 1, spins: []}"),
        ("bisep", "bisep: {n_a: 1}\nscf: {max_iter: 0}"),
        ("bisep", "bisep: {n_a: 1}\nscf: {init_grid: []}"),
        ("bisep", "bisep: {n_a: 1}\nscf: {etas: []}"),
        # accepted the first SCF cycle and reported E_bs 1.5e-6 too high
        ("bisep", 'model: {topology: ring, N: 8, spin: "1"}\n'
                  "bisep: {n_a: 2}\nscf: {tol: .inf}"),
        ("thermal", "thermal: {t_min: -1}"),
        # configs that select no rows
        ("map", "map: {lengths: []}"),
        ("map", "map: {moduli: []}"),
        ("map", "map: {modulus_diffs: []}"),
        ("map", "map: {theta_points: 0}"),
        ("thermal", "thermal: {points: 0}"),
        # refused before the spectrum: its 2M = 1 parity block (12190) is
        # above the dense limit
        ("thermal", 'model: {topology: chain, N: 17, spin: "1/2"}\n'
                    "thermal: {points: 0}"),
        # product spaces too large to enumerate: overflow, memory, int64 wrap
        ("ground", "model: {topology: ring, N: 4, spin: 1e400}"),
        ("ground", 'model: {topology: ring, N: 40, spin: "1/2"}'),
        ("ground", 'model: {topology: ring, N: 64, spin: "1/2"}'),
        ("map", "map: {lengths: [64]}"),
        ("map", "map: {lengths: [16]}"),  # 65536 states, above the dense limit
        ("defect", 'defect_series: {site: 1, spins: ["1e400"]}'),
        # a defect series substitutes one site of a homogeneous ring
        ("defect", 'model: {topology: chain, N: 4, spin: "1/2"}\n'
                   'defect_series: {site: 1, spins: ["1"]}'),
        ("defect", 'model: {topology: ring, N: 4, spins: ["1/2", "1/2", "1/2", "1"]}\n'
                   'defect_series: {site: 1, spins: ["1"]}'),
        ("defect", '  defect: {site: 2, spin: "1"}\n'  # continues RING4's model
                   'defect_series: {site: 1, spins: ["1"]}'),
        # J = 0 included
        ("ground", "  coupling: 0"),  # continues RING4's model block
        ("ground", 'model: {topology: ring, N: 6, spin: "3/2", coupling: 0.0}'),
        ("scan", 'model: {topology: ring, N: 6, spin: "3/2", coupling: 0.0}'),
    ], ids=["points-abc", "points-negative", "energy-abc", "coupling-abc",
            "init-grid-scalar", "arc-too-long", "bisep-eta", "theta-points-abc",
            "map-length-zero", "defect-site-abc", "series-spin-abc",
            "n-a-fraction", "points-fraction", "defect-site-fraction",
            "max-iter-fraction", "etas-fraction", "seed-bool", "seed-negative",
            "defected-ring-too-short", "defected-ring-spinless-base",
            "series-site-out-of-range", "series-labels-scalar", "series-label-bool",
            "series-labels-empty", "series-spins-empty", "max-iter-zero",
            "init-grid-empty", "etas-empty", "tol-infinite",
            "negative-temperature", "map-lengths-empty", "map-moduli-empty",
            "map-diffs-empty", "map-theta-points-zero", "thermal-points-zero",
            "thermal-points-zero-oversize",
            "spin-overflow", "qubits-40", "qubits-64",
            "map-length-64", "map-length-16", "series-spin-overflow",
            "series-chain-base", "series-mixed-base", "series-defected-base",
            "coupling-zero-dense", "coupling-zero-arpack", "coupling-zero-scan"])
    def test_malformed_value_is_2(self, tmp_path, capsys, command, extra):
        text = extra if extra.startswith("model:") else RING4 + extra
        code, out, err = run_main(
            [command, "--config", write(tmp_path, text + "\n")], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("config error:")

    @pytest.mark.parametrize("command,text", [
        # these exited 1 (MemoryError, OverflowError) or did not finish
        ("ground", 'model: {topology: chain, N: 1099511627776, spin: "1"}'),
        ("ground", 'model: {topology: ring, N: 1000000, spin: "1/2"}'),
        ("map", "map: {lengths: [1.0e+300]}"),  # a YAML float; 1e300 is a string
        ("map", "map: {theta_points: 1099511627776}"),
        ("thermal", RING4 + "thermal: {points: 1099511627776}"),
    ], ids=["model-n-2e40", "model-n-1e6", "map-lengths", "map-theta-points",
            "thermal-points"])
    def test_huge_integer_refused_by_bound(self, tmp_path, capsys, command, text):
        code, out, err = run_main(
            [command, "--config", write(tmp_path, text + "\n")], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("config error: invalid ")
        assert "must be <= " in err

    def test_negative_seed_flag_is_2(self, tmp_path, capsys):
        code, out, err = run_main(
            ["ground", "--config", write(tmp_path, RING4), "--seed", "-1"],
            capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("config error:")

    def test_workers_below_one_is_2(self, tmp_path, capsys):
        code, out, err = run_main(
            ["ground", "--config", write(tmp_path, RING4), "--workers", "-4"],
            capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("config error:")

    def test_missing_command_block_is_2(self, tmp_path, capsys):
        code, _, err = run_main(
            ["verdict", "--config", write(tmp_path, RING4)], capsys)
        assert code == 2


class TestBisepAndScan:
    def test_bisep_even_even_decoupled(self, tmp_path, capsys):
        cfg = RING4 + "bisep: {n_a: 2}\n"
        code, out, _ = run_main(
            ["bisep", "--config", write(tmp_path, cfg)], capsys)
        assert code == 0
        header, row = out.splitlines()
        record = dict(zip(header.split(","), row.split(",")))
        assert record["decoupled"] == "true"
        assert record["converged"] == "true"
        assert abs(float(record["e_bs"]) + 1.5) < 1e-10  # two singlet pairs

    def test_scan_rows_and_argmin(self, tmp_path, capsys):
        code, out, _ = run_main(
            ["scan", "--config", write(tmp_path, RING4)], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("n_a,offset,eta,e_bs")
        assert len(lines) == 3  # n_a = 1, 2
        assert sum(1 for l in lines[1:] if ",true," in l) == 1

    def test_chain_end_arc_matches_its_mirror(self, tmp_path, capsys):
        # the complement of the arc ending at the last site is sites 1..7,
        # the mirror image of the arc at offset 1
        e_bs = []
        for offset in (8, 1):
            cfg = ('model: {topology: chain, N: 8, spin: "1"}\n'
                   f"bisep: {{n_a: 1, offset: {offset}}}\n")
            code, out, _ = run_main(
                ["bisep", "--config", write(tmp_path, cfg)], capsys)
            assert code == 0
            record = dict(zip(*[l.split(",") for l in out.splitlines()]))
            e_bs.append(float(record["e_bs"]))
        assert e_bs[0] == pytest.approx(e_bs[1], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("command", ["scan", "verdict"])
    def test_unconverged_arc_is_3(self, tmp_path, capsys, monkeypatch,
                                  command, workers):
        # with one SCF iteration the odd-odd arc converges no branch (the
        # single-site arc runs none, the even-even one converges from z = 0);
        # a minimum over the other arcs is no threshold, so neither command
        # writes data, and the diagnostics name the failing arc
        monkeypatch.setattr(scf, "count", one_cycle)
        cfg = RING6_S1 + "verdict: {energy: -7.0}\n"
        code, out, err = run_main(
            [command, "--config", write(tmp_path, cfg), "--workers", workers],
            capsys)
        assert code == 3
        assert out == ""
        lines = err.splitlines()
        assert lines[0] == "solver failure: no SCF branch converged"
        diag = json.loads(lines[1].removeprefix("diagnostics: "))
        assert (diag["n_a"], diag["offset"], diag["branches"]) == (3, 1, 10)

    @pytest.mark.parametrize("command, offset", [
        ("bisep", 2), ("scan", 1), ("verdict", 1)])
    def test_odd_ring_cut_is_3(self, tmp_path, capsys, command, offset):
        # a non-collinear product state across Arc(1, 2) of this ring reaches
        # -6.5033206, below the collinear -6.5 the scan reported, so that a
        # verdict at -6.502 certified an energy a biseparable state attains;
        # every command on a cut with n_a = 2 exits 3 (the scans at the first)
        cfg = ('model: {topology: ring, N: 5, spins: ["1", "1", "1", "1", "3/2"]}\n'
               "verdict: {energy: -6.502}\nbisep: {n_a: 2, offset: 2}\n")
        code, out, err = run_main(
            [command, "--config", write(tmp_path, cfg), "--workers", "1"], capsys)
        assert code == 3
        assert out == ""
        lines = err.splitlines()
        assert lines[0].startswith("solver failure: ")
        diag = json.loads(lines[1].removeprefix("diagnostics: "))
        assert diag == {"n_a": 2, "n_sites": 5, "offset": offset}

    def test_bisep_unconverged_branches_on_stderr(self, tmp_path, capsys):
        # Arc(0, 2) of the 4-ring: four of its ten branches drift without
        # converging; the table on stdout is the decoupled minimum as before
        code, out, err = run_main(
            ["bisep", "--config", write(tmp_path, RING4 + "bisep: {n_a: 2}\n"),
             "--format", "json"], capsys)
        assert code == 0
        assert err == "warning: 4 of 10 branches unconverged\n"
        table = json.loads(out)
        record = dict(zip(table["columns"], table["rows"][0]))
        assert record["e_bs"] == -1.5
        assert record["decoupled"] and record["converged"]


class TestThermalAndVerdict:
    def test_thermal_curve_and_crossing(self, tmp_path, capsys):
        cfg = RING4 + ("thermal:\n  t_min: 0.0\n  t_max: 1.0\n  points: 3\n"
                       "  thresholds: [-1.5, 5.0]\n")
        code, out, _ = run_main(
            ["thermal", "--config", write(tmp_path, cfg)], capsys)
        assert code == 0
        lines = out.splitlines()
        curve = [l for l in lines if l.startswith("curve")]
        crossing = [l for l in lines if l.startswith("crossing")]
        assert len(curve) == 3 and len(crossing) == 2
        # threshold above the infinite-T mean has no crossing: nan sentinel
        assert "nan" in crossing[1]

    def test_verdict_sites(self, tmp_path, capsys):
        cfg = RING4 + "verdict: {energy: -1.9}\n"
        code, out, _ = run_main(
            ["verdict", "--config", write(tmp_path, cfg)], capsys)
        assert code == 0
        header, row = out.splitlines()
        record = dict(zip(header.split(","), row.split(",")))
        assert record["multipartite_detected"] == "true"
        assert record["sites_provably_entangled"] == "1;2;3;4"

    def test_verdict_prints_original_ring_positions(self, tmp_path, capsys):
        # a spinless site 3 leaves the chain 4, 5, 6, 1, 2; -1.65 lies below
        # the thresholds of its three inner sites, not those of its ends
        cfg = ('model: {topology: ring, N: 6, spin: "1/2", '
               'defect: {site: 3, spin: "0"}}\nverdict: {energy: -1.65}\n')
        code, out, _ = run_main(
            ["verdict", "--config", write(tmp_path, cfg)], capsys)
        assert code == 0
        record = dict(zip(*[l.split(",") for l in out.splitlines()]))
        assert record["sites_provably_entangled"] == "1;5;6"

    def test_verdict_solves_no_ground_energy(self, tmp_path, capsys,
                                             monkeypatch):
        argv = ["verdict", "--config",
                write(tmp_path, RING4 + "verdict: {energy: -1.9}\n")]
        want = run_main(argv, capsys)

        def refuse(*args, **kwargs):
            raise AssertionError("verdict solved a ground energy")
        monkeypatch.setattr(witness, "ground_energy", refuse)
        monkeypatch.setattr(cli, "ground_energy", refuse)
        assert run_main(argv, capsys) == want
        assert want[0] == 0

    def test_verdict_nothing_certified(self, tmp_path, capsys):
        cfg = RING4 + "verdict: {energy: 0.0}\n"
        code, out, _ = run_main(
            ["verdict", "--config", write(tmp_path, cfg)], capsys)
        record = dict(zip(*[l.split(",") for l in out.splitlines()]))
        assert record["multipartite_detected"] == "false"
        assert record["sites_provably_entangled"] == ""


class TestMapCommand:
    def test_map_headers_and_rows(self, tmp_path, capsys):
        cfg = ("map:\n  lengths: [3]\n  theta_points: 3\n"
               "  moduli: [0.5]\n  modulus_diffs: [0.0]\n")
        code, out, _ = run_main(
            ["map", "--config", write(tmp_path, cfg)], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("n_a,theta_b")
        assert len(lines) == 4

    def test_negative_second_modulus_skipped(self, tmp_path, capsys):
        cfg = ("map:\n  lengths: [3]\n  theta_points: 2\n"
               "  moduli: [0.1]\n  modulus_diffs: [0.0, 0.25]\n")
        code, out, _ = run_main(
            ["map", "--config", write(tmp_path, cfg)], capsys)
        assert code == 0
        rows = [l.split(",") for l in out.splitlines()[1:]]
        assert len(rows) == 2 and all(float(r[2]) == 0.0 for r in rows)
        # a map whose every pair is skipped selects no rows
        code, out, err = run_main(
            ["map", "--config", write(tmp_path, cfg.replace("0.0, ", ""))], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("config error:")


    def test_overflowing_second_modulus_is_2(self, tmp_path, capsys):
        # 1e308 - (-1e308) overflows; refused before any solve
        cfg = ("map: {lengths: [2], moduli: [1.0e+308], "
               "modulus_diffs: [-1.0e+308]}\n")
        code, out, err = run_main(
            ["map", "--config", write(tmp_path, cfg)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("config error: map:")

    # a numpy overflow warning is an error here, as it would reach stderr
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_largest_finite_fields_solve(self, tmp_path, capsys):
        # fields of 1e308 on spins 1: each matrix element is finite, and the
        # degenerate level at theta = pi is resolved without overflow, also
        # in the degeneracy windows, which compare levels without e - e0
        cfg = ('map: {lengths: [2], spin: "1", theta_points: 2, '
               "moduli: [1.0e+308], modulus_diffs: [1.0e+308]}\n")
        code, out, err = run_main(
            ["map", "--config", write(tmp_path, cfg)], capsys)
        assert code == 0, err
        assert err == ""
        assert len(out.splitlines()) == 3

    def test_spin_zero_is_2(self, tmp_path, capsys):
        # each chain is a SpinSystem, and a spinless site is none
        code, out, err = run_main(
            ["map", "--config", write(tmp_path, 'map: {spin: "0"}\n')], capsys)
        assert (code, out) == (2, "")
        assert err == "config error: map: spin must be > 0\n"


class TestDefectCommand:
    def test_series_rows(self, tmp_path, capsys):
        cfg = RING4 + "defect_series:\n  site: 1\n  spins: [\"0\", \"1\"]\n"
        code, out, _ = run_main(
            ["defect", "--config", write(tmp_path, cfg)], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "label,defect_spin,k,e0,ebs_k,cost"
        assert len(lines) == 9  # 2 substitutions x 4 sites
        zero_cost = [l for l in lines if l.startswith("s_M=0,0,1,")]
        assert zero_cost and zero_cost[0].endswith("0.000000000000e+00")

    def test_empty_label_is_kept(self, tmp_path, capsys):
        cfg = RING4 + ('defect_series: {site: 1, spins: ["1", "1/2"], '
                       'labels: ["", "B"]}\n')
        code, out, _ = run_main(
            ["defect", "--config", write(tmp_path, cfg), "--workers", "1"], capsys)
        assert code == 0
        labels = [line.split(",")[0] for line in out.splitlines()[1:]]
        assert labels == [""] * 4 + ["B"] * 4

    def test_label_with_comma_or_quote_is_one_cell(self, tmp_path, capsys):
        cfg = RING4 + ('defect_series: {site: 1, spins: ["1", "1/2"], '
                       'labels: ["Cr7Ni, x", "say \\"B\\""]}\n')
        code, out, _ = run_main(
            ["defect", "--config", write(tmp_path, cfg), "--workers", "1"], capsys)
        assert code == 0
        header, *rows = csv.reader(io.StringIO(out))
        assert len(header) == 6 and len(rows) == 8
        assert all(len(row) == 6 for row in rows)
        assert [row[0] for row in rows] == ["Cr7Ni, x"] * 4 + ['say "B"'] * 4

    def test_labels_mismatch_is_config_error(self, tmp_path, capsys):
        cfg = RING4 + ("defect_series:\n  site: 1\n  spins: [\"0\", \"1\"]\n"
                       "  labels: [only-one]\n")
        code, _, err = run_main(
            ["defect", "--config", write(tmp_path, cfg)], capsys)
        assert code == 2


class TestDeterminism:
    def test_scan_byte_identical(self, tmp_path):
        path = write(tmp_path, RING4)
        runs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "spinwitness.cli", "scan",
                 "--config", path, "--seed", "7"],
                capture_output=True)
            assert proc.returncode == 0
            runs.append(proc.stdout)
        assert runs[0] == runs[1]

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        path = write(tmp_path, RING4 + "seed: 11\n")
        code, out, _ = run_main(
            ["ground", "--config", path, "--seed", "5", "--format", "json"],
            capsys)
        assert json.loads(out)["metadata"]["seed"] == 5


# Exit-code fuzzing.  Every key's candidates are the values of POOL that its
# own SCHEMA converter accepts, so a key added to SCHEMA is fuzzed with no
# change here.  No candidate allocates before it is refused: the largest
# integer (10**12) is above every count bound, and a spin of 10**12 is
# refused by the exact product dimension.
SCALARS = [True, -1, 0, 1, 2, 3, 4, 5, 6, 10**12, 0.0, 0.5, -0.5, 1.5, 1e-12,
           1e300, math.inf, math.nan, "ring", "chain", "0", "1/2", "1", "3/2",
           "abc"]
POOL = (SCALARS + [[], ["1/2", "1"], ["1", "0"], [0.5, 0.25], [0.0, 0.45]]
        + [[x] * k for x in SCALARS for k in (1, 2, 3, 4)])
# states of the largest space a drawn command may solve: ground reaches
# sectors above LANCZOS_CROSSOVER (the 2M = 0 sector of six spins 3/2 has
# 580 states), every other command stays at a few hundred
STATE_CAP = {"ground": 4096}
DEFAULT_STATE_CAP = 256
MAP_ROWS_CAP = 48  # boundary_map solves per map run


def _accepts(convert, value) -> bool:
    try:
        convert(value)
    except (TypeError, ValueError, OverflowError):  # ConfigError included
        return False
    return True


def _candidates(convert) -> list:
    return [v for v in POOL if _accepts(convert, v)]


def _block(name):
    """A SCHEMA block: its required keys and a random subset of the others,
    each drawn from the candidates its converter accepts.  Blocks of the top
    level are always present, so each command finds the block it reads."""
    required, optional = {}, {}
    for key, (convert, default) in SCHEMA[name].items():
        path = f"{name}.{key}" if name else key
        if path in SCHEMA:
            value = _block(path)
        else:
            value = st.sampled_from(_candidates(convert))
        top_block = not name and path in SCHEMA
        (required if default is REQUIRED or top_block else optional)[key] = value
    return st.fixed_dictionaries(required, optional=optional)


def _slots(block):
    """(mapping, key) of every key of a drawn config, nested ones included."""
    for key, value in block.items():
        yield block, key
        if isinstance(value, dict):
            yield from _slots(value)


@st.composite
def configs(draw):
    """A config valid key by key, with at most one key then set to any
    candidate, to null or removed."""
    raw = draw(_block(""))
    model = raw["model"]
    if ("spin" in model) == ("spins" in model):  # parse_config needs one
        model.pop("spins", None)
        model["spin"] = draw(st.sampled_from(_candidates(SCHEMA["model"]["spin"][0])))
    if draw(st.integers(0, 2)) == 0:
        block, key = draw(st.sampled_from(list(_slots(raw))))
        value = draw(st.sampled_from(POOL + [None, {}, "remove"]))
        if value == "remove":
            del block[key]
        else:
            block[key] = value
    return raw


def _solve_size(raw, command):
    """States of the largest space `command` solves for `raw` (the map: times
    its rows over MAP_ROWS_CAP), or 0 when it is refused before solving."""
    try:
        cfg = parse_config(raw)
        if command == "map":
            block = cfg.block("map")
            rows = (len(block["lengths"]) * len(block["moduli"])
                    * len(block["modulus_diffs"]) * block["theta_points"])
            spins = [parse_spin(block["spin"])] * max(block["lengths"], default=0)
            return product_dim(spins) * max(1, math.ceil(rows / MAP_ROWS_CAP))
        system, _ = cfg.build_system()
        spaces = [system.site_two_s]
        if command == "defect":
            block = cfg.block("defect_series")
            spaces += [defected_ring(system, block["site"] - 1, spin)[0].site_two_s
                       for spin in block["spins"]]
        return max(product_dim(space) for space in spaces)
    except ValueError:  # ConfigError included
        return 0


@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from(sorted(cli.COMMANDS)), raw=configs(),
       fmt=st.sampled_from(["csv", "json"]))
def test_exit_code_contract_fuzzed_from_schema(tmp_path_factory, command, raw, fmt):
    """Every command on any config exits 0, 2 or 3 and never raises."""
    assume(_solve_size(raw, command) <= STATE_CAP.get(command, DEFAULT_STATE_CAP))
    path = tmp_path_factory.getbasetemp() / "fuzz.yaml"
    path.write_text(yaml.safe_dump(raw))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main([command, "--config", str(path), "--format", fmt,
                     "--workers", "1"])
    event(f"{command} exit {code}")
    assert code in (0, 2, 3), err.getvalue()


# Extreme values: energies and thresholds near the float range, and map
# fields at the edge of overflow.  N <= 5 and spins <= 3/2 keep every solve
# on the dense route.
SPINS = ["1/2", "1", "3/2"]
EXTREMES = [0.0, 0.5, -1.0, 1e-320, 1e308, -1e308]


@st.composite
def extreme_configs(draw):
    n = draw(st.integers(2, 5))
    model = {"topology": draw(st.sampled_from(["ring", "chain"])), "N": n}
    if draw(st.booleans()):
        model["spin"] = draw(st.sampled_from(SPINS))
    else:
        model["spins"] = draw(st.lists(st.sampled_from(SPINS), min_size=n,
                                       max_size=n))
    some = st.lists(st.sampled_from(EXTREMES), min_size=1, max_size=2)
    return {
        "model": model,
        "bisep": {"n_a": draw(st.integers(1, 3)),
                  "offset": draw(st.integers(1, n))},
        "verdict": {"energy": draw(st.sampled_from(EXTREMES))},
        "defect_series": {"site": draw(st.integers(1, n)),
                          "spins": draw(st.lists(st.sampled_from(["0"] + SPINS),
                                                 min_size=1, max_size=2))},
        "thermal": {"points": draw(st.integers(0, 2)),
                    "thresholds": draw(st.lists(st.sampled_from(EXTREMES),
                                                max_size=2))},
        "map": {"lengths": [draw(st.integers(1, 3))],
                "spin": draw(st.sampled_from(SPINS)),
                "theta_points": draw(st.integers(1, 3)),
                "moduli": draw(some), "modulus_diffs": draw(some)},
    }


@settings(max_examples=30, deadline=None)
@given(raw=extreme_configs())
def test_any_config_exits_0_2_or_3(tmp_path_factory, raw):
    """Every command on a small config of extreme values exits 0, 2 or 3,
    and no other exception escapes."""
    path = tmp_path_factory.getbasetemp() / "extreme.yaml"
    path.write_text(yaml.safe_dump(raw))
    for command in sorted(cli.COMMANDS):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([command, "--config", str(path), "--workers", "1"])
        event(f"{command} exit {code}")
        assert code in (0, 2, 3), (command, err.getvalue())
