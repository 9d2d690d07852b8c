"""Command-line interface.

Commands: ground | map | bisep | scan | defect | verdict | thermal.
Common flags: --config PATH, --format {csv|json}, --out PATH, --seed N,
--workers N.  Data goes to stdout (or --out); diagnostics to stderr.
Exit codes: 0 success, 2 config error, 3 solver failure (any failed arc of a
scan or verdict).  bisep writes unconverged branches to stderr as a warning.

Output is deterministic for a given config and seed: fixed row order,
%.12e float formatting and LF line endings.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, load_config
from .eigensolvers import DENSE_LIMIT, SolverError, sectored_ground_state
from .hamiltonians import CHAIN, SpinSystem, defected_ring
from .operators import parse_spin
from .scf import (biseparable_scan, bipartition_report, boundary_geometry,
                  boundary_map)
from .witness import (
    defect_series,
    full_spectrum,
    ground_energy,
    thermal_energy,
    threshold_table,
    threshold_temperature,
    verdict,
)

FLOAT_FMT = "%.12e"


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return FLOAT_FMT % value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return str(value)


def emit(columns, rows, fmt, out, metadata):
    """Write a table as CSV or JSON with deterministic formatting."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")  # quotes only where needed
        writer.writerow(columns)
        writer.writerows([_fmt(v) for v in row] for row in rows)
        text = buf.getvalue()
    else:
        # written by hand so floats keep their %.12e rendering as JSON numbers
        rows_text = ",".join("\n    [" + ", ".join(_json_cell(v) for v in row) + "]"
                             for row in rows)
        text = ('{\n  "columns": %s,\n  "metadata": %s,\n  "rows": [%s\n  ]\n}\n'
                % (json.dumps(list(columns)), json.dumps(metadata, sort_keys=True),
                   rows_text))
    if out:
        try:
            with open(out, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write --out {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _json_cell(value) -> str:
    """One JSON table cell; NaN and infinities have no JSON number, so null."""
    if isinstance(value, (float, np.floating)) and not np.isfinite(value):
        return "null"
    if isinstance(value, (float, np.floating, bool, np.bool_, int, np.integer)):
        return _fmt(value)
    return json.dumps(str(value))


def cmd_ground(cfg: RunConfig, seed: int, workers: int):
    system, _ = cfg.build_system()
    res = sectored_ground_state(system, seed=seed)
    columns = ["e0", "gap", "s_squared", "degenerate"]
    rows = [[res.energy, res.gap, res.s_squared, bool(res.degenerate)]]
    return columns, rows


def cmd_map(cfg: RunConfig, seed: int, workers: int):
    block = cfg.block("map")
    two_s = parse_spin(block["spin"])
    if not two_s:  # each chain is a SpinSystem, whose spins are > 0
        raise ConfigError("map: spin must be > 0")
    # the longest chain, counted exactly, is checked before any job starts
    dim = (two_s + 1) ** max(block["lengths"], default=0)
    if dim > DENSE_LIMIT:  # boundary_map solves each chain densely
        raise ConfigError(f"map: chain of {dim} states above the dense "
                          f"limit {DENSE_LIMIT}")
    # (modulus, diff, second modulus) but for a negative second one; every
    # level lies within (|modulus| + second modulus) s, which must be finite
    pairs = [(zb, dz, zb - dz) for zb in block["moduli"]
             for dz in block["modulus_diffs"] if zb - dz >= 0]
    if not all(np.isfinite((abs(zb) / 2 + m2 / 2) * two_s) for zb, _, m2 in pairs):
        raise ConfigError("map: a boundary field overflows the float range")
    thetas = np.linspace(0.0, np.pi, block["theta_points"])
    columns = ["n_a", "theta_b", "z_diff_b", "modulus_b",
               "thetabar_a", "z_diff_a", "modulus_a", "modulus_aprime"]
    rows = []
    for n_a in block["lengths"]:
        # a chain needs two sites: a spin 1/2 past range(n_a) adds no bond and,
        # unlike a copy of the map's spin (up to 600), fits MAX_PRODUCT_DIM
        system = SpinSystem.from_spins(CHAIN, [block["spin"]] * n_a + ["1/2"])
        for zb, dz, m2 in pairs:
            for th in thetas:
                z_bp = m2 * np.array([np.sin(th), 0.0, np.cos(th)])
                geo = boundary_geometry(
                    boundary_map(system, range(n_a), [0.0, 0.0, zb], z_bp))
                rows.append([n_a, float(th), float(dz), float(zb),
                             float(geo.theta), float(geo.modulus_diff),
                             float(geo.moduli[0]), float(geo.moduli[1])])
    return columns, rows


def cmd_bisep(cfg: RunConfig, seed: int, workers: int):
    system, _ = cfg.build_system()
    rep = bipartition_report(system, cfg.bisep_arc(system), seed)
    if rep.warning:  # stderr: the data is the table
        print(f"warning: {rep.warning}", file=sys.stderr)
    best = rep.result
    columns = ["n_a", "offset", "eta", "e_bs", "z_a", "z_aprime",
               "z_b", "z_bprime", "decoupled", "converged", "residual"]
    rows = [[rep.n_a, rep.offset + 1, best.eta, best.ebs, best.z_a,
             best.z_aprime, best.z_b, best.z_bprime, bool(best.decoupled),
             bool(best.converged), best.residual]]
    return columns, rows


def cmd_scan(cfg: RunConfig, seed: int, workers: int):
    system, _ = cfg.build_system()
    e0 = ground_energy(system, seed=seed)
    scan = biseparable_scan(system, seed, workers=workers)
    columns = ["n_a", "offset", "eta", "e_bs", "gap_to_e0", "decoupled",
               "z_a", "z_b", "is_global_min", "warning"]
    rows = []
    for rep in scan.reports:
        r = rep.result
        rows.append([rep.n_a, rep.offset + 1, r.eta, r.ebs, r.ebs - e0,
                     bool(r.decoupled), r.z_a, r.z_b,
                     bool(rep is scan.argmin), rep.warning])
    return columns, rows


def cmd_defect(cfg: RunConfig, seed: int, workers: int):
    block = cfg.block("defect_series")
    site, spins, labels = block["site"] - 1, block["spins"], block.get("labels")
    if labels is not None and len(labels) != len(spins):
        raise ConfigError("defect_series.labels length mismatch")
    if "defect" in cfg.block("model"):
        raise ConfigError("defect command needs a model without a defect")
    system, _ = cfg.build_system()
    try:  # every substitution is checked before any job starts
        for sm in spins:
            defected_ring(system, site, sm)
    except ValueError as exc:
        raise ConfigError(f"defect_series: {exc}") from exc
    tables = defect_series(system, site, spins, labels, seed, workers)
    columns = ["label", "defect_spin", "k", "e0", "ebs_k", "cost"]
    rows = [[table.label, str(sm), k + 1, table.e0, e, c]
            for table, sm in zip(tables, spins) for k, e, c in table.entries]
    return columns, rows


def cmd_verdict(cfg: RunConfig, seed: int, workers: int):
    system, site_labels = cfg.build_system()
    energy = cfg.block("verdict")["energy"]
    thresholds = threshold_table(system, seed)
    scan = biseparable_scan(system, seed, workers=workers)
    v = verdict(energy, thresholds, scan.ebs)
    columns = ["measured_energy", "global_ebs", "multipartite_detected",
               "sites_provably_entangled"]
    sites = ";".join(str(k + 1) for k in
                     sorted(site_labels[i] for i in v.sites_provably_entangled))
    rows = [[v.measured_energy, scan.ebs, bool(v.multipartite_detected), sites]]
    return columns, rows


def cmd_thermal(cfg: RunConfig, seed: int, workers: int):
    system, _ = cfg.build_system()
    block = cfg.block("thermal")
    columns = ["kind", "temperature", "energy"]
    if not block["points"] and not block["thresholds"]:
        return columns, []  # no rows: main refuses before any solve
    spectrum = full_spectrum(system)
    rows = [["curve", float(t), thermal_energy(spectrum, float(t))]
            for t in np.linspace(block["t_min"], block["t_max"], block["points"])]
    for ebs in block["thresholds"]:
        try:
            tstar = float(threshold_temperature(spectrum, ebs))
        except ValueError:
            tstar = np.nan
        rows.append(["crossing", tstar, ebs])
    return columns, rows


COMMANDS = {
    "ground": cmd_ground,
    "map": cmd_map,
    "bisep": cmd_bisep,
    "scan": cmd_scan,
    "defect": cmd_defect,
    "verdict": cmd_verdict,
    "thermal": cmd_thermal,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinwitness",
        description="Energy-based multipartite entanglement witnesses for "
                    "Heisenberg spin rings and chains")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="YAML run config")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--workers", type=int, default=None,
                        help="parallel workers for scans (default: cpu count)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None and args.seed < 0:
            raise ConfigError("--seed must be >= 0")  # as the config's seed
        if args.workers is not None and args.workers < 1:
            raise ConfigError("--workers must be >= 1")
        if args.out is not None:  # checked before the solve, not after it
            if os.path.isdir(args.out):
                raise ConfigError(f"--out {args.out} is a directory")
            if not os.path.isdir(os.path.dirname(args.out) or "."):
                raise ConfigError(f"--out {args.out}: no such directory")
            try:  # a name the file system rejects, say one too long
                os.stat(args.out)
            except FileNotFoundError:
                pass
            except OSError as exc:
                raise ConfigError(f"cannot write --out {args.out}: {exc}") from exc
        seed = args.seed if args.seed is not None else cfg.seed
        workers = args.workers if args.workers is not None else (os.cpu_count() or 1)
        columns, rows = COMMANDS[args.command](cfg, seed, workers)
        if not rows:
            raise ConfigError(f"the config selects no {args.command} rows")
        emit(columns, rows, args.format, args.out,
             {"version": __version__, "command": args.command, "seed": seed,
              "config_hash": cfg.digest()})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        if exc.diagnostics:
            print("diagnostics: " + json.dumps(exc.diagnostics, sort_keys=True,
                                               default=str), file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
