"""Per-layer instrumentation of spinwitness, applied from outside the package.

`install` wraps the public functions of each package module (and the LAPACK
kernels they call through ``scipy.linalg``) in spans.  `counters` reduces the
spans of one CLI invocation to additive counters, and `metrics` turns the
counters of one workload sample into the per-layer metrics the benchmark
reports.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict

from spans import package_modules, rebind, self_times


def _eigh_attrs(args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    values = result[0] if isinstance(result, tuple) else result
    return {"dim": int(a.shape[0]), "pairs": int(len(values))}


def _nnz_attrs(args, kwargs, result):
    return {"nnz": int(result.matrix.nnz)}


def _lanczos_attrs(args, kwargs, result):
    op = args[0] if args else kwargs["op"]
    return {"dim": int(op.dim), "iterations": int(result[2])}


def _fixed_point_key(branch):
    # keyed per eta: a branch can only reuse a fixed point of its own sign
    return (branch.eta,) + tuple(round(float(z), 6) for z in
                                 (branch.z_a, branch.z_aprime, branch.z_b, branch.z_bprime))


def _branch_attrs(args, kwargs, result):
    _, results = result
    run = [b for b in results if not b.decoupled]
    converged = [b for b in run if b.converged]
    return {"branches": len(run), "converged": len(converged),
            "iterations": int(sum(b.iterations for b in run)),
            "distinct": len({_fixed_point_key(b) for b in converged})}


# (span name, module, qualified name, span attributes)
TARGETS = [
    ("config.load", "spinwitness.config", "load_config", None),
    ("cli.emit", "spinwitness.cli", "emit", None),
    ("operators.basis", "spinwitness.operators", "ProductBasis.__init__", None),
    ("operators.bond", "spinwitness.operators", "heisenberg_bond", None),
    ("operators.s2", "spinwitness.operators", "total_spin_squared", None),
    ("hamiltonians.build", "spinwitness.hamiltonians", "build_hamiltonian",
     _nnz_attrs),
    ("hamiltonians.build", "spinwitness.hamiltonians", "build_on_sites",
     _nnz_attrs),
    ("eigensolvers.sectored", "spinwitness.eigensolvers",
     "sectored_ground_state", None),
    ("eigensolvers.ground_state", "spinwitness.eigensolvers", "ground_state",
     None),
    ("eigensolvers.lanczos", "spinwitness.eigensolvers", "lanczos_ground",
     _lanczos_attrs),
    ("scf.solver_init", "spinwitness.scf", "CollinearChainSolver.__init__",
     None),
    ("scf.solver_ground", "spinwitness.scf", "CollinearChainSolver.ground",
     None),
    ("scf.bisep", "spinwitness.scf", "biseparable_minimum_detailed",
     _branch_attrs),
    ("scf.scan", "spinwitness.scf", "biseparable_scan", None),
    ("witness.ground_energy", "spinwitness.witness", "ground_energy", None),
    ("witness.threshold", "spinwitness.witness", "single_site_threshold", None),
    ("witness.table", "spinwitness.witness", "threshold_table", None),
    ("witness.table", "spinwitness.witness", "defect_series", None),
    ("witness.spectrum", "spinwitness.witness", "full_spectrum", None),
    ("witness.thermal", "spinwitness.witness", "thermal_energy", None),
    ("witness.thermal", "spinwitness.witness", "threshold_temperature", None),
    ("lapack.eigh", "scipy.linalg", "eigh", _eigh_attrs),
    ("lapack.eigvalsh", "scipy.linalg", "eigvalsh", _eigh_attrs),
]


def install(tracer) -> list:
    """Wrap every target; returns the targets that no longer exist."""
    import spinwitness.cli  # loads every package module

    modules = package_modules("spinwitness")
    missing = []
    targets = list(TARGETS) + [
        ("cli.command", "spinwitness.cli", name, None)
        for name in sorted({fn.__name__ for fn in spinwitness.cli.COMMANDS.values()})]
    for span_name, module_name, qualname, attrs in targets:
        owner = importlib.import_module(module_name)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            missing.append(f"{module_name}:{qualname}")
            continue
        wrapped = tracer.wrap(span_name, original, attrs)
        if path:  # a method: patch the class once
            setattr(owner, attr, wrapped)
        else:
            setattr(sys.modules[module_name], attr, wrapped)
            rebind(original, wrapped, modules)
    return missing


MAX_KEYS = ("lapack.eigh.dim_max", "eigensolvers.lanczos.dim_max")


def counters(spans) -> dict:
    """Additive counters (and two maxima) of one traced invocation."""
    c = defaultdict(float)
    by_id = {s["id"]: s for s in spans}
    for span, own in zip(spans, self_times(spans)):
        name = span["name"]
        c[name + ".calls"] += 1
        c[name + ".s"] += own
        if name == "lapack.eigh":
            c["lapack.eigh.dim_max"] = max(c["lapack.eigh.dim_max"], span["dim"])
            c["lapack.eigh.flops"] += span["dim"] ** 3
            parent = by_id.get(span["parent"])
            if parent is not None and parent["name"] == "eigensolvers.ground_state":
                c["dense.ground_solves"] += 1
                c["dense.eigenpairs"] += span["pairs"]
        elif name == "eigensolvers.lanczos":
            c["eigensolvers.lanczos.iterations"] += span["iterations"]
            c["eigensolvers.lanczos.dim_max"] = max(
                c["eigensolvers.lanczos.dim_max"], span["dim"])
        elif name == "hamiltonians.build":
            c["hamiltonians.nnz"] += span["nnz"]
        elif name == "scf.bisep":
            for key in ("branches", "converged", "iterations", "distinct"):
                c["scf." + key] += span[key]
    return dict(c)


def merge(parts) -> dict:
    """Counters of several invocations of one workload sample."""
    out = defaultdict(float)
    for part in parts:
        for key, value in part.items():
            out[key] = max(out[key], value) if key in MAX_KEYS else out[key] + value
    return dict(out)


def _ratio(num, den):
    return num / den if den else 0.0


# (metric, unit, better); the order is the order of BENCHMARK.json
METRICS = [
    ("scf.solver_ground.calls", "count", "lower"),
    ("scf.solver_ground.s", "s", "lower"),
    ("scf.iterations", "count", "lower"),
    ("scf.iterations_per_branch", "ratio", "lower"),
    ("scf.branches", "count", "lower"),
    ("scf.branches_converged_frac", "ratio", "higher"),
    ("scf.distinct_fixed_points_ratio", "ratio", "higher"),
    ("scf.bisep.s", "s", "lower"),
    ("scf.scan.s", "s", "lower"),
    ("scf.solver_init.calls", "count", "lower"),
    ("scf.solver_init.s", "s", "lower"),
    ("operators.bond.calls", "count", "lower"),
    ("operators.bond.s", "s", "lower"),
    ("operators.basis.calls", "count", "lower"),
    ("operators.basis.s", "s", "lower"),
    ("hamiltonians.build.calls", "count", "lower"),
    ("hamiltonians.build.s", "s", "lower"),
    ("hamiltonians.nnz", "count", "lower"),
    ("operators.s2.s", "s", "lower"),
    ("lapack.eigh.calls", "count", "lower"),
    ("lapack.eigh.s", "s", "lower"),
    ("lapack.eigh.dim_max", "count", "lower"),
    ("lapack.eigh.flops", "flop", "lower"),
    ("eigensolvers.ground_state.calls", "count", "lower"),
    ("eigensolvers.ground_state.s", "s", "lower"),
    ("eigensolvers.sectored.s", "s", "lower"),
    ("eigensolvers.dense.useful_ratio", "ratio", "higher"),
    ("eigensolvers.lanczos.calls", "count", "lower"),
    ("eigensolvers.lanczos.s", "s", "lower"),
    ("eigensolvers.lanczos.iterations", "count", "lower"),
    ("eigensolvers.lanczos.dim_max", "count", "lower"),
    ("lapack.eigvalsh.s", "s", "lower"),
    ("witness.spectrum.s", "s", "lower"),
    ("witness.thermal.calls", "count", "lower"),
    ("witness.thermal.s", "s", "lower"),
    ("witness.ground_energy.s", "s", "lower"),
    ("witness.threshold.calls", "count", "lower"),
    ("witness.threshold.s", "s", "lower"),
    ("witness.table.s", "s", "lower"),
    ("config.load.s", "s", "lower"),
    ("cli.command.s", "s", "lower"),
    ("cli.emit.s", "s", "lower"),
    ("proc.cpu_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

# counts that must repeat exactly at a fixed seed
DETERMINISTIC = [name for name, unit, _ in METRICS if unit in ("count", "flop")]


def metrics(c: dict, cpu_s: float, overhead_frac: float) -> dict:
    """Per-layer metrics of one workload sample from its merged counters."""
    c = defaultdict(float, c)
    derived = {
        "scf.iterations_per_branch": _ratio(c["scf.iterations"], c["scf.branches"]),
        "scf.branches_converged_frac": _ratio(c["scf.converged"], c["scf.branches"]),
        "scf.distinct_fixed_points_ratio": _ratio(c["scf.distinct"], c["scf.branches"]),
        "eigensolvers.dense.useful_ratio": _ratio(2 * c["dense.ground_solves"],
                                                  c["dense.eigenpairs"]),
        "proc.cpu_s": cpu_s,
        "trace.overhead_frac": overhead_frac,
    }
    out = {}
    for name, unit, _ in METRICS:
        value = derived[name] if name in derived else c[name]
        if unit in ("count", "flop"):
            value = int(value)
        out[name] = {"value": value, "unit": unit}
    return out
