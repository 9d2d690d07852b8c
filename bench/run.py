"""spinwitness benchmark: one workload, timed end to end or traced per layer.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every CLI invocation runs in a fresh process with ``--workers 1`` and the
workload seed as ``--seed``; OpenBLAS is pinned to one thread in those
processes only.  Each output is compared with the stored reference.

--trace 0 measures for S seconds: repeated set-up processes for setup_s,
then whole workload samples for wall_s, peak_rss_mb and pass_frac (the share
of invocations that exit 0 and match the reference).  Reported values are
medians over the samples.

--trace 1 runs the workload three times, the first and last time with every
layer wrapped in spans, checks that the traced output is byte-identical to
the untraced output and that the counts repeat exactly, and reports the
per-layer metrics of the first traced sample.  Spans are written as JSON lines under
bench/.work/trace/.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import check  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS, expected_output  # noqa: E402

WORKERS = 1
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1"}
SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class Run:
    """One benchmark run: its scratch directory, deadline and child processes."""

    def __init__(self, workload: str, seed: int, smoke: bool):
        self.workload = workload
        self.seed = seed
        self.src = os.path.join(ROOT, "src")
        self.work = os.path.join(BENCH, ".work", f"{workload}-{seed}-{os.getpid()}")
        self.trace_dir = os.path.join(BENCH, ".work", "trace")
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.invocations = WORKLOADS[workload].build(seed, smoke)
        self.env = dict(os.environ, **BLAS_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [self.src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
        os.makedirs(self.work, exist_ok=True)
        os.makedirs(self.trace_dir, exist_ok=True)
        self.configs = []
        for inv in self.invocations:
            path = os.path.join(self.work, f"{inv.tag}.yaml")
            with open(path, "w") as fh:
                json.dump(inv.config, fh)  # JSON is valid YAML
            self.configs.append(path)
        ref_dir = os.path.join(BENCH, "reference", "smoke" if smoke else "")
        self.expected = []
        for inv in self.invocations:
            with open(os.path.join(ref_dir, f"{workload}.{inv.tag}.csv")) as fh:
                self.expected.append(expected_output(fh.read(), inv))

    def child(self, config: str, argv=None, trace=None) -> dict | None:
        """Run child.py once; None when it crashed or ran out of time."""
        spec = {"src": self.src, "config": config, "argv": argv, "trace": trace}
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "child.py"), json.dumps(spec)],
                cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True,
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print(f"child timed out: {argv}", file=sys.stderr)
            return None
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"child failed ({proc.returncode}): {argv}", file=sys.stderr)
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setup_time(self) -> float | None:
        res = self.child(self.configs[0])
        return None if res is None else res["setup_s"]

    def sample(self, label: str, trace: bool = False) -> dict:
        """Every invocation of the workload once, each in a fresh process."""
        parts = []
        for inv, config, expected in zip(self.invocations, self.configs, self.expected):
            out = os.path.join(self.work, f"{inv.tag}.{label}.csv")
            argv = [inv.command, "--config", config, "--out", out,
                    "--seed", str(self.seed), "--workers", str(WORKERS)]
            spans = (os.path.join(self.trace_dir, f"{self.workload}-{self.seed}-"
                                  f"{inv.tag}-{label}.jsonl") if trace else None)
            res = self.child(config, argv, spans) or {}
            text = None
            if res.get("exit") == 0 and os.path.exists(out):
                with open(out, "rb") as fh:
                    text = fh.read()
            problems = (["exit code %s" % res.get("exit")] if text is None
                        else check.mismatches(text.decode(), expected))
            for p in problems[:5]:
                print(f"{self.workload} {inv.tag} {label}: {p}", file=sys.stderr)
            parts.append({"res": res, "text": text, "ok": not problems})
        return {
            "parts": parts,
            "wall_s": sum(p["res"].get("wall_s", 0.0) for p in parts),
            "cpu_s": sum(p["res"].get("cpu_s", 0.0) for p in parts),
            "rss_mb": max(p["res"].get("maxrss_kb", 0) for p in parts) / 1024.0,
            "setup_s": [p["res"]["setup_s"] for p in parts if "setup_s" in p["res"]],
            "counters": layers.merge(p["res"].get("counters", {}) for p in parts),
            "versions": next((p["res"]["versions"] for p in parts if p["res"]), {}),
        }


def conditions(versions: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "workers": WORKERS, "blas_threads": BLAS_ENV,
            "cpu": cpu, **versions}


def timed(run: Run, seconds: float):
    """--trace 0: set-up repeats, then whole samples until `seconds` is spent."""
    run.setup_time()  # fills bytecode caches; users do not pay this per run
    start = time.monotonic()
    setups = [s for s in (run.setup_time() for _ in range(SETUP_REPEATS)) if s is not None]
    samples = []
    while True:
        t = time.monotonic()
        samples.append(run.sample(f"s{len(samples)}"))
        took = time.monotonic() - t
        if time.monotonic() - start + took > seconds:
            break
    for s in samples:
        setups += s["setup_s"]
    metrics = {
        "wall_s": {"value": statistics.median(s["wall_s"] for s in samples), "unit": "s"},
        "setup_s": {"value": statistics.median(setups) if setups else 0.0, "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(s["rss_mb"] for s in samples),
                        "unit": "MB"},
    }
    return samples, metrics, []


def traced(run: Run):
    """--trace 1: an untraced sample between two traced ones, per-layer metrics."""
    first = run.sample("trace1", trace=True)
    plain = run.sample("plain")
    second = run.sample("trace2", trace=True)
    problems = []
    for p, t1, t2 in zip(plain["parts"], first["parts"], second["parts"]):
        if p["text"] is None or not (p["text"] == t1["text"] == t2["text"]):
            problems.append("traced output differs from untraced output")
    # the untraced sample sits between the traced ones, so slow drift in
    # machine speed cancels to first order
    traced_wall = (first["wall_s"] + second["wall_s"]) / 2
    overhead = (traced_wall - plain["wall_s"]) / plain["wall_s"] if plain["wall_s"] else 0.0
    metrics = layers.metrics(first["counters"], plain["cpu_s"], overhead)
    repeat = layers.metrics(second["counters"], plain["cpu_s"], overhead)
    for name in layers.DETERMINISTIC:
        if metrics[name]["value"] != repeat[name]["value"]:
            problems.append(f"{name} differs between traced runs: "
                            f"{metrics[name]['value']} != {repeat[name]['value']}")
    return [first, plain, second], metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny systems with the same code paths (for tests)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "spinwitness", "cli.py")):
        print(f"no spinwitness sources under {ROOT}/src", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.smoke)
    try:
        samples, metrics, problems = traced(run) if args.trace else timed(run, args.seconds)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    parts = [p for s in samples for p in s["parts"]]
    failed = sum(not p["ok"] for p in parts)
    if not args.trace:
        metrics["pass_frac"] = {"value": 1.0 - failed / len(parts), "unit": "frac"}
    for p in problems:
        print(f"{args.workload}: {p}", file=sys.stderr)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"samples {len(samples)} invocations {len(parts)}")
    print("conditions " + json.dumps(conditions(samples[0]["versions"]), sort_keys=True))
    print(f"fail_frac {failed / len(parts):.4f} ({failed} of {len(parts)})")
    print("sample wall_s " + " ".join(f"{s['wall_s']:.4f}" for s in samples))
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": len(parts),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
