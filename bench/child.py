"""One spinwitness CLI invocation in a fresh process, timed from inside.

Usage: python3 child.py SPEC_JSON

SPEC keys: "src" (the source tree that must provide spinwitness), "config"
(YAML path), "argv" (CLI arguments, or null to time set-up only) and
"trace" (JSON-lines path for a traced invocation, or null).

Prints one JSON line: set-up time (import of spinwitness plus loading the
config), wall and CPU time of ``spinwitness.cli.main``, its exit code, peak
RSS, library versions and, when traced, the per-layer counters.
"""

import json
import os
import resource
import sys
import time
import traceback


def _cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def main() -> int:
    spec = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    import spinwitness.cli as cli
    from spinwitness.config import load_config

    load_config(spec["config"])
    setup_s = time.perf_counter() - t0

    src = os.path.realpath(spec["src"]) + os.sep
    if not os.path.realpath(cli.__file__).startswith(src):
        print(f"spinwitness was imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 1

    import numpy
    import scipy

    result = {"setup_s": setup_s,
              "versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__, "scipy": scipy.__version__}}
    if spec["argv"] is not None:
        tracer = None
        if spec["trace"]:
            import layers
            from spans import Tracer

            tracer = Tracer()
            missing = layers.install(tracer)
            if missing:
                print(f"trace targets not found: {missing}", file=sys.stderr)
        cpu0 = _cpu_s()
        t = time.perf_counter()
        try:
            code = cli.main(spec["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the benchmark records the failure and goes on
            traceback.print_exc()
            code = 1
        result["wall_s"] = time.perf_counter() - t
        result["cpu_s"] = _cpu_s() - cpu0
        result["exit"] = code
        if tracer is not None:
            result["counters"] = layers.counters(tracer.spans)
            tracer.write_jsonl(spec["trace"])
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
