"""One benchmark sample: a fresh interpreter that sets up one workload and,
unless it only measures set-up, runs one unit of it.

    python3 perfbench/unit.py WORKLOAD SEED setup
    python3 perfbench/unit.py WORKLOAD SEED unit
    python3 perfbench/unit.py WORKLOAD SEED trace UNTRACED_PROOF_S

Prints one JSON object as the last line of stdout. ``ready`` is the
``time.monotonic()`` reading once imports are done and inputs are built; the
parent subtracts its own reading taken just before it started this process
(both read the system-wide monotonic clock). ``proof_s`` is the wall time of
the unit alone. In ``trace`` mode the library is wrapped by
:class:`perfbench.tracer.Tracer` before its inputs are built, and the record
carries the per-layer metrics.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv) -> int:
    import json
    import resource
    import traceback

    name, seed, mode = argv[0], int(argv[1]), argv[2]
    rec = {}
    try:
        import sympy

        import qloopk
        from perfbench import workloads
        tracer = None
        if mode == "trace":
            from perfbench.tracer import Tracer
            tracer = Tracer()
            tracer.install()
        wl = workloads.WORKLOADS[name]
        rec["extra_constants"] = workloads.register_seed_constants(seed)
        inputs = wl.build()
        rec["ready"] = time.monotonic()
        rec["sympy"] = sympy.__version__
        rec["qloopk"] = str(Path(qloopk.__file__).resolve().parent)
        if mode != "setup":
            covered0 = tracer.covered_s if tracer else 0.0
            t0 = time.perf_counter()
            result = wl.run(inputs)
            wall = time.perf_counter() - t0
            rec["proof_s"] = wall
            if tracer:
                tracer.uninstall()
                rec["layers"] = tracer.metrics(wall, tracer.covered_s - covered0,
                                               float(argv[3]))
            rec["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            rec["output"] = wl.render(result)
            rec["expect"] = wl.expect(rec["output"])
    except Exception:
        rec["error"] = traceback.format_exc()
    print(json.dumps(rec, sort_keys=True))
    return 1 if "error" in rec else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
