"""Self-test of the benchmark itself (not of qloopk).

    python3 perfbench/selftest.py

Checks, in order:

1. ``BENCHMARK.json`` names exactly the per-layer metrics the tracer emits,
   with the same units and directions, and every metric name matches
   ``[A-Za-z0-9_.-]+``.
2. For every workload, one traced unit in a fresh interpreter matches the
   stored reference (fail ratio 0), and the same output checked against a
   corrupted copy of the reference fails (fail ratio 1).
3. Every traced span has ``calls > 0`` on at least one workload.

Takes about as long as one traced unit of each workload.
"""

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.run import child, fail_ratio, load_reference  # noqa: E402
from perfbench.tracer import METRICS, SPANS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def corrupt(obj):
    """A copy of a reference with its first leaf changed."""
    if isinstance(obj, dict):
        key = sorted(obj)[0]
        return {**obj, key: corrupt(obj[key])}
    if isinstance(obj, list):
        return [corrupt(obj[0])] + obj[1:]
    if isinstance(obj, bool):
        return not obj
    if isinstance(obj, int):
        return obj + 1
    return obj + "x"


def main() -> int:
    problems = []
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    if declared != METRICS:
        problems.append("BENCHMARK.json per_layer differs from tracer.METRICS: "
                        f"{sorted(set(declared) ^ set(METRICS))}")
    names = list(declared) + [m["name"] for m in bench["end_to_end"]] \
        + [w["name"] for w in bench["workloads"]]
    problems += [f"bad metric name {n!r}" for n in names if not NAME.fullmatch(n)]

    called = set()
    for w in bench["workloads"]:
        name = w["name"]
        reference = load_reference(name)
        rec = child(name, 0, "trace", "1.0")
        if "error" in rec:
            problems.append(f"{name}: traced unit raised\n{rec['error']}")
            continue
        good, bad = fail_ratio([rec], reference), fail_ratio([rec], corrupt(reference))
        print(f"{name}: fail_ratio {good} against the reference, "
              f"{bad} against a corrupted one")
        if (good, bad) != (0.0, 1.0):
            problems.append(f"{name}: reference check gave {good}/{bad}, "
                            "expected 0.0/1.0")
        called |= {s for s in SPANS if rec["layers"][s + ".calls"] > 0}
    problems += [f"span {s} has no calls on any workload"
                 for s in SPANS if s not in called]

    for p in problems:
        print("FAIL:", p)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
