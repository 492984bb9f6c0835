"""Capture the reference output of every workload from the current sources.

    python3 perfbench/capture.py [WORKLOAD ...]

Runs one unit of each workload in a fresh interpreter and writes its output
to ``perfbench/reference/<workload>.json``. It refuses to write an output
that fails the workload's own expectations (every identity holds, every
reducible control has a witness). References are captured once, on a commit
whose output is trusted, and every later unit is compared with them.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.run import REFERENCE_DIR, child  # noqa: E402


def main(names) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in names or [w["name"] for w in bench["workloads"]]:
        rec = child(name, 0, "unit")
        if "error" in rec or not rec["expect"]:
            print(f"{name}: not captured\n{rec.get('error', rec.get('output'))}",
                  file=sys.stderr)
            return 1
        REFERENCE_DIR.mkdir(exist_ok=True)
        path = REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(rec["output"], indent=1, sort_keys=True) + "\n")
        print(f"{name}: {rec['proof_s']:.1f} s -> {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
