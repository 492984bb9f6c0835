"""qloopk benchmark: exact-proof workloads, timed in fresh interpreters.

    python3 perfbench/run.py --workload ybe-sl3 --seed 1 --seconds 45 --trace 0

Every sample runs in its own child interpreter (``perfbench/unit.py``), one
child at a time, so sympy's cache and qloopk's registry of named constants
start the same way each time, as they do for every CLI invocation. Units run
back to back in a closed loop with one client.

With ``--trace 0`` the run measures set-up in several set-up-only children,
then runs units back to back within ``--seconds`` of wall time: it starts no
unit that the median unit so far says would overrun, and always runs one. It
reports the medians of ``proof_s``, ``setup_s`` and
``peak_rss_mb``.

With ``--trace 1`` it runs one untraced unit and one traced unit and reports
the traced unit's per-layer metrics (see ``perfbench/tracer.py``).

Every unit's output is compared with the reference captured by
``perfbench/capture.py``; a unit that differs, breaks the workload's own
expectations or raises counts as failed. ``failed / attempted`` is the
benchmark's fail ratio. The last stdout line is the result object; the line
before it records the provenance of the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
SETUP_PROBES = 5
# A run must end within 180 s of its start; no child may outlive that.
RUN_DEADLINE_S = 175.0


class BenchError(Exception):
    pass


def child(workload: str, seed: int, mode: str, *extra: str,
          deadline: float | None = None) -> dict:
    """Run one child interpreter to completion and return its record, with
    ``setup_s`` measured from just before the child was started. A child
    still running at ``deadline`` (a ``time.monotonic()`` reading) is killed
    and reported as an error."""
    # One string-hash layout for every child: the layout alone moves
    # irred-spin1 by about 15%, which would swamp seed-to-seed comparisons.
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.monotonic()
    timeout = None if deadline is None else max(1.0, deadline - start)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "unit.py"), workload, str(seed), mode,
             *extra],
            capture_output=True, text=True, env=env, timeout=timeout,
            cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} child killed after {timeout:.0f} s, "
                         "at the run's deadline"}
    lines = proc.stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1])
    except (IndexError, ValueError):
        rec = {"error": f"{mode} child exited {proc.returncode}: "
                        + proc.stderr[-2000:]}
    if "ready" in rec:
        rec["setup_s"] = rec["ready"] - start
    return rec


def load_reference(workload: str):
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        raise BenchError(f"unknown workload {workload!r}: no reference output "
                         f"{path.relative_to(ROOT)}")
    return json.loads(path.read_text())


def unit_failed(rec: dict, reference) -> bool:
    """A unit fails when it raised, broke the workload's own expectations,
    or produced output other than the reference."""
    return "error" in rec or not rec.get("expect") or rec.get("output") != reference


def fail_ratio(units: list[dict], reference) -> float:
    return sum(unit_failed(u, reference) for u in units) / len(units)


def _require(rec: dict, what: str) -> dict:
    if "error" in rec:
        raise BenchError(f"{what} failed:\n{rec['error']}")
    return rec


def measure(workload: str, seed: int, seconds: float, deadline: float):
    """Untraced run: set-up probes, then units for ``seconds``."""
    setups = [_require(child(workload, seed, "setup", deadline=deadline),
                       "set-up probe")["setup_s"]
              for _ in range(SETUP_PROBES)]
    units, walls, t0 = [], [], time.monotonic()
    while True:
        started = time.monotonic()
        units.append(child(workload, seed, "unit", deadline=deadline))
        walls.append(time.monotonic() - started)
        # Start no unit that the units so far say would end past the budget,
        # so that a run stays within about ``seconds`` unless one unit alone
        # takes longer.
        if time.monotonic() - t0 + statistics.median(walls) > seconds:
            break
    timed = [u for u in units if "proof_s" in u]
    if not timed:
        _require(units[0], "unit")
    setups += [u["setup_s"] for u in timed]
    metrics = {
        "proof_s": (statistics.median(u["proof_s"] for u in timed), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(u["rss_kb"] for u in timed) / 1024, "MB"),
    }
    samples = {"proof_s": len(timed), "setup_s": len(setups),
               "peak_rss_mb": len(timed)}
    return metrics, units, samples


def trace(workload: str, seed: int, deadline: float):
    """Traced run: one untraced unit as the base of the overhead ratio, then
    one traced unit whose per-layer metrics are reported."""
    from perfbench.tracer import METRICS
    base = _require(child(workload, seed, "unit", deadline=deadline),
                    "untraced unit")
    traced = _require(child(workload, seed, "trace", repr(base["proof_s"]),
                            deadline=deadline), "traced unit")
    metrics = {k: (traced["layers"][k], unit) for k, (unit, _) in METRICS.items()}
    return metrics, [base, traced], {k: 1 for k in metrics}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qloopk").rglob("*")):
        if path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        if not (ROOT / "src" / "qloopk" / "__init__.py").is_file():
            raise BenchError("no qloopk sources under src/ next to perfbench/")
        reference = load_reference(args.workload)
        load_start = os.getloadavg()
        if args.trace:
            metrics, units, samples = trace(args.workload, args.seed, deadline)
        else:
            metrics, units, samples = measure(args.workload, args.seed,
                                              args.seconds, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    failed = sum(unit_failed(u, reference) for u in units)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "extra_constants": units[0].get("extra_constants"),
        "git_sha": git_sha(), "source_sha256": source_digest(),
        "python": sys.version.split()[0], "sympy": units[0].get("sympy"),
        "qloopk": units[0].get("qloopk"),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "samples": samples, "fail_ratio": failed / len(units),
        "proof_s_samples": [u.get("proof_s") for u in units],
        "errors": [u["error"] for u in units if "error" in u],
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(units), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
