"""Command-line front end.

Exit codes: 0 = pass/valid, 1 = mathematical failure (with a report on
stdout), 2 = usage error. All output is a pure function of the inputs;
JSON is emitted with sorted keys for byte-for-byte determinism.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from importlib import resources

from .braid import TwistSpec
from .irred import (check_generic_tensor_irreducible, check_irreducible,
                    check_modified_nilpotent_irreducible, qsp_deformations)
from .kmat import (convert_grading, solve_K, verify_K_unitarity, verify_gre,
                   verify_standard_re)
from .linalg import Mat
from .repcore import RepError, build_rep, tensor, verify_relations
from .rmat import detect_degeneration, solve_R, verify_R_unitarity, verify_YBE
from .rootdata import (GradingShift, QSPParams, SatakeDiagram, affine_A,
                       validate_gsat)
from .scalars import _NAME, ParseError, PoleAtPoint, Rat, parse_all


class UsageError(Exception):
    pass


# -- input parsing --------------------------------------------------------

def _parse_values(texts: list[str]) -> list[Rat]:
    """Parse scalar expressions, registering their bare identifiers as named
    constants together, once every value has parsed (the CLI is where new
    evaluation points and parameters enter the system)."""
    try:
        return parse_all(texts, register=True)
    except ParseError as exc:
        raise UsageError(str(exc))


def _parse_vars(s: str | None) -> dict:
    """``--vars`` names constants only: p, z and w are never substituted
    into a computed matrix, so naming them is a usage error."""
    out = _parse_point(s, "--vars")
    if out.keys() & {"p", "z", "w"}:
        raise UsageError("--vars takes named constants only, not p, z or w")
    return out


def _parse_point(s: str | None, option: str) -> dict:
    """``name=value,...`` as given to ``option``."""
    out = {}
    if not s:
        return out
    for chunk in s.split(","):
        if "=" not in chunk:
            raise UsageError(f"bad {option} entry {chunk!r}, expected name=value")
        k, v = chunk.split("=", 1)
        k = k.strip()
        if not _NAME.fullmatch(k):
            raise UsageError(f"bad {option} name {k!r}; a name is a letter or "
                             "_ followed by letters, digits or _")
        if k == "q":
            raise UsageError("substitute p, not q")
        if k in out:
            raise UsageError(f"{option} names {k!r} twice")
        out[k] = v.strip()
    return dict(zip(out, _parse_values(list(out.values()))))


def _substituted(x: Rat, vars: dict) -> Rat:
    """``x`` at the ``--vars`` point; a pole there is a usage error."""
    try:
        return x.substitute(vars)
    except PoleAtPoint as exc:
        raise UsageError(str(exc))


_REP_SIZES = {"eval-sl2": "spin2", "eval-vector": "N"}


def _rep_spec(s: str) -> dict:
    parts = s.split(":")
    if len(parts) == 3 and parts[0] in _REP_SIZES:
        try:
            return {"kind": parts[0], _REP_SIZES[parts[0]]: int(parts[1]),
                    "a": parts[2]}
        except ValueError:
            pass
    raise UsageError(f"bad --rep {s!r}; use eval-sl2:<spin2>:<a> or "
                     "eval-vector:<N>:<a>")


def _build(s: str, a: Rat):
    """The module ``s`` names, at the point ``a``."""
    try:
        return build_rep(dict(_rep_spec(s), a=a))
    except RepError as exc:
        raise UsageError(f"module {s!r}: {exc}")


def _parse_tau(s: str, n1: int):
    if s == "id":
        return tuple(range(n1))
    try:
        tau = tuple(int(x) for x in s.split(","))
    except ValueError:
        raise UsageError(f"bad --tau {s!r}; use 'id' or a comma permutation")
    if len(tau) != n1:
        raise UsageError(f"--tau needs {n1} entries")
    return tau


def _parse_nodes(s: str | None, n1: int):
    if not s:
        return ()
    try:
        nodes = tuple(int(x) for x in s.split(","))
    except ValueError:
        raise UsageError(f"bad --X {s!r}; use a comma list of nodes")
    if any(not 0 <= i < n1 for i in nodes):
        raise UsageError(f"--X nodes must lie in 0..{n1 - 1}")
    return nodes


def _load_scenario(name: str) -> dict:
    base = resources.files("qloopk").joinpath("scenarios")
    path = base.joinpath(f"{name}.json")
    if not path.is_file():
        avail = sorted(p.name[:-5] for p in base.iterdir()
                       if p.name.endswith(".json"))
        raise UsageError(f"unknown scenario {name!r}; available: {avail}")
    return json.loads(path.read_text())


class Scenario:
    """Materialized scenario: diagram, parameters, shift, twist, and reps,
    with a variable substitution applied throughout."""

    def __init__(self, data: dict, vars: dict):
        self.data, self.vars = data, vars
        dg = data["diagram"]
        self.cartan = affine_A(int(dg["n"]))
        self.diagram = SatakeDiagram(self.cartan, tuple(dg.get("X", ())),
                                     tuple(dg["tau"]))

        twist = data.get("twist", "semi-standard")
        diagonal = isinstance(twist, dict) and "diagonal" in twist
        texts = {"gamma": data["gamma"], "sigma": data["sigma"],
                 "diagonal": twist["diagonal"] if diagonal else {},
                 "reps": {k: _rep_spec(v)["a"] for k, v in data["reps"].items()}}
        # all values parse before any name is registered: one field build
        parsed = iter(_parse_values([v for m in texts.values() for v in m.values()]))
        values = {key: {k: _substituted(next(parsed), vars) for k in m}
                  for key, m in texts.items()}

        def nodes(key: str) -> dict:
            return {int(k): v for k, v in values[key].items()}

        self.params = QSPParams(self.diagram, nodes("gamma"), nodes("sigma"))
        if diagonal:
            twist = {"diagonal": nodes("diagonal")}
        self.twist = TwistSpec.from_json(self.diagram, twist)
        shift = data.get("shift", "tau-minimal")
        if shift == "tau-minimal":
            self.shift = GradingShift.tau_minimal(self.diagram)
        elif shift == "principal":
            self.shift = GradingShift.principal(self.cartan)
        else:
            raise UsageError(f"unknown shift {shift!r}")
        self.reps = {k: _build(data["reps"][k], a)
                     for k, a in values["reps"].items()}

    @functools.cached_property
    def K(self):
        """The K-matrix of module V, solved once per scenario."""
        return solve_K(self.reps["V"], self.twist, self.shift, self.params)

    def stage(self, name: str) -> "Scenario":
        """The scenario as stage ``name`` runs it: itself, or rebuilt with
        the stage's ``stage_vars``, which ``--vars`` override."""
        stage_vars = self.data.get("stage_vars", {}).get(name)
        if not stage_vars:
            return self
        extra = dict(zip(stage_vars, _parse_values(list(stage_vars.values()))))
        extra.update(self.vars)
        return Scenario(self.data, extra)


# boundary check -> (payload key, check on a Scenario), in pipeline order. A
# check looks its verifier up when it runs, so wrappers on it see the call.
_CHECKS = {
    "verify-gre": ("gre", lambda sc: verify_gre(
        sc.reps["V"], sc.reps["W"], sc.twist, sc.shift, sc.params, KV=sc.K)),
    "verify-re": ("re", lambda sc: verify_standard_re(
        sc.reps["V"], sc.reps["W"], sc.params, sc.shift)),
    "verify-unitarity": ("k-unitarity", lambda sc: verify_K_unitarity(
        sc.reps["V"], sc.twist, sc.shift, sc.params)),
}


# -- output ---------------------------------------------------------------

def _matrix_latex(rows) -> str:
    body = " \\\\\n".join(" & ".join(str(e) for e in row) for row in rows)
    return "\\begin{pmatrix}\n" + body + "\n\\end{pmatrix}"


def _leaves(obj, prefix=""):
    """(dotted path, leaf) pairs of the payload, keys in sorted order; a
    leaf is anything but a dict."""
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _leaves(obj[k], f"{prefix}{k}.")
    else:
        yield prefix[:-1], obj


def _emit(payload: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
        return
    out = []
    for path, leaf in _leaves(payload):
        matrix = isinstance(leaf, list) and leaf and isinstance(leaf[0], list)
        if fmt == "latex" and matrix:
            out.append(f"% {path}")
            out.append(_matrix_latex(leaf))
        elif fmt == "latex":
            out.append(f"% {path}: {json.dumps(leaf, sort_keys=True)}")
        elif matrix:
            for i, row in enumerate(leaf):
                out.append(f"{path}.{i}: " + "  ".join(str(x) for x in row))
        else:
            out.append(f"{path}: {leaf}")
    print("\n".join(out))


def _report_exit(ok: bool) -> int:
    return 0 if ok else 1


# -- handlers -------------------------------------------------------------

def _cmd_gsat_validate(args) -> tuple[int, dict]:
    if args.type != "A":
        raise UsageError("only untwisted type A is built in")
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    cartan = affine_A(args.n)
    X = _parse_nodes(args.X, args.n + 1)
    tau = _parse_tau(args.tau, args.n + 1)
    report = validate_gsat(cartan, X, tau)
    return _report_exit(report.valid), {"validate": report.to_json()}


def _reps_from_args(args, vars, need: int):
    specs = args.rep or []
    if len(specs) != need:
        raise UsageError(f"expected {need} --rep arguments, got {len(specs)}")
    points = _parse_values([_rep_spec(s)["a"] for s in specs])
    reps = [_build(s, _substituted(a, vars)) for s, a in zip(specs, points)]
    if any(r.cartan != reps[0].cartan for r in reps):
        raise UsageError("--rep modules must share one Cartan datum")
    return reps


def _cmd_rep_build(args) -> tuple[int, dict]:
    vars = _parse_vars(args.vars)
    (V,) = _reps_from_args(args, vars, 1)
    return 0, {"label": V.label, "dim": V.dim,
               "weights": [[str(x) for x in wt] for wt in V.weights],
               "E1": V.E[1].to_json(), "F1": V.F[1].to_json(),
               "K1": V.K[1].to_json()}


def _cmd_rep_check(args) -> tuple[int, dict]:
    vars = _parse_vars(args.vars)
    if not args.rep:
        raise UsageError("rep check needs at least one --rep")
    reps = _reps_from_args(args, vars, len(args.rep))
    V = reps[0]
    for W in reps[1:]:
        V = tensor(V, W)
    report = verify_relations(V)
    return _report_exit(report.ok), {"relations": report.to_json()}


def _cmd_rmatrix(args) -> tuple[int, dict]:
    vars = _parse_vars(args.vars)
    if args.action == "compute":
        V, W = _reps_from_args(args, vars, 2)
        res = solve_R(V, W)
        return 0, {"rmatrix": res.to_json()}
    if args.action == "verify-ybe":
        U, V, W = _reps_from_args(args, vars, 3)
        report = verify_YBE(U, V, W)
        return _report_exit(report.ok), {"ybe": report.to_json()}
    if args.action == "verify-unitarity":
        V, W = _reps_from_args(args, vars, 2)
        report = verify_R_unitarity(V, W)
        return _report_exit(report.ok), {"unitarity": report.to_json()}
    # degeneration, the last action argparse allows
    V, W = _reps_from_args(args, vars, 2)
    point = _parse_point(args.at, "--at")
    if not point:
        raise UsageError("degeneration needs --at name=value,...")
    R = solve_R(V, W).matrix
    names = set().union(*(x.names() for row in R.data for x in row))
    if unused := sorted(point.keys() - names):
        raise UsageError(f"--at names {', '.join(unused)}, "
                         "on which R does not depend")
    kind = detect_degeneration(V, W, point, R)
    return 0, {"degeneration": {"at": {k: str(v) for k, v in point.items()},
                                "kind": kind}}


def _cmd_kmatrix(args) -> tuple[int, dict]:
    vars = _parse_vars(args.vars)
    sc = Scenario(_load_scenario(args.scenario), vars)
    if args.action in _CHECKS:
        key, check = _CHECKS[args.action]
        report = check(sc.stage(args.action))
        return _report_exit(report.ok), {key: report.to_json()}
    if args.action == "compute":
        return 0, {"kmatrix": sc.K.to_json()}
    # convert-grading, the last action argparse allows
    V = sc.reps["V"]
    Kpr = solve_K(V, sc.twist, GradingShift.principal(sc.cartan),
                  sc.params)
    converted = convert_grading(Kpr, V)
    direct = solve_K(V, sc.twist, GradingShift.tau_minimal(sc.diagram),
                     sc.params)
    ratio = _proportionality(converted, direct.matrix)
    ok = ratio is not None
    return _report_exit(ok), {
        "convert-grading": {"converted": converted.to_json(),
                            "direct": direct.matrix.to_json(),
                            "scalar": None if ratio is None else str(ratio),
                            "ok": ok}}


def _proportionality(A: Mat, B: Mat):
    """The scalar A/B if A = c B entrywise, else None."""
    ratio = None
    for i in range(A.nrows):
        for j in range(A.ncols):
            x, y = A[i, j], B[i, j]
            if x.is_zero() != y.is_zero():
                return None
            if x.is_zero():
                continue
            r = x / y
            if ratio is None:
                ratio = r
            elif r != ratio:
                return None
    return ratio


def _cmd_irred(args) -> tuple[int, dict]:
    """``qsp`` reads its module from ``--scenario``; ``lowering`` and
    ``tensor`` read theirs from ``--rep``. Giving a mode the other option is
    a usage error, so that no option is silently ignored."""
    vars = _parse_vars(args.vars)
    if args.mode == "qsp":
        if args.rep:
            raise UsageError("--mode qsp takes --scenario, not --rep")
        sc = Scenario(_load_scenario(args.scenario
                                     or "qonsager-sl2-fundamental"), vars)
        V = sc.reps["V"]
        verdict = check_modified_nilpotent_irreducible(
            V, qsp_deformations(V, sc.params))
    elif args.scenario is not None:
        raise UsageError(f"--mode {args.mode} takes --rep, not --scenario")
    elif args.mode == "tensor":
        V, W = _reps_from_args(args, vars, 2)
        verdict = check_generic_tensor_irreducible(V, W)
    else:
        (V,) = _reps_from_args(args, vars, 1)
        verdict = check_irreducible([V.F[i] for i in V.cartan.nodes])
    return _report_exit(verdict.irreducible is True), {"irred": verdict.to_json()}


def _cmd_pipeline(args) -> tuple[int, dict]:
    vars = _parse_vars(args.vars)
    sc = Scenario(_load_scenario(args.scenario), vars)
    stages = {"solve-K": {"kernel_dim": sc.K.kernel_dim,
                          "normalization": sc.K.normalization.get("mode")}}
    ok = True
    for name, (_, check) in _CHECKS.items():
        report = check(sc.stage(name))
        stages[name] = report.to_json()
        ok = ok and report.ok
    return _report_exit(ok), {"pipeline": {"scenario": sc.data["name"],
                                           "stages": stages, "ok": ok}}


# -- argument tree --------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qloopk",
        description="Exact R- and K-matrices for quantum loop algebras")
    top.add_argument("--output", choices=("json", "latex", "text"),
                     default="json")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, reps=False, scenario=False):
        p.add_argument("--output", choices=("json", "latex", "text"),
                       default=argparse.SUPPRESS)
        p.add_argument("--vars", help="substitutions, e.g. a=2,s0=0")
        if reps:
            p.add_argument("--rep", action="append",
                           help="eval-sl2:<spin2>:<a> or eval-vector:<N>:<a>")
        if scenario:
            p.add_argument("--scenario", default="qonsager-sl2-fundamental")

    g = sub.add_parser("gsat", help="generalized Satake diagram checks")
    gs = g.add_subparsers(dest="action", required=True)
    gv = gs.add_parser("validate")
    gv.add_argument("--output", choices=("json", "latex", "text"),
                    default=argparse.SUPPRESS)
    gv.add_argument("--type", default="A")
    gv.add_argument("--n", type=int, required=True)
    gv.add_argument("--X", default="")
    gv.add_argument("--tau", default="id")
    gv.set_defaults(func=_cmd_gsat_validate)

    r = sub.add_parser("rep", help="build and check modules")
    rs = r.add_subparsers(dest="action", required=True)
    rb = rs.add_parser("build")
    common(rb, reps=True)
    rb.set_defaults(func=_cmd_rep_build)
    rc = rs.add_parser("check")
    common(rc, reps=True)
    rc.set_defaults(func=_cmd_rep_check)

    rm = sub.add_parser("rmatrix", help="rational R-matrices")
    rms = rm.add_subparsers(dest="action", required=True)
    for name in ("compute", "verify-ybe", "verify-unitarity", "degeneration"):
        p = rms.add_parser(name)
        common(p, reps=True)
        if name == "degeneration":
            p.add_argument("--at", help="point, e.g. b=q^2*a,z=1")
        p.set_defaults(func=_cmd_rmatrix)

    km = sub.add_parser("kmatrix", help="rational K-matrices")
    kms = km.add_subparsers(dest="action", required=True)
    for name in ("compute", "verify-gre", "verify-re", "verify-unitarity",
                 "convert-grading"):
        p = kms.add_parser(name)
        common(p, scenario=True)
        p.set_defaults(func=_cmd_kmatrix)

    ir = sub.add_parser("irred", help="restricted irreducibility")
    irs = ir.add_subparsers(dest="action", required=True)
    ic = irs.add_parser("check")
    common(ic, reps=True)
    ic.add_argument("--scenario", help="for --mode qsp only "
                    "(default qonsager-sl2-fundamental)")
    ic.add_argument("--mode", choices=("lowering", "qsp", "tensor"),
                    default="lowering")
    ic.set_defaults(func=_cmd_irred)

    pl = sub.add_parser("pipeline", help="end-to-end scenario runs")
    pls = pl.add_subparsers(dest="action", required=True)
    pr = pls.add_parser("run")
    pr.add_argument("scenario")
    pr.add_argument("--output", choices=("json", "latex", "text"),
                    default=argparse.SUPPRESS)
    pr.add_argument("--vars")
    pr.set_defaults(func=_cmd_pipeline)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code, payload = args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    _emit(payload, args.output)
    return code


if __name__ == "__main__":
    sys.exit(main())
