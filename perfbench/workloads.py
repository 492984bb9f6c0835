"""The benchmark's three exact-proof workloads.

Each workload has three parts:

* ``build()`` makes the inputs (the set-up a user pays before any proof);
* ``run(inputs)`` is one timed unit, from the first library call to the
  returned result;
* ``render(result)`` turns the result into JSON-able data, after the timer
  has stopped, for comparison with the stored reference.

``expect(output)`` states what the paper's identities require of an output
on its own (every proof holds, every control yields a witness); it guards
the capture of references as well as every unit.

The library is called through its module attributes
(``irred.check_irreducible``, not a ``from`` import) so that the traced run's
wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import random

from qloopk import cli, irred, repcore, rmat, scalars
from qloopk.linalg import Mat
from qloopk.rootdata import QSPParams, SatakeDiagram, affine_A

# Names no workload uses, drawn by the seed. They exercise the rule that
# results must not depend on which named constants a process has registered,
# or in which order.
EXTRA_CONSTANT_POOL = ("aa1", "d2", "e3", "h4", "k5", "m6", "n7", "r8",
                       "t9", "u1", "v2", "x3", "y4")


def register_seed_constants(seed: int) -> list[str]:
    """Register a seed-chosen set of unrelated constants, in seed-chosen
    order; returns the names in registration order."""
    rng = random.Random(seed)
    names = rng.sample(EXTRA_CONSTANT_POOL, rng.randint(1, 4))
    for name in names:
        scalars.const(name)
    return names


class YbeSl3:
    """Three sl3 vector evaluation modules at a, b, c: three R-matrix solves
    and the two-variable Yang-Baxter equation on the 27-dimensional triple
    product."""

    name = "ybe-sl3"

    def build(self):
        return [repcore.build_vector_rep_slN_eval(3, scalars.const(x))
                for x in ("a", "b", "c")]

    def run(self, reps):
        u, v, w = reps
        ruv, ruw, rvw = rmat.solve_R(u, v), rmat.solve_R(u, w), rmat.solve_R(v, w)
        report = rmat.verify_YBE(u, v, w, ruv.matrix, ruw.matrix, rvw.matrix)
        return report, (ruv, ruw, rvw)

    def render(self, result):
        report, rs = result
        return {"ybe": report.to_json(),
                "R": {k: r.to_json() for k, r in zip(("ab", "ac", "bc"), rs)}}

    def expect(self, out) -> bool:
        return out["ybe"]["ok"] is True and all(
            r["kernel_dim"] == 1 for r in out["R"].values())


class BoundarySl2:
    """The user's headline command, ``qloopk pipeline run
    qonsager-sl2-fundamental``, in process with its stdout captured."""

    name = "boundary-sl2"
    argv = ("pipeline", "run", "qonsager-sl2-fundamental")

    def build(self):
        return list(self.argv)

    def run(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def render(self, result):
        code, stdout = result
        return {"exit": code, "stdout": stdout}

    def expect(self, out) -> bool:
        return out["exit"] == 0 and '"ok": true' in out["stdout"]


class IrredSpin1:
    """Irreducibility certificates: the deformed spin-1 lowering family
    closed directly over the z-field, the generic tensor square of spin 1,
    and two reducible controls that must come back with witnesses."""

    name = "irred-spin1"

    def build(self):
        a, b = scalars.const("a"), scalars.const("b")
        g0, s0, s1 = (scalars.const(x) for x in ("g0", "s0", "s1"))
        diagram = SatakeDiagram(affine_A(1), (), (0, 1))
        params = QSPParams(diagram, {0: g0.inv(), 1: g0}, {0: s0, 1: s1})
        spin1_a = repcore.build_eval_rep_sl2(2, a)
        spin1_b = repcore.build_eval_rep_sl2(2, b)
        fund = repcore.build_eval_rep_sl2(1, a)
        n = fund.dim
        doubled = []
        for m in (fund.E[1], fund.F[1]):
            d = Mat.zeros(2 * n)
            for i in range(n):
                for j in range(n):
                    d.data[i][j] = m[i, j]
                    d.data[n + i][n + j] = m[i, j]
            doubled.append(d)
        controls = [[Mat.diagonal([scalars.one, scalars.q])], doubled]
        return spin1_a, spin1_b, params, controls

    def run(self, inputs):
        spin1_a, spin1_b, params, controls = inputs
        defs = irred.qsp_deformations(spin1_a, params)
        out = [irred.check_modified_nilpotent_irreducible(spin1_a, defs,
                                                          route="direct"),
               irred.check_generic_tensor_irreducible(spin1_a, spin1_b)]
        out += [irred.check_irreducible(mats) for mats in controls]
        return out

    def render(self, result):
        return {"verdicts": [v.to_json() for v in result]}

    def expect(self, out) -> bool:
        v = out["verdicts"]
        return (len(v) == 4
                and all(x["irreducible"] is True for x in v[:2])
                and all(x["irreducible"] is False and x.get("witness")
                        for x in v[2:]))


WORKLOADS = {w.name: w for w in (YbeSl3(), BoundarySl2(), IrredSpin1())}
