import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from qloopk import cli, kmat, rmat, scalars
from qloopk.cli import Scenario, _load_scenario, main
from qloopk.linalg import intertwiner_kernel
from qloopk.repcore import build_eval_rep_sl2
from qloopk.scalars import Rat, one


GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


class TestUsageErrors:
    # malformed input is a usage error (exit 2, nothing on stdout), never a
    # traceback with the exit code of a failed verification
    @pytest.mark.parametrize("argv", [
        ("rep", "build", "--rep", "eval-sl2:x:a"),
        ("gsat", "validate", "--n", "1", "--X", "a"),
        ("gsat", "validate", "--n", "1", "--X", "7"),
        ("gsat", "validate", "--n", "0"),
        ("rep", "build", "--rep", "eval-sl2:-1:a"),
        ("rep", "build", "--rep", "eval-vector:1:a"),
        ("rep", "build", "--rep", "eval-sl2:1:0"),
        ("kmatrix", "compute", "--vars", "a=0"),
        ("kmatrix", "compute", "--vars", "g0=0"),
        ("kmatrix", "compute", "--vars", "z=1"),
        ("rmatrix", "compute", "--rep", "eval-sl2:1:a",
         "--rep", "eval-sl2:1:b", "--vars", "p=2"),
        ("rep", "build", "--rep", "eval-sl2:1:a", "--vars", "w=3"),
        ("rmatrix", "degeneration", "--rep", "eval-sl2:1:a",
         "--rep", "eval-sl2:1:b", "--at", "q=1"),
        ("rmatrix", "degeneration", "--rep", "eval-sl2:1:a",
         "--rep", "eval-sl2:1:b", "--at", "c=1"),
        ("rep", "check", "--rep", "eval-sl2:1:a", "--rep", "eval-vector:3:b"),
        ("rmatrix", "compute", "--rep", "eval-sl2:1:a",
         "--rep", "eval-vector:3:b"),
        # an option the mode does not read is not silently ignored
        ("irred", "check", "--mode", "qsp", "--rep", "eval-sl2:1:a"),
        ("irred", "check", "--mode", "lowering", "--rep", "eval-sl2:1:a",
         "--scenario", "no-such-scenario"),
        ("irred", "check", "--mode", "tensor", "--rep", "eval-sl2:1:a",
         "--rep", "eval-sl2:1:b", "--scenario", "qonsager-sl2-fundamental"),
        # a name outside the scalar grammar is rejected, not ignored
        ("rmatrix", "compute", "--rep", "eval-sl2:1:a",
         "--rep", "eval-sl2:1:b", "--vars", "=3"),
        ("rmatrix", "compute", "--rep", "eval-sl2:1:a",
         "--rep", "eval-sl2:1:b", "--vars", "1x=3"),
        ("rmatrix", "compute", "--rep", "eval-sl2:1:a",
         "--rep", "eval-sl2:1:b", "--vars", "a b=3"),
        # a repeated name is rejected, not resolved to its last value
        ("rmatrix", "compute", "--rep", "eval-sl2:1:a",
         "--rep", "eval-sl2:1:b", "--vars", "a=2,a=3"),
        ("rmatrix", "degeneration", "--rep", "eval-sl2:1:a",
         "--rep", "eval-sl2:1:b", "--at", "b=q^2*a,z=1,z=2"),
        # an evaluation point that involves the spectral variables z or w
        ("rmatrix", "compute", "--rep", "eval-sl2:1:z",
         "--rep", "eval-sl2:1:q^2"),
        ("rmatrix", "compute", "--rep", "eval-sl2:2:z",
         "--rep", "eval-sl2:2:q^2"),
        ("rmatrix", "compute", "--rep", "eval-sl2:2:z",
         "--rep", "eval-sl2:2:q^4"),
        ("rep", "build", "--rep", "eval-vector:3:w*a"),
    ], ids=" ".join)
    def test_exits_two(self, capsys, argv):
        assert main(list(argv)) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("usage error: ")


    @pytest.mark.parametrize("option", ["--vars", "--at"])
    def test_names_the_option(self, capsys, option):
        assert main(["rmatrix", "degeneration", "--rep", "eval-sl2:1:a",
                     "--rep", "eval-sl2:1:b", option, "foo"]) == 2
        assert capsys.readouterr().err == (
            f"usage error: bad {option} entry 'foo', expected name=value\n")

    @pytest.mark.parametrize("option", ["--vars", "--at"])
    def test_empty_name(self, capsys, option):
        assert main(["rmatrix", "degeneration", "--rep", "eval-sl2:1:a",
                     "--rep", "eval-sl2:1:b", option, "=3,b=q^2*a,z=1"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"usage error: bad {option} name ''")


class TestDiagramValidation:
    def test_valid(self, capsys):
        code, out = run(capsys, "gsat", "validate",
                        "--type", "A", "--n", "1",
                        "--X", "", "--tau", "1,0")
        assert code == 0
        assert json.loads(out)["validate"]["valid"] is True

    def test_invalid_exits_one(self, capsys):
        # nodes 0 and 1 are fixed, outside X, and adjacent to X
        code, out = run(capsys, "gsat", "validate",
                        "--type", "A", "--n", "2",
                        "--X", "2", "--tau", "id")
        assert code == 1
        assert json.loads(out)["validate"]["valid"] is False

    def test_bad_usage_exits_two(self, capsys):
        assert main(["gsat", "validate", "--type", "A", "--n", "x"]) == 2


class TestRep:
    def test_build(self, capsys):
        code, out = run(capsys, "rep", "build", "--rep", "eval-sl2:1:a")
        assert code == 0
        assert json.loads(out)["dim"] == 2

    def test_check_tensor(self, capsys):
        code, out = run(capsys, "rep", "check",
                        "--rep", "eval-sl2:1:a", "--rep", "eval-sl2:1:b")
        assert code == 0
        assert json.loads(out)["relations"]["ok"] is True

    def test_unknown_builder(self, capsys):
        assert main(["rep", "build", "--rep", "mystery:1:a"]) == 2

    def test_rejected_value_registers_nothing(self, capsys):
        before = set(scalars._consts)
        assert main(["rep", "build", "--rep", "eval-sl2:1:__import__('os')"]) == 2
        assert main(["rmatrix", "compute", "--rep", "eval-sl2:1:a",
                     "--rep", "eval-sl2:1:b", "--vars", "cli_x=1/(cli_y-cli_y)"]) == 2
        assert scalars._consts == before


class TestRmatrix:
    def test_compute_golden(self, capsys):
        code, out = run(capsys, "rmatrix", "compute",
                        "--rep", "eval-sl2:1:a", "--rep", "eval-sl2:1:b")
        assert code == 0
        data = json.loads(out)["rmatrix"]
        assert data["kernel_dim"] == 1
        assert data["matrix"][0][0] == "1"

    def test_verify_ybe_needs_three_reps(self, capsys):
        assert main(["rmatrix", "verify-ybe",
                     "--rep", "eval-sl2:1:a", "--rep", "eval-sl2:1:b"]) == 2

    def test_verify_unitarity(self, capsys):
        code, out = run(capsys, "rmatrix", "verify-unitarity",
                        "--rep", "eval-sl2:1:a", "--rep", "eval-sl2:1:b")
        assert code == 0

    def test_degeneration_pole(self, capsys):
        code, out = run(capsys, "rmatrix", "degeneration",
                        "--rep", "eval-sl2:1:a", "--rep", "eval-sl2:1:b",
                        "--at", "b=q^2*a,z=1")
        assert code == 0
        assert json.loads(out)["degeneration"]["kind"] == "pole"


class TestKmatrix:
    def test_compute_scenario(self, capsys):
        code, out = run(capsys, "kmatrix", "compute",
                        "--scenario", "qonsager-sl2-fundamental")
        assert code == 0
        data = json.loads(out)["kmatrix"]
        assert data["kernel_dim"] == 1
        assert data["matrix"][0][0] == "1"

    def test_unknown_scenario(self, capsys):
        assert main(["kmatrix", "compute", "--scenario", "nope"]) == 2

    def test_convert_grading(self, capsys):
        code, out = run(capsys, "kmatrix", "convert-grading",
                        "--scenario", "qonsager-sl2-fundamental")
        assert code == 0
        data = json.loads(out)["convert-grading"]
        assert data["ok"] is True
        assert data["scalar"] is not None

    def test_vars_override(self, capsys):
        code, out = run(capsys, "kmatrix", "compute",
                        "--scenario", "qonsager-sl2-fundamental",
                        "--vars", "s0=0,s1=0")
        assert code == 0
        assert json.loads(out)["kmatrix"]["matrix"][0][1] == "0"


class TestOutputs:
    def test_deterministic_bytes(self, capsys):
        argv = ["rmatrix", "compute",
                "--rep", "eval-sl2:1:a", "--rep", "eval-sl2:1:b"]
        _, first = run(capsys, *argv)
        _, second = run(capsys, *argv)
        assert first == second

    def test_latex(self, capsys):
        code, out = run(capsys, "rmatrix", "compute",
                        "--rep", "eval-sl2:1:a", "--rep", "eval-sl2:1:b",
                        "--output", "latex")
        assert code == 0
        assert "\\begin{pmatrix}" in out

    def test_text(self, capsys):
        code, out = run(capsys, "gsat", "validate",
                        "--type", "A", "--n", "1",
                        "--X", "", "--tau", "1,0", "--output", "text")
        assert code == 0
        assert "valid" in out


class TestIrred:
    def test_lowering_mode(self, capsys):
        code, out = run(capsys, "irred", "check",
                        "--rep", "eval-sl2:1:a", "--mode", "lowering")
        assert code == 0
        assert json.loads(out)["irred"]["irreducible"] is True

    def test_tensor_mode(self, capsys):
        code, out = run(capsys, "irred", "check",
                        "--rep", "eval-sl2:1:a", "--rep", "eval-sl2:1:b",
                        "--mode", "tensor")
        assert code == 0

    def test_qsp_mode_defaults_to_fundamental_scenario(self, capsys):
        default = run(capsys, "irred", "check", "--mode", "qsp")
        named = run(capsys, "irred", "check", "--mode", "qsp",
                    "--scenario", "qonsager-sl2-fundamental")
        assert default == named
        assert default[0] == 0


class TestPipeline:
    def test_full_scenario(self, capsys):
        code, out = run(capsys, "pipeline", "run",
                        "qonsager-sl2-fundamental")
        assert code == 0
        data = json.loads(out)["pipeline"]
        assert data["ok"] is True
        assert all(s.get("ok", True) for s in data["stages"].values())

    def test_solves_each_K_and_R_once(self, capsys, monkeypatch):
        # solve-K's K is reused by verify-gre, which solves K_W; verify-re
        # solves one K, verify-unitarity two. The memos eliminate K(V_1) under
        # each twist and parameter set, K(ω*V_1) at sigma = 0, and R on the
        # orbits (V_1, V_1) and (ω*V_1, V_1), which serve every R
        calls = Counter()

        def counted(name, solve):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return solve(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "solve_K", counted("solve_K", cli.solve_K))
        monkeypatch.setattr(kmat, "solve_K", counted("solve_K", kmat.solve_K))
        for mod, name in ((kmat, "K"), (rmat, "R")):
            mod._solve_unit.cache_clear()
            monkeypatch.setattr(mod, "intertwiner_kernel",
                                counted(name, intertwiner_kernel))
        assert run(capsys, "pipeline", "run", "qonsager-sl2-fundamental")[0] == 0
        assert calls == {"solve_K": 5, "K": 4, "R": 2}

    def test_stages_match_kmatrix(self, capsys):
        code, out = run(capsys, "pipeline", "run", "qonsager-sl2-fundamental",
                        "--vars", "g0=2")
        assert code == 0
        stages = json.loads(out)["pipeline"]["stages"]
        for check, key in (("verify-gre", "gre"), ("verify-re", "re"),
                           ("verify-unitarity", "k-unitarity")):
            code, out = run(capsys, "kmatrix", check, "--vars", "g0=2")
            assert json.loads(out)[key] == stages[check]


class TestScenario:
    def test_stage_without_vars_is_the_scenario(self):
        sc = Scenario(_load_scenario("qonsager-sl2-fundamental"), {})
        assert sc.stage("verify-gre") is sc
        assert sc.stage("verify-re") is not sc

    def test_vars_override_stage_vars(self):
        sc = Scenario(_load_scenario("qonsager-sl2-fundamental"), {"a": Rat(2)})
        st = sc.stage("verify-re")
        assert st.reps["V"].same_module(build_eval_rep_sl2(1, Rat(2)))
        assert st.reps["W"].same_module(build_eval_rep_sl2(1, one))

    def test_diagonal_beta_registers_its_names(self):
        # β is parsed as γ and σ are, so a name only β uses is registered
        data = dict(_load_scenario("qonsager-sl2-fundamental"),
                    twist={"diagonal": {"0": "1/beta_probe", "1": "beta_probe"}})
        beta = Scenario(data, {}).twist.beta
        assert str(beta[1]) == "beta_probe" and (beta[0] * beta[1]).is_one()

    def test_failed_value_registers_no_name(self):
        # the scenario's values are registered together, so a copy whose
        # last value fails to parse registers none of its names
        data = dict(_load_scenario("qonsager-sl2-fundamental"),
                    gamma={"0": "1/fail_g0", "1": "fail_g0"},
                    sigma={"0": "fail_s0", "1": "fail_s1"},
                    reps={"V": "eval-sl2:1:fail_a", "W": "eval-sl2:1:fail_b +"})
        before = set(scalars._consts)
        with pytest.raises(cli.UsageError, match="fail_b"):
            Scenario(data, {})
        assert scalars._consts == before

    def test_loading_builds_one_field(self):
        # a fresh process, which lacks the scenario's names: loading the
        # scenario registers its five names in one field build, and that is
        # the only build of the whole pipeline run
        script = """
import contextlib, io, json
from qloopk import cli, scalars
builds = []
real = scalars.FracField
scalars.FracField = lambda *args: builds.append(args) or real(*args)
data = cli._load_scenario("qonsager-sl2-fundamental")
cli.Scenario(data, {})
loaded = len(builds)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["pipeline", "run", "qonsager-sl2-fundamental"])
print(json.dumps([loaded, len(builds), code, out.getvalue()]))
"""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        res = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        loaded, total, code, out = json.loads(res.stdout)
        assert (loaded, total, code) == (1, 1, 0)
        assert out == (GOLDEN / "pipeline-run-qonsager-sl2-fundamental.stdout").read_text()

    @pytest.mark.parametrize("names", [("zz", "AA", "m1"), ("m2", "AB", "zy")])
    def test_registration_order_keeps_golden_bytes(self, capsys, names):
        # unrelated names sorting after, before and between the scenario's
        # (a, b, g0, s0, s1), registered in two orders before the run; the
        # second run also moves values memoized in the first into a field
        # with more generators
        for name in names:
            scalars.const(name)
        code, out = run(capsys, "pipeline", "run", "qonsager-sl2-fundamental")
        assert code == 0
        assert out == (GOLDEN / "pipeline-run-qonsager-sl2-fundamental.stdout").read_text()

    def test_diagonal_beta_takes_vars(self):
        data = dict(_load_scenario("qonsager-sl2-fundamental"),
                    twist={"diagonal": {"0": "1/g0", "1": "g0"}})
        twist = Scenario(data, {"g0": Rat(2)}).twist
        assert twist.to_json() == {"gauge": {"diagonal": {"0": "1/2", "1": "2"}}}
