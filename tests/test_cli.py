"""End-to-end command-line behavior, including exit codes and the JSON schema."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idop.cli import main

DATA = Path(__file__).parent / "data"


def module_env():
    env = dict(os.environ)
    src = str(Path(__file__).parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestNorm:
    def test_telescoping(self, capsys):
        code, out, _ = run(capsys, "norm", "I^2*d^2")
        assert code == 0
        assert out.strip() == "1 - e(0,0) - e(1,1)"

    def test_golden_rank1(self, capsys):
        code, out, _ = run(capsys, "norm", "--format", "json", "I^2*d^2 + 3/2*d*H - I")
        assert code == 0
        assert json.loads(out) == json.loads((DATA / "norm_rank1.golden.json").read_text())

    def test_golden_rank2(self, capsys):
        code, out, _ = run(
            capsys, "norm", "--n", "2", "--format", "json", "e(0,0)_1*I_2 - 2*H_1 + d_1*d_2"
        )
        assert code == 0
        assert json.loads(out) == json.loads((DATA / "norm_rank2.golden.json").read_text())

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("norm_dense_rank1", ["(3*x-2*d)^11"]),
            ("norm_dense_rank1_eunits", ["(x-2*I+3*d+1/2*e(1,0))^6"]),
            ("norm_dense_rank2", ["--n", "2", "(2*x_1+d_2+3*I_1*e(0,0)_2)^5"]),
            ("norm_dense_rank3", ["--n", "3", "(x_1*d_2-2*I_3+H_1)^4"]),
        ],
    )
    @pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
    def test_dense_powers_match_golden_output(self, capsys, name, argv, fmt, suffix):
        # byte-exact, so the printer and the JSON encoder are pinned on dense output
        code, out, err = run(capsys, "norm", "--format", fmt, *argv)
        assert (code, err) == (0, "")
        assert out == (DATA / f"{name}.golden.{suffix}").read_text()

    def test_deterministic(self, capsys):
        first = run(capsys, "norm", "--n", "2", "x_1*d_2 + e(1,0)_2")
        second = run(capsys, "norm", "--n", "2", "x_1*d_2 + e(1,0)_2")
        assert first == second

    def test_syntax_error_exit_code(self, capsys):
        code, _, err = run(capsys, "norm", "I*")
        assert code == 1
        assert "error" in err

    def test_non_ascii_digit_is_syntax_error(self, capsys):
        code, out, err = run(capsys, "norm", "x²")
        assert (code, out) == (1, "")
        assert err == "error: unexpected character '²' (at position 1)\n"

    def test_rank_budget(self, capsys):
        from idop.tensor import MAX_RANK

        code, out, err = run(capsys, "norm", "--n", str(MAX_RANK + 1), "1")
        assert (code, out) == (1, "")
        assert err == f"error: rank {MAX_RANK + 1} exceeds the budget {MAX_RANK}\n"
        code, out, err = run(capsys, "norm", "--n", str(MAX_RANK), f"x_{MAX_RANK}*d_1")
        assert (code, err) == (0, "")
        assert out == f"d_1*I_{MAX_RANK}*H_{MAX_RANK}\n"

    def test_index_error_exit_code(self, capsys):
        code, _, err = run(capsys, "norm", "--n", "2", "x_5")
        assert code == 1
        assert "out of range" in err

    def test_long_flat_sum(self, capsys):
        code, out, _ = run(capsys, "norm", "+".join(["x"] * 1500))
        assert code == 0
        assert out == "1500*I*H\n"

    def test_leading_minus_is_an_expression(self, capsys):
        code, out, _ = run(capsys, "norm", "-x-d")
        assert (code, out) == (0, "-d - I*H\n")
        assert run(capsys, "norm", "--", "-x-d") == (0, out, "")

    def test_help_still_wins(self, capsys):
        code, out, _ = run(capsys, "norm", "-h")
        assert code == 0
        assert out.startswith("usage: idop norm")

    def test_rank_must_be_positive(self, capsys):
        for value in ("0", "-2"):
            code, out, err = run(capsys, "norm", "(x+d)^3", "--n", value)
            assert code == 1
            assert out == ""
            assert err == f"error: argument --n: expected a positive integer, got {value}\n"

    def test_deep_nesting_is_syntax_error(self, capsys):
        code, out, err = run(capsys, "norm", "(" * 1200 + "x" + ")" * 1200)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "Traceback" not in err

    def test_exponent_budget(self, capsys):
        # refused while parsing; without the budget the first two would run for hours
        for expr, total in [("(x+d)^400", 400), ("((x+d)^60)^60", 3600), ("(x+d)^61", 61)]:
            code, out, err = run(capsys, "norm", expr)
            assert (code, out) == (1, "")
            assert err.count("\n") == 1
            assert err.startswith(f"error: exponent product {total} exceeds the budget 60")
        assert run(capsys, "norm", "((H^2)^3)^10") == (0, "H^60\n", "")
        code, _, err = run(capsys, "apply", "x", "x^61")
        assert code == 1 and err.startswith("error: exponent product 61")


class TestApply:
    def test_antiderivative(self, capsys):
        code, out, _ = run(capsys, "apply", "I", "x^2")
        assert code == 0
        assert out.strip() == "1/3*x^3"

    def test_rank2(self, capsys):
        code, out, _ = run(capsys, "apply", "--n", "2", "d_1*I_2", "x1*x2")
        assert code == 0
        assert out.strip() == "1/2*x2^2"

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("apply_rank1", ["3/2*I^2 - d + 2*e(2,1) + H", "x^3 - 2*x + 1/3"]),
            ("apply_rank2", ["--n", "2", "d_1*I_2 - 1/2*H_1*x_2 + e(0,1)_1", "(x1+x2)^3 - 1/2"]),
            (
                "apply_rank3",
                ["--n", "3", "x_1*d_2*I_3 - 3*e(1,0)_3 + H_2^2", "x1*x2^2*x3 + 5/7*x3 - x1^2"],
            ),
            ("apply_zero", ["d^4 + e(0,5)", "x^3 + 2/3*x"]),
        ],
    )
    @pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
    def test_matches_golden_output(self, capsys, name, argv, fmt, suffix):
        # byte-exact, so the polynomial parser and printer are pinned
        code, out, err = run(capsys, "apply", "--format", fmt, *argv)
        assert (code, err) == (0, "")
        assert out == (DATA / f"{name}.golden.{suffix}").read_text()


class TestSplit:
    def test_triple(self, capsys):
        code, out, _ = run(capsys, "split", "x + I + e(0,0)")
        assert code == 0
        assert out.splitlines() == ["A: I*H", "F: e(0,0)", "L: I"]

    def test_requires_rank1(self, capsys):
        # the rank-1 commands parse at --n and the library refuses the operator
        for argv in (["split", "x_1"], ["fdeg", "x_1"], ["dims", "--gen", "1,x_1", "--max", "2"]):
            code, out, err = run(capsys, *argv, "--n", "2")
            assert (code, out) == (1, "")
            assert err == "error: expected rank 1, got rank 2\n"

    def test_syntax_error_before_rank(self, capsys):
        code, out, err = run(capsys, "split", "--n", "2", "x_1 + )")
        assert (code, out) == (1, "")
        assert err == "error: unexpected ')' (at position 6)\n"


class TestSocle:
    def test_level_and_census(self, capsys):
        code, out, _ = run(capsys, "socle", "--n", "2", "I_1*I_2")
        assert code == 0
        assert "level: 2" in out
        assert "(L,L)" in out

    def test_zero_element(self, capsys):
        code, _, err = run(capsys, "socle", "0")
        assert code == 1
        assert err == "error: the socle level of the zero element is undefined\n"

    def test_rank1_levels(self, capsys):
        code, out, _ = run(capsys, "socle", "I + x")
        assert code == 0
        assert "level: 1" in out
        assert "census: (A) (L)" in out


class TestFdeg:
    def test_negative_one(self, capsys):
        code, out, _ = run(capsys, "fdeg", "d^3")
        assert code == 0
        assert out.strip() == "-1"

    def test_normalized(self, capsys):
        code, out, _ = run(capsys, "fdeg", "1 - I*d")
        assert code == 0
        assert out.strip() == "0"


class TestQuot:
    def test_eunit_dies(self, capsys):
        code, out, _ = run(capsys, "quot", "e(5,7)")
        assert code == 0
        assert out.strip() == "0"

    def test_integral(self, capsys):
        code, out, _ = run(capsys, "quot", "I")
        assert code == 0
        assert out.strip() == "d^-1"

    def test_rank2(self, capsys):
        code, out, _ = run(capsys, "quot", "--n", "2", "H_1 - H_2")
        assert code == 0
        assert out.strip() == "-H_2 + H_1"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "quot", "--format", "json", "I")
        assert code == 0
        assert json.loads(out) == {"rank": 1, "terms": [[[[-1, 0]], "1"]]}


class TestMatrix:
    def test_identity(self, capsys):
        code, out, _ = run(capsys, "matrix", "1", "--size", "3")
        assert code == 0
        assert out.splitlines() == ["1 0 0", "0 1 0", "0 0 1"]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "matrix", "--format", "json", "H", "--size", "2")
        assert code == 0
        assert json.loads(out) == {"size": 2, "rank": 1, "rows": [["1", "0"], ["0", "2"]]}

    def test_bad_size(self, capsys):
        code, _, err = run(capsys, "matrix", "H", "--size", "0")
        assert code == 1
        assert err == "error: argument --size: expected a positive integer, got 0\n"

    def test_dimension_budget(self, capsys):
        from idop.oracle import MAX_MATRIX_DIM

        code, out, err = run(capsys, "matrix", "x_1", "--n", "3", "--size", "17")
        assert code == 1 and out == ""
        assert err == f"error: matrix dimension 17^3 = 4913 exceeds the budget {MAX_MATRIX_DIM}\n"


class TestDims:
    def test_e00(self, capsys):
        code, out, _ = run(capsys, "dims", "--gen", "e(0,0)", "--max", "6")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "dims: 1 3 6 10 15 21 28"
        assert "degree=2" in lines[1]

    def test_multiple_generators(self, capsys):
        code, out, _ = run(capsys, "dims", "--gen", "e(0,0),1", "--max", "3")
        assert code == 0
        # the two spans meet trivially, so the dimensions add up
        assert out.splitlines()[0] == "dims: 2 6 12 20"

    def test_generator_with_leading_minus(self, capsys):
        minus = run(capsys, "dims", "--gen", "-x", "--max", "3")
        assert minus[0] == 0
        assert minus == run(capsys, "dims", "--gen", "x", "--max", "3")

    @pytest.mark.parametrize(
        "gen, message",
        [
            ("1,I*", "unexpected 'end' (at position 4)"),  # positions count in the whole list
            ("1,,I", "unexpected ',' (at position 2)"),  # an empty item is an error
            (",I", "unexpected ',' (at position 0)"),
            ("1,", "unexpected 'end' (at position 2)"),
        ],
    )
    def test_malformed_generator_list(self, capsys, gen, message):
        code, out, err = run(capsys, "dims", "--gen", gen, "--max", "1")
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("gen, name", [("1,I", "dims_one_i"), ("e(0,0)", "dims_e00")])
    @pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
    def test_matches_golden_output(self, capsys, gen, name, fmt, suffix):
        code, out, err = run(capsys, "dims", "--gen", gen, "--max", "16", "--format", fmt)
        assert (code, err) == (0, "")
        assert out == (DATA / f"{name}.golden.{suffix}").read_text()


class TestVerify:
    def test_relations_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "relations")
        assert code == 0
        assert "FAIL" not in out
        assert out.strip().endswith("checks passed")

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "dims", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] == payload["total"]

    def test_smaller_samples(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "kernel", "--samples", "10", "--seed", "3")
        assert code == 0

    def test_nonpositive_samples_is_usage_error(self, capsys):
        for value in ("0", "-5"):
            code, out, err = run(capsys, "verify", "--suite", "relations", "--samples", value)
            assert code == 1
            assert out == ""
            assert len(err.splitlines()) == 1
            assert "--samples" in err

    @pytest.mark.parametrize("samples", [0, -1, 1.5, True])
    def test_library_samples_must_be_positive_integer(self, monkeypatch, samples):
        import idop.verify as verify

        def unreachable(seed=0, samples=None):
            raise AssertionError("a check ran")

        monkeypatch.setitem(verify.SUITES, "relations", unreachable)
        with pytest.raises(ValueError) as info:
            verify.run_suites(["relations"], samples=samples)
        assert str(info.value) == f"samples must be a positive integer, got {samples!r}"

    def test_library_rejects_unknown_suite(self, monkeypatch):
        import idop.verify as verify

        def unreachable(seed=0, samples=None):
            raise AssertionError("a check ran")

        monkeypatch.setitem(verify.SUITES, "relations", unreachable)
        with pytest.raises(ValueError) as info:
            verify.run_suites(["relations", "nope"])
        known = ", ".join(sorted(verify.SUITES))
        assert str(info.value) == f"unknown suite 'nope'; known suites: {known}"

    def test_all_suites_match_golden_output(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all")
        assert code == 0
        assert out == (DATA / "verify_all.golden.txt").read_text()

    @pytest.mark.parametrize("seed", range(5))
    def test_socle_with_few_samples(self, capsys, seed):
        # zero Weyl products are redrawn, so a small sample cannot fail by chance
        code, out, _ = run(capsys, "verify", "--suite", "socle", "--samples", "10", "--seed", str(seed))
        assert code == 0, out

    def test_failure_exits_two(self, capsys, monkeypatch):
        import idop.verify as verify

        def broken(seed=0, samples=None):
            return [verify.Check("forced failure", False, "injected")]

        monkeypatch.setitem(verify.SUITES, "relations", broken)
        code, out, _ = run(capsys, "verify", "--suite", "relations")
        assert code == 2
        assert "FAIL" in out


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_argument(self, capsys):
        assert main(["norm"]) == 1

    @pytest.mark.parametrize(
        "argv, flag",
        [(["norm", "--seed", "3", "x"], "--seed"), (["verify", "--n", "2"], "--n")],
    )
    def test_flags_only_where_read(self, capsys, argv, flag):
        # --seed is read only by verify, and verify runs no operator of a given rank
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: unrecognized arguments: " + flag) and err.count("\n") == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "idop", "--help"],
            capture_output=True, text=True, env=module_env(), timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: idop")

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--suite", "relations", "--format", "json"],  # still buffered at return
            ["matrix", "x", "--size", "64", "--format", "json"],  # written while running
        ],
    )
    def test_closed_stdout(self, argv):
        proc = subprocess.Popen(
            [sys.executable, "-m", "idop", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=module_env(),
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert "Traceback" not in err
        assert err.count("\n") <= 1


# Token strings from the expression grammar.  Tokens are joined with spaces, so
# numbers never run together: every exponent is at most 3 and inputs stay
# small, because a rank-n power near MAX_EXPONENT takes seconds.
_NUMBERS = st.integers(0, 3).map(str)
_GENERATORS = st.builds(
    str.__add__,
    st.sampled_from(["x", "d", "I", "H"]),
    st.sampled_from(["", "_1", "_2", "_3", "1", "2", "_0", "_4"]),
)
_EUNITS = st.builds(
    "e({},{}){}".format, st.integers(0, 3), st.integers(0, 3), st.sampled_from(["", "_1", "_2"])
)
_EXPR_TOKENS = st.one_of(
    _GENERATORS, _EUNITS, _NUMBERS, st.sampled_from(["+", "-", "*", "^", "(", ")", "/", ",", "e"])
)
_POLY_TOKENS = st.one_of(
    _NUMBERS, st.sampled_from(["x", "x1", "x2", "x3", "x4", "+", "-", "*", "^", "(", ")", "/"])
)
# Well-formed expressions, so that most commands get past the parser too.
_FORMED = st.recursive(
    st.one_of(_GENERATORS, _EUNITS, _NUMBERS),
    lambda inner: st.one_of(
        st.builds("{} {} {}".format, inner, st.sampled_from(["+", "-", "*", "/"]), inner),
        st.builds("( {} ) ^ {}".format, inner, _NUMBERS),
        st.builds("- {}".format, inner),
    ),
    max_leaves=5,
)
expressions = st.one_of(_FORMED, st.lists(_EXPR_TOKENS, min_size=1, max_size=10).map(" ".join))
polynomials = st.lists(_POLY_TOKENS, min_size=1, max_size=8).map(" ".join)


@st.composite
def command_lines(draw):
    command = draw(
        st.sampled_from(["norm", "apply", "split", "socle", "fdeg", "quot", "matrix", "dims"])
    )
    # Rank-1 commands mostly get --n 1, so that they reach their results;
    # TestSplit.test_requires_rank1 checks their refusal of other ranks.
    rank1_only = command in ("split", "fdeg", "dims")
    ranks = st.sampled_from([1] * 8 + [2, 3]) if rank1_only else st.integers(1, 3)
    argv = [command, "--n", str(draw(ranks))]
    if draw(st.booleans()):
        argv += ["--format", "json"]
    if command == "dims":
        items = draw(st.lists(expressions, min_size=1, max_size=3))
        if draw(st.integers(0, 3)) == 0:  # sometimes an empty item
            items.insert(draw(st.integers(0, len(items))), "")
        return argv + ["--gen", ",".join(items), "--max", str(draw(st.integers(0, 3)))]
    argv.append(draw(expressions))
    if command == "apply":
        argv.append(draw(polynomials))
    if command == "matrix":
        argv += ["--size", str(draw(st.integers(-1, 4)))]
    return argv


class TestGrammarFuzz:
    @given(command_lines())
    @settings(max_examples=200, deadline=5000)
    def test_exit_code_and_no_traceback(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 1:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
