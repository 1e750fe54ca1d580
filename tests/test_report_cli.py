"""Report serialization round trips and command line entry points."""

import csv
import inspect
import io
import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import alphadet.cli as cli
from alphadet.exact import PolyMatrix, PolyQ
from alphadet.report import (
    _matrix_obj,
    build_report,
    from_json,
    sanity_check,
    to_csv,
    to_json,
    to_text,
)
from alphadet.symgrp import Partition, admissible_shapes
from alphadet.transition import transition_matrix
from alphadet.verify import SUITES, CheckResult


# ---------------------------------------------------------------------------
# report


def test_build_report_rows():
    r = build_report(2, 2)
    assert (r.n, r.l) == (2, 2)
    assert [row.shape.parts for row in r.rows] == [(4,), (3, 1), (2, 2)]
    assert [row.kostka for row in r.rows] == [1, 1, 1]
    assert [row.generic_multiplicity for row in r.rows] == [1, 1, 1]
    assert r.oracle is None
    assert not r.alpha_specializations


def test_json_round_trip_plain():
    r = build_report(2, 2, alphas=(Fraction(1), Fraction(-1, 2)))
    assert from_json(to_json(r)) == r


def test_json_round_trip_full():
    r = build_report(
        2, 2, alphas=(Fraction(1),), include_matrices=True, with_oracle=True
    )
    r2 = from_json(to_json(r))
    assert r2 == r
    # serialization is stable under a round trip
    assert to_json(r2) == to_json(r)


def test_json_schema_fields():
    r = build_report(3, 1, alphas=(Fraction(1),), with_oracle=True)
    doc = json.loads(to_json(r))
    assert set(doc) == {"n", "l", "rows", "alpha_specializations", "oracle"}
    assert doc["rows"][0]["shape"] == [3]
    assert doc["rows"][0]["trace"] == ["1", "3", "2"]
    assert doc["rows"][0]["transition"] is None
    assert doc["oracle"]["agrees"] is True
    assert doc["oracle"]["generic"] == [1, 2, 1]
    spec = doc["alpha_specializations"][0]
    assert spec["alpha"] == "1"
    assert spec["multiplicities"] == [1, 0, 0]


def test_to_csv_structure():
    r = build_report(2, 2, alphas=(Fraction(1),))
    rows = list(csv.reader(io.StringIO(to_csv(r))))
    assert rows[0] == [
        "n", "l", "shape", "kostka", "generic_multiplicity", "trace", "mult@1",
    ]
    assert len(rows) == 4
    assert rows[1][2] == "4"
    assert rows[2][2] == "3,1"
    # trace column holds the ascending coefficients
    assert rows[1][5] == "1,2,1"
    assert [row[6] for row in rows[1:]] == ["1", "0", "1"]


def test_to_csv_carries_every_oracle_count():
    r = build_report(3, 1, alphas=(Fraction(1), Fraction(-1, 2)), with_oracle=True)
    rows = list(csv.reader(io.StringIO(to_csv(r))))
    assert rows[0][6:] == [
        "mult@1", "mult@-1/2", "oracle_generic", "oracle@1", "oracle@-1/2",
    ]
    assert [row[8:] for row in rows[1:]] == [
        ["1", "1", "0"], ["2", "0", "2"], ["1", "0", "1"],
    ]
    # each oracle column repeats its rank column
    for rank_col, oracle_col in ((4, 8), (6, 9), (7, 10)):
        assert [row[rank_col] for row in rows[1:]] == [row[oracle_col] for row in rows[1:]]


def test_to_text_mentions_shapes():
    text = to_text(build_report(2, 2))
    assert "(3,1)" in text
    assert "1 - a^2" in text
    assert text.splitlines()[1].split() == ["shape", "size", "mult", "trace"]


def test_sanity_check_clean_and_tampered():
    r = build_report(2, 2)
    assert sanity_check(r) == []
    bad = replace(r, rows=(replace(r.rows[0], kostka=5),) + r.rows[1:])
    assert sanity_check(bad)


# ---------------------------------------------------------------------------
# CLI


def test_cli_decompose_text(capsys):
    assert cli.main(["decompose", "--n", "2", "--l", "2"]) == 0
    out = capsys.readouterr().out
    assert "3,1" in out or "(3, 1)" in out


def test_cli_decompose_json_with_oracle(capsys):
    rc = cli.main(
        ["decompose", "--n", "2", "--l", "2", "--alpha=1", "--alpha=-1/2",
         "--oracle", "--format", "json"]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["oracle"]["agrees"] is True
    alphas = [s["alpha"] for s in doc["alpha_specializations"]]
    assert alphas == ["1", "-1/2"]


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "n,l", [(2, 4), (3, 2), (4, 1), (3, 3), (4, 2), (2, 5), (5, 1), (6, 1)]
)
def test_cli_decompose_json_matrices_golden_bytes(capsys, n, l):
    # The JSON contract, basis-dependent matrices included, byte for byte.
    argv = ["decompose", "--n", str(n), "--l", str(l), "--matrices",
            "--format", "json", "--alpha=-1/2", "--alpha=2"]
    assert cli.main(argv) == 0
    golden = (GOLDEN / f"decompose_{n}_{l}.json").read_bytes()
    assert capsys.readouterr().out.encode() == golden


@pytest.mark.parametrize("n,l", [(3, 3), (4, 2), (7, 1)])
def test_cli_decompose_csv_alphas_golden_bytes(capsys, n, l):
    # The specialized ranks byte for byte, at points where they drop (1,
    # -1/2, -1/3 and more) and where they stay full.
    alphas = ["1", "-1", "1/2", "-1/2", "1/3", "-1/3", "2", "7/3"]
    argv = ["decompose", "--n", str(n), "--l", str(l), "--format", "csv"]
    assert cli.main(argv + [f"--alpha={a}" for a in alphas]) == 0
    golden = (GOLDEN / f"decompose_{n}_{l}.csv").read_bytes()
    assert capsys.readouterr().out.encode() == golden


def test_cli_decompose_csv_oracle_golden_bytes(capsys):
    # The oracle's counts byte for byte: the generic closure, two where
    # counts drop below the generic ones (1 and -1/2), and one whose
    # closure fills the cone part (2).
    argv = ["decompose", "--n", "3", "--l", "2", "--oracle",
            "--alpha=1", "--alpha=-1/2", "--alpha=2", "--format", "csv"]
    assert cli.main(argv) == 0
    golden = (GOLDEN / "decompose_3_2_oracle.csv").read_bytes()
    assert capsys.readouterr().out.encode() == golden


def test_cli_decompose_csv_oracle_frontier_golden_bytes(capsys):
    # The oracle's counts at (4,2), nl = 8, the default specialized cap:
    # generic (over the generic cap, so --max-size 8), at -1/2, where the
    # closure's dimension drops to 1058, and at 2, where it fills the cone
    # part's 3965.
    argv = ["decompose", "--n", "4", "--l", "2", "--oracle", "--max-size", "8",
            "--alpha=-1/2", "--alpha=2", "--format", "csv"]
    assert cli.main(argv) == 0
    golden = (GOLDEN / "decompose_4_2_oracle.csv").read_bytes()
    assert capsys.readouterr().out.encode() == golden


def test_cli_decompose_csv_with_oracle_and_alphas(capsys):
    rc = cli.main(
        ["decompose", "--n", "2", "--l", "2", "--alpha=1", "--alpha=-1/2",
         "--oracle", "--format", "csv"]
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0][6:] == [
        "mult@1", "mult@-1/2", "oracle_generic", "oracle@1", "oracle@-1/2",
    ]
    assert [row[9:] for row in rows[1:]] == [["1", "1"], ["0", "1"], ["1", "1"]]


def test_cli_decompose_refuses_csv_matrices(capsys):
    argv = ["decompose", "--n", "2", "--l", "2", "--matrices", "--format", "csv"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: --matrices has no CSV encoding; use --format json or text\n"
    )
    assert cli.main(argv[:-2] + ["--format", "json"]) == 0


def test_cli_transition_refuses_csv_check(capsys):
    # CSV carries only the matrix, so the checks' results would be lost
    argv = ["transition", "--n", "2", "--l", "2", "--lam", "2,2", "--check", "--format", "csv"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --check has no CSV encoding; use --format json or text\n"
    assert cli.main(argv[:-2] + ["--format", "text"]) == 0
    assert cli.main(argv[:7] + ["--format", "csv"]) == 0


def test_cli_transition_csv_bytes(capsys):
    # One cell per entry, zeros empty, each cell's "p/q" coefficients
    # joined by commas, from the same encoder as the JSON matrix.
    argv = ["transition", "--n", "3", "--l", "2", "--lam", "4,2", "--format", "csv"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == (
        "row,col,entry\n"
        '0,0,"1,1,-1/3,1/3,2/3"\n'
        "0,1,\n"
        '0,2,"0,0,5/9,10/9,5/9"\n'
        "1,0,\n"
        '1,1,"1,1,-1,-1"\n'
        "1,2,\n"
        '2,0,"0,0,1,2,1"\n'
        "2,1,\n"
        '2,2,"1,1,-1/6,2/3,5/6"\n'
    )


def test_matrix_cells_match_the_polyq_route():
    # The cells are read from the stored integer rows; the second route
    # builds every entry as a PolyQ and prints its coefficients.
    def polyq_cells(F):
        return [[p.coeff_strings() for p in row] for row in F.to_rows()]

    for m in range(1, 9):
        for n in range(1, m + 1):
            if m % n:
                continue
            for lam in admissible_shapes(n, m // n):
                F = transition_matrix(n, m // n, lam).entries
                assert _matrix_obj(F) == polyq_cells(F), (n, lam)
    # No PolyQ is built on the way.
    F = transition_matrix(3, 2, Partition((4, 2))).entries
    want = polyq_cells(F)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PolyQ, "__init__", None)
        assert _matrix_obj(F) == want
    # A row over 6, an all-zero row and a row over 1.
    F = PolyMatrix(3, 2, (6, 1, 1), ({0: (3, -2), 1: (1,)}, {}, {1: (0, 0, 5)}))
    cells = [[["1/2", "-1/3"], ["1/6"]], [[], []], [[], ["0", "0", "5"]]]
    assert _matrix_obj(F) == polyq_cells(F) == cells
    assert _matrix_obj(PolyMatrix(0, 0, (), ())) == []


def test_cli_transition_check(capsys):
    rc = cli.main(
        ["transition", "--n", "2", "--l", "2", "--lam", "3,1", "--check",
         "--format", "json"]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["matrix"] == [[["1", "0", "-1"]]]
    assert doc["size"] == 1
    assert all(doc["checks"].values())


def test_cli_trace_check(capsys):
    rc = cli.main(["trace", "--n", "3", "--l", "2", "--lam", "5,1", "--check"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "check matrix-trace: pass" in out


def test_cli_zonal(capsys):
    rc = cli.main(["zonal", "--n", "2", "--l", "2", "--lam", "2,2"])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["s=0: 1", "s=1: -1/2", "s=2: 1"]
    # n != 2 without an explicit permutation is refused
    assert cli.main(["zonal", "--n", "3", "--l", "1", "--lam", "2,1"]) == 2
    assert cli.main(["zonal", "--n", "3", "--l", "1", "--lam", "2,1", "--g", "2,1,3"]) == 0


def test_cli_zonal_refuses_g_with_s(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["zonal", "--n", "2", "--l", "2", "--lam", "3,1", "--g", "2,1,3,4", "--s", "1"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument" in captured.err.splitlines()[-1]


def test_cli_adet(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,4\n")
    assert cli.main(["adet", str(path), "--alpha=-1"]) == 0
    assert capsys.readouterr().out.strip() == "-2"
    assert cli.main(["adet", str(path), "--alpha=1", "--alpha=1/2"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["alpha=1: 10", "alpha=1/2: 7"]


def test_cli_adet_bad_inputs(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    assert cli.main(["adet", str(missing), "--alpha=1"]) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2,3\n4,5,6\n")
    assert cli.main(["adet", str(bad), "--alpha=1"]) == 2


def test_cli_verify_pass(capsys):
    assert cli.main(["verify", "gkp", "--max-l", "3"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert out.strip().endswith("4/4 checks passed")


def test_cli_verify_forced_failure(monkeypatch, capsys):
    def fake(name, **kwargs):
        return [CheckResult("forced", False, "forced failure")]

    monkeypatch.setattr(cli, "run_suite", fake)
    assert cli.main(["verify", "gkp"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] forced" in out
    assert "0/1 checks passed" in out


def test_cli_usage_errors():
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "no-such-suite"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        cli.main(["decompose", "--l", "2"])  # missing --n
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        cli.main(["transition", "--n", "2", "--l", "2", "--lam", "bogus"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--n", "0", "--l", "1"],
        ["decompose", "--n", "2", "--l", "0"],
        ["decompose", "--n", "-1", "--l", "2"],
        ["verify", "oracle", "--cases", "0,1"],
        ["verify", "selfadjoint", "--cases", "2,0"],
        # --max-size is refused while the arguments are parsed, on every
        # subcommand that takes it, before any cap is read.
        ["decompose", "--n", "2", "--l", "1", "--max-size", "-3"],
        ["decompose", "--n", "2", "--l", "1", "--max-size", "0"],
        ["transition", "--n", "2", "--l", "2", "--lam", "3,1", "--max-size", "0"],
        ["trace", "--n", "2", "--l", "2", "--lam", "3,1", "--max-size", "0"],
        ["zonal", "--n", "2", "--l", "2", "--lam", "3,1", "--max-size", "0"],
        ["explore-diagonalizable", "--n", "2", "--l", "2", "--lam", "3,1", "--max-size", "0"],
        ["adet", "matrix.csv", "--alpha", "1", "--max-size", "-3"],
    ],
    ids=" ".join,
)
def test_cli_rejects_sizes_below_one(argv, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be at least 1" in captured.err.splitlines()[-1]


@pytest.mark.parametrize(
    "command",
    [
        ["trace", "--n", "2", "--l", "2", "--lam", "3,1"],
        ["zonal", "--n", "2", "--l", "2", "--lam", "3,1"],
        ["explore-diagonalizable", "--n", "2", "--l", "2", "--lam", "3,1"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_refuses_csv_where_it_has_no_encoding(command, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(command + ["--format", "csv"])
    assert err.value.code == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err.splitlines()[-1]


@pytest.mark.parametrize(
    "argv, refused",
    [
        (["verify", "gkp", "--cases", "2,2"], "--cases"),
        (["verify", "frobenius", "--seed", "3"], "--seed"),
        (["verify", "oracle", "--cases", "2,1", "--paper-variant"], "--paper-variant"),
    ],
    ids=lambda x: " ".join(x) if isinstance(x, list) else x,
)
def test_cli_verify_refuses_options_the_suite_does_not_take(argv, refused, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: suite {argv[1]} does not take {refused}\n"


def test_cli_verify_has_no_tol(capsys):
    # the Vere-Jones check is exact, so there is no tolerance to set
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "vere-jones", "--tol", "1e-9"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --tol 1e-9" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "frobenius", "--max-n", "0"],
        ["verify", "jacobi", "--max-l", "0"],
        ["verify", "n2-theorem", "--max-l", "0"],
    ],
    ids=lambda argv: argv[1],
)
def test_cli_verify_refuses_a_run_with_no_check(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: suite {argv[1]} ran no check with these options\n"


def test_cli_verify_gkp_at_l_zero_runs_its_one_check(capsys):
    assert cli.main(["verify", "gkp", "--max-l", "0"]) == 0
    assert capsys.readouterr().out == "[PASS] gkp l=0\n1/1 checks passed\n"


@pytest.mark.parametrize("case", ["1,1", "1,3"])
def test_cli_verify_hook_trace_refuses_n_1_by_the_hook_shape(case, capsys):
    # (n*l - 1, 1) is no hook at n = 1: the suite says so before it builds F
    assert cli.main(["verify", "hook-trace", "--cases", case]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: hook shape needs n >= 2 and l >= 1\n"


@pytest.mark.parametrize(
    "argv, kwargs",
    [
        (["frobenius", "--max-n", "3"], {"max_n": 3}),
        (["jacobi", "--max-l", "2"], {"max_l": 2}),
        (["hook-trace", "--cases", "2,2;3,1", "--paper-variant"],
         {"cases": ((2, 2), (3, 1)), "paper_variant": True}),
        (["oracle", "--alpha=1/2", "--alpha=2"], {"alphas": (Fraction(1, 2), Fraction(2))}),
        (["vere-jones", "--seed", "3", "--k-max", "4"], {"seed": 3, "k_max": 4}),
        (["selfadjoint"], {}),
    ],
    ids=lambda x: " ".join(x) if isinstance(x, list) else "",
)
def test_cli_verify_passes_each_option_to_its_parameter(argv, kwargs, monkeypatch):
    seen = {}

    def fake(name, **kw):
        seen.update(kw)
        return [CheckResult(name=name, passed=True)]

    monkeypatch.setattr(cli, "run_suite", fake)
    assert cli.main(["verify"] + argv) == 0
    assert seen == kwargs


def test_cli_verify_reaches_every_suite_parameter():
    params = {p for suite in SUITES.values() for p in inspect.signature(suite).parameters}
    assert set(cli.VERIFY_OPTIONS.values()) <= params
    assert params - set(cli.VERIFY_OPTIONS.values()) == {"count"}


def test_cli_version():
    with pytest.raises(SystemExit) as err:
        cli.main(["--version"])
    assert err.value.code == 0


def test_cli_cap_exceeded_is_exit_2(capsys):
    rc = cli.main(["decompose", "--n", "5", "--l", "3"])
    assert rc == 2
    assert "cap" in capsys.readouterr().err
    # --max-size reaches the cap it overrides
    assert cli.main(["decompose", "--n", "2", "--l", "2", "--max-size", "3"]) == 2
    assert "exceeds the representation cap 3;" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--n", "13", "--l", "1"],  # the representation cap
        ["trace", "--n", "11", "--l", "1", "--lam", "11"],  # the enumeration cap
        ["decompose", "--n", "7", "--l", "1", "--oracle"],  # the closure cap
        ["adet", "ones9.csv", "--alpha=1"],  # the alpha-determinant cap
    ],
)
def test_cli_cap_error_names_the_flag(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ones9.csv").write_text("1,1,1,1,1,1,1,1,1\n" * 9)
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "pass max_size (--max-size) to override" in err


def test_cli_explore_json(capsys):
    rc = cli.main(
        ["explore-diagonalizable", "--n", "2", "--l", "2", "--lam", "3,1",
         "--alpha=1/2", "--format", "json"]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    probe = doc["probes"][0]
    assert probe["alpha"] == "1/2"
    assert probe["diagonalizable"] is True
    # 1x1 matrix: charpoly t - (1 - a^2) at a=1/2 is t - 3/4
    assert probe["charpoly"] == ["-3/4", "1"]
