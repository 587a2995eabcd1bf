"""CLI behaviour: outputs, exit codes, report determinism."""

import csv
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pathideal import cli, splitting, sweep
from pathideal.cli import main
from pathideal.fields import GF2
from pathideal.sweep import (
    CSV_COLUMNS,
    iter_param_grid,
    open_problem_sweep,
    records_to_csv,
    report_to_json,
    run_sweep,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_family(capsys):
    code, out, _ = run(capsys, "gen", "--m", "3", "--l", "1", "--k", "2")
    assert code == 0
    assert out == "n=5; (x1*x2*x3, x3*x4*x5)\n"


def test_gen_full_and_json(capsys):
    code, out, _ = run(capsys, "gen", "--m", "2", "--n", "4", "--json")
    assert code == 0
    assert json.loads(out) == {"n": 4, "gens": [[1, 2], [2, 3], [3, 4]]}


def test_betti_golden(capsys):
    code, out, _ = run(capsys, "betti", "--m", "3", "--l", "1", "--k", "2", "--golden")
    assert code == 0
    assert out == "0 3 2\n1 5 1\n"


def test_betti_json_payload(capsys):
    code, out, _ = run(capsys, "betti", "--m", "3", "--l", "1", "--k", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["field"] == "GF(2)"
    assert payload["betti"] == [[0, 3, 2], [1, 5, 1]]
    assert payload["pd"] == 1 and payload["reg"] == 4 and payload["depth_I"] == 4
    assert payload["ideal"] == "n=5; (x1*x2*x3, x3*x4*x5)"


def test_betti_accepts_ideal_text(capsys):
    code, out, _ = run(
        capsys, "betti", "--ideal", "n=3; (x1*x2, x2*x3, x1*x3)", "--golden"
    )
    assert code == 0
    assert out == "0 2 3\n1 3 2\n"


def test_betti_interval_method(capsys):
    code, out, _ = run(
        capsys, "betti", "--m", "3", "--l", "1", "--k", "2", "--golden", "--method", "interval"
    )
    assert code == 0
    assert out == "0 3 2\n1 5 1\n"
    code, _, err = run(capsys, "betti", "--ideal", "n=3; (x1*x3)", "--method", "interval")
    assert code == 2 and "not generated by intervals" in err


def source_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}


def test_cli_import_does_not_load_numpy():
    env = source_env()
    done = subprocess.run(
        [sys.executable, "-c", "import sys, pathideal.cli; assert 'numpy' not in sys.modules"],
        capture_output=True, text=True, env=env, check=False,
    )
    assert done.returncode == 0, done.stderr


def test_betti_checks_survive_optimized_mode():
    """Under ``python -O`` asserts vanish; the table checks must not."""
    env = source_env()
    done = subprocess.run(
        [sys.executable, "-O", "-m", "pathideal.cli", "betti", "--m", "3", "--l", "1",
         "--k", "2", "--golden"],
        capture_output=True, text=True, env=env, check=False,
    )
    assert done.returncode == 0 and done.stdout == "0 3 2\n1 5 1\n"
    broken = subprocess.run(
        [sys.executable, "-O", "-c",
         "from pathideal.betti import BettiTable, _check_degree_row\n"
         "from pathideal.monomials import ideal_from_text\n"
         "_check_degree_row(ideal_from_text('n=3; (x1*x2, x2*x3)'), BettiTable({(0, 2): 1}))"],
        capture_output=True, text=True, env=env, check=False,
    )
    assert broken.returncode != 0 and "RuntimeError" in broken.stderr


def test_formula_unknown_reg(capsys):
    code, out, _ = run(capsys, "formula", "--m", "5", "--l", "3", "--k", "2")
    assert code == 0
    assert "reg=unknown" in out and "regime=offset_step" in out


def test_formula_full(capsys):
    code, out, _ = run(capsys, "formula", "--m", "3", "--n", "8", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pd"] == 3 and payload["reg"] == 5


def test_verify_small_sweep_exit_zero(capsys):
    code, out, _ = run(
        capsys, "verify", "--m-min", "2", "--m-max", "3", "--n-max", "7", "--csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == CSV_COLUMNS
    assert all(len(r) == len(CSV_COLUMNS) for r in rows[1:])


@pytest.mark.parametrize("flag, value, key", [
    ("--l", "2", "l"), ("--k", "3", "k"), ("--k-max", "2", "k"),
])
def test_verify_filters_select_their_records(capsys, flag, value, key):
    grid = ["verify", "--m-max", "5", "--n-max", "13", "--json"]
    _, out, _ = run(capsys, *grid)
    unfiltered = json.loads(out)["records"]
    code, out, _ = run(capsys, *grid, flag, value)
    assert code == 0
    records = json.loads(out)["records"]
    if flag == "--k-max":
        expected = [r for r in unfiltered if r[key] <= int(value)]
    else:
        expected = [r for r in unfiltered if r[key] == int(value)]
    assert records and records == expected


def test_verify_json_byte_identical(capsys):
    args = ["verify", "--m-min", "2", "--m-max", "3", "--n-max", "7", "--json"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_reports_a_mismatch_and_exits_one(monkeypatch, capsys):
    formula = sweep.formula_result
    monkeypatch.setattr(sweep, "formula_result", lambda params: dataclasses.replace(
        formula(params), pd=formula(params).pd + (params.k == 2)))
    code, out, _ = run(capsys, "verify", "--m-max", "2", "--n-max", "4")
    assert code == 1
    assert out.splitlines()[-4:] == [
        "m=2,l=1,k=2      exact_step         2/1       2/2       2/2  X..",
        "m=2,l=1,k=3      exact_step         1/1       2/2       3/3  ...",
        "instances=3 ok=3 skipped=0 mismatches=1",
        "mismatching: m=2,l=1,k=2",
    ]


def test_verify_timing_records_milliseconds(capsys):
    args = ["verify", "--m-max", "3", "--n-max", "9", "--json"]
    _, out, _ = run(capsys, *args)
    assert all(r["millis"] == 0 for r in json.loads(out)["records"])
    code, out, _ = run(capsys, *args, "--timing")
    millis = [r["millis"] for r in json.loads(out)["records"]]
    assert code == 0 and sum(millis) > 0
    assert all(m == round(m, 3) for m in millis)


def test_verify_text_shows_times_only_under_timing(capsys):
    args = ("verify", "--m-max", "2", "--n-max", "8", "--method", "taylor", "--cap-cells", "8")
    code, plain, _ = run(capsys, *args)
    assert code == 0 and "millis" not in plain
    code, timed, _ = run(capsys, *args, "--timing")
    plain, timed = plain.splitlines(), timed.splitlines()
    assert code == 0 and len(timed) == len(plain)
    assert timed[0] == plain[0] and timed[1] == plain[1] + "  millis"
    assert timed[2] == "-" * len(timed[1])
    ok_rows = 0
    for before, after in zip(plain[3:], timed[3:]):
        if "skipped" in before or before.startswith("instances="):
            assert after == before
            continue
        ok_rows += 1
        head, millis = after.rsplit(None, 1)
        assert head == before and float(millis) > 0 and millis == f"{float(millis):.3f}"
    assert ok_rows == 3


def test_verify_records_a_cell_cap_refusal_as_skipped(capsys):
    args = ["verify", "--m-min", "2", "--m-max", "2", "--n-max", "8", "--method", "taylor", "--json"]
    code, out, err = run(capsys, *args, "--cap-cells", "8")
    assert code == 0
    capped = json.loads(out)
    skipped = [r for r in capped["records"] if r["status"] == "skipped"]
    assert skipped and capped["summary"]["skipped"] == len(skipped)
    assert all(r["reason"] == f"k={r['k']}: cell count exceeds cap 8" for r in skipped)
    assert "skipped" in err
    # the instances within the cap keep their records
    _, out, _ = run(capsys, *args)
    full = {(r["m"], r["l"], r["k"]): r for r in json.loads(out)["records"]}
    kept = [r for r in capped["records"] if r["status"] == "ok"]
    assert kept and all(full[(r["m"], r["l"], r["k"])] == r for r in kept)
    # the cell cap replaces the generator cap
    with pytest.raises(SystemExit) as info:
        main([*args, "--cap-k", "18"])
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "6", "--m-max", "2"],  # was read as --n-max 6
    ["open-problem", "--m", "3"],  # was read as --method 3
])
def test_an_option_prefix_is_not_read_as_a_longer_option(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    captured = capsys.readouterr()
    assert info.value.code == 2 and captured.out == ""
    assert f"unrecognized arguments: {' '.join(argv[1:3])}" in captured.err


def test_split_command(capsys):
    code, out, _ = run(capsys, "split", "--m", "3", "--l", "1", "--k", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] is True
    assert payload["fht_applies"] is True
    assert payload["witness"] is None
    assert payload["tables"]["I"] == [[0, 3, 2], [1, 5, 1]]


def test_split_failure_exit_code(capsys):
    # partition at x4 groups two far-apart generators; the identity fails at (1,5)
    code, out, _ = run(
        capsys, "split", "--ideal", "n=5; (x1*x2*x4, x2*x3, x3*x4*x5)", "--var", "4",
        "--json",
    )
    payload = json.loads(out)
    assert payload["verdict"] is False
    assert payload["witness"] == [1, 5]
    assert payload["fht_applies"] is False
    assert code == 1


@pytest.mark.parametrize(
    "argv, verdict",
    [
        (["--m", "3", "--l", "1", "--k", "3"], True),
        (["--ideal", "n=5; (x1*x2*x4, x2*x3, x3*x4*x5)", "--var", "4"], False),
    ],
)
def test_split_computes_four_tables(monkeypatch, capsys, argv, verdict):
    """``fht_condition`` returns the checked case whether or not the condition
    applies, and one ``split`` computes each of the four tables once."""
    results, tables = [], []
    fht, table = cli.fht_condition, splitting.betti_table
    monkeypatch.setattr(cli, "fht_condition", lambda *a: results.append(fht(*a)) or results[-1])
    monkeypatch.setattr(splitting, "betti_table", lambda *a: tables.append(a[0]) or table(*a))
    code, out, _ = run(capsys, "split", *argv, "--json")
    (result,) = results
    assert result.applies is verdict and result.case.verdict is verdict
    assert json.loads(out)["verdict"] is verdict and code == (0 if verdict else 1)
    assert len(tables) == 4


def test_cert_command(capsys):
    code, out, _ = run(capsys, "cert", "--m", "3", "--l", "1", "--k", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["free_vertex_property"] is True
    assert payload["seq_cm"] is True
    assert payload["shelling"] is not None


def test_cert_skips_checks_beyond_the_cover_cap(capsys):
    code, out, _ = run(capsys, "cert", "--m", "3", "--l", "1", "--k", "8", "--json")
    assert code == 0
    payload = json.loads(out)
    # n = 17 is above the minor cap; the path clutter is an interval clutter
    assert payload["free_vertex_property"] is True
    assert payload["free_vertex_method"] == "interval-clutter theorem"
    assert "exceeds cap" in payload["cover_complex_skipped"]
    assert payload["facets"] is None and payload["shelling"] is None
    assert payload["seq_cm"] is None
    assert "shelling_skipped" in payload and "seq_cm_skipped" in payload


def test_cert_cover_complex_at_the_cover_cap(capsys):
    code, out, _ = run(capsys, "cert", "--m", "2", "--l", "1", "--k", "15", "--json")
    assert code == 0
    payload = json.loads(out)
    # n = 16 is the cover cap: the complex is built, and its 86 facets, past
    # the cap of the shelling search, shell in the canonical order
    assert len(payload["facets"]) == 86
    assert len(payload["shelling"]) == 86 and "shelling_skipped" not in payload
    assert "cover_complex_skipped" not in payload
    code, out, _ = run(capsys, "cert", "--m", "2", "--l", "1", "--k", "16", "--json")
    assert code == 0
    assert json.loads(out)["cover_complex_skipped"] == "n=17 exceeds cap 16"


def test_cert_skips_free_vertex_check_of_large_non_interval_clutter(capsys):
    _, out, _ = run(capsys, "cert", "--clutter", "n=13; {1,3},{2,4}", "--json")
    payload = json.loads(out)
    assert payload["free_vertex_property"] is None
    assert payload["free_vertex_method"] == "skipped: n=13 exceeds cap 12"


def test_cert_triangle_fails(capsys):
    code, out, _ = run(capsys, "cert", "--clutter", "n=3; {1,2},{2,3},{1,3}", "--json")
    payload = json.loads(out)
    assert payload["free_vertex_property"] is False
    assert payload["counterexample_minor"] == "n=3; {1,2},{1,3},{2,3}"
    assert payload["counterexample_assignment"] == {"zeros": [], "ones": []}
    assert code == 1
    _, out, _ = run(capsys, "cert", "--clutter", "n=5; {1,2},{2,3},{1,3},{3,4,5}", "--json")
    payload = json.loads(out)
    assert payload["counterexample_minor"] == "n=5; {1,2},{1,3},{2,3}"
    assert payload["counterexample_assignment"] == {"zeros": [4], "ones": []}


@pytest.mark.parametrize(
    "text, message",
    [
        ("n=3; {0,1}", "variable index 0 out of range (indices are 1-based)"),
        ("n=3; {}", "edge empty or outside the vertex set"),
        ("n=3; {1,1},{2,3}", "monomial '{1,1}' repeats a variable (monomials are squarefree)"),
        ("n=3; {1,2},{2,3", "cannot parse clutter text 'n=3; {1,2},{2,3'"),
        ("n=3; {1,2}, x5", "cannot parse clutter text 'n=3; {1,2}, x5'"),
        ("n=3; garbage", "cannot parse clutter text 'n=3; garbage'"),
    ],
)
def test_malformed_clutter_exits_two(capsys, text, message):
    """Each ``{...}`` of ``--clutter`` is read as the set form of ``--ideal``,
    and text outside the comma-separated sets is refused, not dropped."""
    assert run(capsys, "cert", "--clutter", text) == (2, "", f"error: {message}\n")


def test_cert_cap_flags_record_their_skips(capsys):
    """``--cap-minors``, ``--cap-facets`` and ``--cap-seqcm`` each skip their
    check on the 7-cycle, which is not an interval clutter; skips exit 0."""
    argv = ["cert", "--clutter", "n=7; {1,2},{2,3},{3,4},{4,5},{5,6},{6,7},{1,7}",
            "--cap-facets", "1", "--cap-seqcm", "3", "--cap-minors", "2"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == [
        "free vertex property: None [skipped: n=7 exceeds cap 2]",
        "shelling: 7 facets exceed cap 1",
        "sequentially CM over GF(2): 7 vertices exceed cap 3",
    ]
    code, out, _ = run(capsys, *argv, "--json")
    payload = json.loads(out)
    assert code == 0 and len(payload["facets"]) == 7
    assert payload["free_vertex_property"] is None
    assert payload["free_vertex_method"] == "skipped: n=7 exceeds cap 2"
    assert payload["shelling"] is None and payload["shelling_skipped"] == "7 facets exceed cap 1"
    assert payload["seq_cm"] is None and payload["seq_cm_skipped"] == "7 vertices exceed cap 3"


GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "golden, code, argv",
    [
        ("cert_clutter_n4.txt", 1, ["cert", "--clutter", "n=4; {1,2},{2,3},{1,3},{3,4}"]),
        ("cert_clutter_n4.json", 1, ["cert", "--clutter", "n=4; {1,2},{2,3},{1,3},{3,4}", "--json"]),
        ("cert_path_m3_l1_k2.txt", 0, ["cert", "--m", "3", "--l", "1", "--k", "2"]),
        ("split_path_m3_l1_k3.json", 0, ["split", "--m", "3", "--l", "1", "--k", "3", "--json"]),
        (
            "split_ideal_n5_var4.json", 1,
            ["split", "--ideal", "n=5; (x1*x2*x4, x2*x3, x3*x4*x5)", "--var", "4", "--json"],
        ),
        ("betti_path_m3_l1_k3_report.txt", 0, ["betti", "--m", "3", "--l", "1", "--k", "3"]),
        (
            "betti_ideal_n5_rat_both_report.txt", 0,
            ["betti", "--ideal", "n=5; (x1*x2*x4, x2*x3, x3*x4*x5)", "--field", "rat",
             "--method", "both"],
        ),
        ("verify_default.txt", 0, ["verify"]),
        (
            "verify_m2_n8_taylor_cap8.txt", 0,
            ["verify", "--m-max", "2", "--n-max", "8", "--method", "taylor", "--cap-cells", "8"],
        ),
        ("split_path_m3_l1_k3.txt", 0, ["split", "--m", "3", "--l", "1", "--k", "3"]),
        (
            "split_ideal_n5_var4.txt", 1,
            ["split", "--ideal", "n=5; (x1*x2*x4, x2*x3, x3*x4*x5)", "--var", "4"],
        ),
        ("open_problem_default.txt", 0, ["open-problem"]),
        ("open_problem_default.csv", 0, ["open-problem", "--csv"]),
        (
            "open_problem_n11_taylor_cap4.txt", 0,
            ["open-problem", "--n-max", "11", "--method", "taylor", "--cap-cells", "4"],
        ),
        (
            "open_problem_n11_taylor_cap4.csv", 0,
            ["open-problem", "--n-max", "11", "--method", "taylor", "--cap-cells", "4", "--csv"],
        ),
        ("formula_m5_l3_k2.txt", 0, ["formula", "--m", "5", "--l", "3", "--k", "2"]),
        ("formula_m3_n8.txt", 0, ["formula", "--m", "3", "--n", "8"]),
    ],
)
def test_report_matches_its_golden_byte_for_byte(capsys, golden, code, argv):
    """A run that skips instances reports them on stderr, pinned by the
    golden's ``.stderr`` sibling; every other run writes nothing there."""
    got, out, err = run(capsys, *argv)
    assert got == code
    assert out.encode() == (GOLDEN_DIR / golden).read_bytes()
    stderr = GOLDEN_DIR / (Path(golden).stem + ".stderr")
    assert err.encode() == (stderr.read_bytes() if stderr.exists() else b"")


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["verify", "--m-max", "12", "--n-max", "60", "--json"],
            "7c0c9617a5918463dfd08240984647092405e5bd6f3d585168e8c93d12822095",
        ),
        (
            ["open-problem", "--n-max", "16", "--json"],
            "41ce9a901abfb8c0412126d5faf3cdd99185f30e472340da074f4f85d0a64136",
        ),
    ],
)
def test_wide_sweep_report_matches_its_pinned_digest(capsys, argv, digest):
    """Grids that reach all three regimes at larger k than the goldens do,
    pinned by the sha256 of the report (918 kB for the verify sweep)."""
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cert_counterexample_survives_optimized_mode():
    """Under ``python -O`` asserts vanish; the minor search's fallback must not."""
    env = source_env()
    for text, minor, assignment in [
        ("n=3; {1,2},{2,3},{1,3}", "n=3; {1,2},{1,3},{2,3}", "none"),
        ("n=4; {1,2},{1,3},{2,3},{3,4}", "n=4; {1,2},{1,3},{2,3}", "x4 = 0"),
        # disconnected: the edge's component is dropped by the replay
        ("n=5; {1,2},{2,3},{1,3},{4,5}", "n=5; {1,2},{1,3},{2,3}", "x4 = 0"),
    ]:
        done = subprocess.run(
            [sys.executable, "-O", "-m", "pathideal.cli", "cert", "--clutter", text],
            capture_output=True, text=True, env=env, check=False,
        )
        assert done.returncode == 1, done.stderr
        assert "free vertex property: False [minor enumeration]\n" in done.stdout
        assert f"  counterexample minor: {minor}\n" in done.stdout
        assert f"  counterexample assignment: {assignment}\n" in done.stdout


def test_open_problem_contains_spot_value(capsys):
    code, out, _ = run(capsys, "open-problem", "--n-max", "9", "--json")
    assert code == 0
    payload = json.loads(out)
    spot = [
        r for r in payload["records"] if (r["m"], r["l"], r["k"]) == (5, 3, 2)
    ]
    assert spot and spot[0]["reg_oracle"] == 6


def test_wide_sweeps_run_without_skips(capsys):
    code, out, _ = run(capsys, "verify", "--n-max", "40", "--m-max", "3", "--json")
    assert code == 0
    summary = json.loads(out)["summary"]
    assert summary["instances"] == summary["ok"] == 96 and summary["skipped"] == 0
    code, out, _ = run(capsys, "open-problem", "--n-max", "40", "--json")
    assert code == 0
    records = json.loads(out)["records"]
    assert records and all("status" not in r for r in records)


def test_invalid_arguments_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--m-min", "notanumber"])
    assert info.value.code == 2
    code, _, err = run(capsys, "betti", "--ideal", "garbage")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "betti", "--ideal", "n=2; (x1*x1)")  # not squarefree
    assert code == 2 and "repeats a variable" in err
    code, _, err = run(capsys, "gen")  # no ideal selected
    assert code == 2 and err == "error: one of --ideal or --m is required\n"
    done = subprocess.run(
        [sys.executable, "-m", "pathideal.cli", "gen"],
        capture_output=True, text=True, env=source_env(), check=False,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: one of --ideal or --m is required\n"


@pytest.mark.parametrize("argv, message", [
    (["gen"], "one of --ideal or --m is required"),
    (["betti", "--m", "3"], "give --l and --k for the general family, or --n for all paths"),
    (["formula", "--m", "3"], "give --m --l --k, or --m --n for all paths"),
    (["split", "--ideal", "n=3; (x1*x2, x2*x3)"], "--var is required with --ideal"),
    (["split", "--m", "3"], "give --m --l --k (k >= 2), or --ideal with --var"),
    (["split", "--m", "3", "--l", "1", "--k", "1"], "splitting at the last generator needs k >= 2"),
    (["cert"], "give --m --l --k or --clutter"),
    # a mix of selections that would drop a flag the user gave
    (["gen", "--m", "3", "--k", "2", "--n", "8"],
     "give --l and --k for the general family, or --n for all paths"),
    (["gen", "--m", "3", "--l", "1", "--k", "2", "--n", "99"],
     "give --l and --k for the general family, or --n for all paths"),
    (["gen", "--ideal", "n=3; (x1*x2, x2*x3)", "--m", "2", "--n", "3"],
     "one of --ideal or --m is required"),
    (["betti", "--m", "3", "--l", "1", "--n", "8"],
     "give --l and --k for the general family, or --n for all paths"),
    (["betti", "--ideal", "n=3; (x1*x2, x2*x3)", "--m", "3", "--l", "1", "--k", "2"],
     "one of --ideal or --m is required"),
    (["formula", "--m", "3", "--l", "1", "--n", "8"], "give --m --l --k, or --m --n for all paths"),
    (["formula", "--m", "3", "--l", "1", "--k", "2", "--n", "99"],
     "give --m --l --k, or --m --n for all paths"),
    (["split", "--ideal", "n=3; (x1*x2, x2*x3)", "--var", "2", "--m", "3"],
     "give --m --l --k (k >= 2), or --ideal with --var"),
    (["cert", "--clutter", "n=3; {1,2},{2,3}", "--m", "3", "--l", "1", "--k", "2"],
     "give --m --l --k or --clutter"),
    # an all-paths member out of range, refused as make_full_path_ideal refuses it
    (["formula", "--m", "1", "--n", "8"], "path length m=1 must be >= 2"),
    (["formula", "--m", "9", "--n", "8"], "path length m=9 exceeds vertex count n=8"),
])
def test_missing_or_inconsistent_selection_exits_two(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_malformed_field_exits_two_with_the_expected_forms(capsys):
    for text in ("gfx", "gf", "GF(x)", "zz"):
        code, out, err = run(capsys, "betti", "--m", "2", "--n", "4", "--field", text)
        assert code == 2 and out == "", text
        assert err == f"error: cannot parse field {text!r} (expected gf2, gf<p> or rat)\n"
    # a well-formed field that is not one keeps its own message
    code, _, err = run(capsys, "betti", "--m", "2", "--n", "4", "--field", "gf4")
    assert code == 2 and err == "error: p=4 must be a prime below 2^16\n"


@pytest.mark.parametrize("argv", [
    ["gen", "--m", "3", "--l", "1", "--k", "2", "--field", "rat"],
    ["formula", "--m", "3", "--l", "1", "--k", "2", "--method", "both"],
    ["split", "--m", "3", "--l", "1", "--k", "2", "--cap-n", "3"],
    ["cert", "--m", "3", "--l", "1", "--k", "2", "--method", "taylor"],
])
def test_options_a_subcommand_does_not_read_are_refused(argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "table.txt"
    code, out, _ = run(
        capsys, "betti", "--m", "2", "--n", "4", "--golden", "--out", str(target)
    )
    assert code == 0 and out == ""
    assert target.read_text() == "0 2 3\n1 3 2\n"


# ---------------------------------------------------------------------------
# sweep engine directly
# ---------------------------------------------------------------------------


def test_param_grid_matches_bounds():
    grid = list(iter_param_grid(2, 5, 13))
    assert len(grid) == len(set(grid))
    for params in grid:
        assert 2 <= params.m <= 5 and params.n <= 13
    assert all(
        params in grid
        for params in [p for p in grid]
    )
    from pathideal.pathfamily import PathParams

    assert PathParams(2, 1, 12) in grid and PathParams(5, 4, 9) in grid


def test_sweep_reports_are_deterministic_and_clean():
    report1 = run_sweep(2, 3, 8, GF2, "auto")
    report2 = run_sweep(2, 3, 8, GF2, "auto")
    assert report_to_json(report1) == report_to_json(report2)
    assert records_to_csv(report1["records"], CSV_COLUMNS) == records_to_csv(
        report2["records"], CSV_COLUMNS)
    assert report1["summary"]["mismatches"] == 0
    assert all(r["millis"] == 0 for r in report1["records"])


def test_sweep_parallel_matches_serial():
    serial = run_sweep(2, 3, 8, GF2, "auto", jobs=1)
    parallel = run_sweep(2, 3, 8, GF2, "auto", jobs=2)
    assert report_to_json(serial) == report_to_json(parallel)


def test_sweep_skips_over_cap_instances(capsys):
    report = run_sweep(2, 2, 8, GF2, "taylor", cap_cells=8)
    skipped = [r for r in report["records"] if r["status"] == "skipped"]
    assert skipped and all("exceeds cap" in r["reason"] for r in skipped)
    assert "skipped" in capsys.readouterr().err
    assert report["summary"]["skipped"] == len(skipped)
    # skipped instances are not mismatches
    assert report["summary"]["mismatches"] == 0


def test_record_mismatch_drives_exit_code():
    from pathideal.sweep import record_is_mismatch

    clean = {"match_pd": True, "match_reg": None, "match_depth": True}
    dirty = {"match_pd": True, "match_reg": False, "match_depth": True}
    skipped = {"match_pd": None, "match_reg": None, "match_depth": None}
    assert not record_is_mismatch(clean)
    assert record_is_mismatch(dirty)
    assert not record_is_mismatch(skipped)


def test_oversized_ambient_is_skipped_not_fatal(capsys):
    report = run_sweep(2, 2, 40, GF2, "taylor", k_fixed=39)
    (record,) = report["records"]
    assert record["status"] == "skipped"
    assert record["reason"] == "k=39: cell count exceeds cap 262144"
    assert report["summary"]["mismatches"] == 0


def test_open_problem_records_cap_overflow_as_skipped(capsys):
    # k <= 2 generators give at most 4 cells, and k >= 3 at least 6: the
    # empty set, the singletons and the pairs holding the first generator
    capped = open_problem_sweep(n_max=11, method="taylor", cap_cells=4)
    full = open_problem_sweep(n_max=11)
    assert [(r["m"], r["l"], r["k"]) for r in capped] == [(r["m"], r["l"], r["k"]) for r in full]
    skipped = [r for r in capped if r.get("status") == "skipped"]
    assert skipped and all(r["k"] > 2 and "exceeds cap" in r["reason"] for r in skipped)
    assert all(r["reg_oracle"] is None for r in skipped)
    assert "skipped" in capsys.readouterr().err
    # the records that ran are the same as without the cap
    assert [r for r in capped if "status" not in r] == [r for r in full if r["k"] <= 2]


def test_open_problem_builds_each_path_ideal_once(monkeypatch, capsys):
    calls = []
    build = sweep.make_path_ideal
    monkeypatch.setattr(sweep, "make_path_ideal", lambda params: calls.append(params) or build(params))
    records = open_problem_sweep(n_max=11, method="taylor", cap_cells=4)
    assert any(r.get("status") == "skipped" for r in records)
    assert [(p.m, p.l, p.k) for p in calls] == [(r["m"], r["l"], r["k"]) for r in records]


def test_open_problem_records_offset_regime_only():
    records = open_problem_sweep(n_max=11)
    assert records
    for r in records:
        assert 1 <= r["s"] < r["m"] - r["l"]
        assert r["reg_oracle"] >= r["m"]
        assert r["coincides"] == (r["reg_oracle"] == r["reg_small_overlap_formula"])
