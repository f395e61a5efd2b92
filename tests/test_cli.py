from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from pgwitness import automata, solvers, witnesses
from pgwitness.cli import main
from pgwitness.games import generate_random, serialize_pgsolver
from pgwitness.solvers import WinningSets

EVEN_LOOP = "parity 0;\n0 2 0 0;\n"
ALL_ODD = "parity 1;\n0 1 0 1;\n1 3 1 0;\n"


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_even_self_loop(tmp_path, capsys):
    f = tmp_path / "loop.gm"
    f.write_text(EVEN_LOOP)
    code, out, _ = run(capsys, "solve", str(f))
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "even: 0"
    assert lines[1] == "odd: "
    assert any(line.startswith("# calls:") for line in lines[2:])


def test_solve_without_even_colours_prints_a_zero_work_counter(tmp_path, capsys):
    f = tmp_path / "odd.gm"
    f.write_text(ALL_ODD)
    for algo, counter in (("product", "# product_positions: 0"), ("lifting", "# lifts: 0")):
        code, out, _ = run(capsys, "solve", str(f), "--algo", algo)
        assert code == 0
        assert out.split("\n")[:3] == ["even: ", "odd: 0 1", counter], algo


def test_solve_same_answer_for_every_algorithm(tmp_path, capsys):
    f = tmp_path / "g.gm"
    code, out, _ = run(capsys, "gen", "--n", "7", "--max-colour", "5", "--seed", "11")
    assert code == 0
    f.write_text(out)
    combos = [["--algo", "zielonka"]] + [
        ["--algo", algo, "--variant", variant]
        for algo in ("product", "lifting")
        for variant in ("classic", "concise", "colour")
    ]
    answers = set()
    for argv in combos:
        code, out, _ = run(capsys, "solve", str(f), *argv)
        assert code == 0
        lines = out.strip().split("\n")
        answers.add((lines[0], lines[1]))
    assert len(answers) == 1


def test_solve_lifting_with_basic_update_exits_2(tmp_path, capsys):
    # Also on a game without even colours, which needs no automaton.
    for text in (EVEN_LOOP, ALL_ODD):
        f = tmp_path / "g.gm"
        f.write_text(text)
        code, out, err = run(
            capsys, "solve", str(f), "--algo", "lifting", "--update", "basic"
        )
        assert code == 2
        assert out == ""
        assert "antagonistic" in err


def test_solve_malformed_file_exits_2_with_line(tmp_path, capsys):
    f = tmp_path / "bad.gm"
    f.write_text("parity 1;\n0 2 0 0;\n1 1 7 0;\n")
    code, _, err = run(capsys, "solve", str(f))
    assert code == 2
    assert "line 3" in err


def test_solve_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "solve", "/nonexistent/game.gm")
    assert code == 2
    assert "error:" in err


def test_solve_budget_below_the_even_vertex_count_exits_2(tmp_path, capsys):
    f = tmp_path / "g.gm"
    f.write_text(serialize_pgsolver(generate_random(8, 4, (1, 3), 4)))
    code, out, err = run(capsys, "solve", str(f), "--algo", "lifting", "--e", "1")
    assert code == 2
    assert out == ""
    assert "unsound" in err


def test_solve_zielonka_rejects_the_witness_options(tmp_path, capsys):
    # zielonka has no rule set, update or budget: each option exits 2
    # before the file is read, and a plain solve prints what it always did.
    f = tmp_path / "g.gm"
    code, out, _ = run(capsys, "gen", "--n", "8", "--max-colour", "4", "--seed", "4")
    f.write_text(out)
    code, out, err = run(
        capsys, "solve", str(f), "--algo", "zielonka", "--e", "1", "--update", "basic"
    )
    assert (code, out) == (2, "")
    assert "--algo zielonka takes no --update, --e" in err
    for option in (["--e", "9"], ["--update", "antagonistic"], ["--variant", "concise"]):
        code, out, err = run(capsys, "solve", "/nonexistent/game.gm", "--algo", "zielonka", *option)
        assert (code, out) == (2, ""), option
        assert f"takes no {option[0]}" in err, option
    for argv in ([], ["--algo", "zielonka"]):
        code, out, _ = run(capsys, "solve", str(f), *argv)
        assert (code, out) == (0, "even: \nodd: 0 1 2 3 4 5 6 7\n# calls: 4\n"), argv
    # The witness solvers still default to the concise rule set.
    code, out, _ = run(capsys, "solve", str(f), "--algo", "product")
    assert code == 0
    assert out == run(capsys, "solve", str(f), "--algo", "product", "--variant", "concise")[1]


def test_solve_lifting_above_the_table_cap_exits_3(tmp_path, capsys):
    f = tmp_path / "g.gm"
    f.write_text(serialize_pgsolver(generate_random(8, 10, (1, 3), 13)))
    code, out, err = run(capsys, "solve", str(f), "--algo", "lifting", "--e", "484")
    assert code == 3
    assert out == ""
    assert "table cap" in err


def test_solve_antagonistic_product_past_the_constructive_step_cap_exits_3(
    tmp_path, capsys, monkeypatch
):
    # The same path as the 10 000-step cap, reached in fewer steps.
    monkeypatch.setattr(automata, "CONSTRUCTIVE_STEP_CAP", 100)
    f = tmp_path / "g.gm"
    f.write_text(serialize_pgsolver(generate_random(8, 10, (1, 3), 11)))
    argv = ["solve", str(f), "--algo", "product", "--update", "antagonistic", "--e", "484"]
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "cap of 100 constructive steps" in err


def test_python_dash_m_runs_the_cli(tmp_path, capsys):
    f = tmp_path / "g.gm"
    f.write_text(serialize_pgsolver(generate_random(9, 5, (1, 3), 2)))
    argv = ["solve", str(f), "--algo", "lifting", "--variant", "colour"]
    code, out, _ = run(capsys, *argv)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "pgwitness", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (code, out)
    assert code == 0 and out.startswith("even:")


def test_trace_colour_word_to_acceptance(capsys):
    code, out, _ = run(
        capsys, "trace", "--colours", "2,2,2,2", "--variant", "colour", "--e", "3"
    )
    assert code == 0
    assert out == (
        "_,_ -> (2) -> _,2\n"
        "_,2 -> (2) -> 2,_\n"
        "2,_ -> (2) -> 2,2\n"
        "2,2 -> (2) -> Won\n"
        "ACCEPTED at step 4\n"
    )


def test_trace_rejected(capsys):
    code, out, _ = run(capsys, "trace", "--colours", "1", "--e", "1")
    assert code == 0
    assert out.endswith("REJECTED\n")


@pytest.mark.parametrize(
    "colours, message",
    [
        ("2,x", "expected comma-separated colours, got '2,x'"),
        (" , ", "empty colour word"),
        ("2,0", "colours must be >= 1"),
    ],
)
def test_trace_malformed_colour_word_exits_2(capsys, colours, message):
    assert run(capsys, "trace", "--colours", colours, "--e", "2") == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("colours, max_colour", [("9", "4"), ("2,1", "0")])
def test_trace_colour_above_max_exits_2(capsys, colours, max_colour):
    # --max-colour 0 is a value given, not the default.
    code, _, err = run(
        capsys, "trace", "--colours", colours, "--max-colour", max_colour, "--e", "2"
    )
    assert code == 2
    assert "max-colour" in err


def test_trace_antagonistic_update(capsys):
    code, out, _ = run(
        capsys,
        "trace",
        "--colours",
        "2,2",
        "--update",
        "antagonistic",
        "--e",
        "1",
    )
    assert code == 0
    assert out.endswith("ACCEPTED at step 2\n")


def test_enumerate_count_only(capsys):
    code, out, _ = run(
        capsys,
        "enumerate",
        "--variant",
        "concise",
        "--max-colour",
        "2",
        "--e",
        "1",
        "--count-only",
    )
    assert code == 0
    assert out == "2\n"


@pytest.mark.parametrize(
    "variant, max_colour, e, min_colour",
    [
        ("concise", 6, 13, "1"),
        ("classic-value-capped", 7, 20, "2"),
        ("original-length", 5, 9, "1"),
        ("concise", 1, 1, "1"),
    ],
)
def test_enumerate_count_only_is_the_enumerated_count(capsys, variant, max_colour, e, min_colour):
    args = ["enumerate", "--variant", variant, "--max-colour", str(max_colour), "--e", str(e)]
    args += ["--min-colour", min_colour]
    witnesses._statespace.cache_clear()
    code, count, _ = run(capsys, *args, "--count-only")
    # The count is the exact size: nothing is enumerated.
    assert witnesses._statespace.cache_info().currsize == 0
    assert code == 0
    code, listed, _ = run(capsys, *args)
    lines = listed.splitlines()
    assert code == 0
    assert lines[-1] == f"# {len(lines) - 1} states"
    assert count == f"{len(lines) - 1}\n"


@pytest.mark.parametrize(
    "cap, code, message",
    [("-1", 2, "cap -1 is below 0"), ("1", 3, "has 2 states, above the cap of 1")],
)
def test_enumerate_count_only_keeps_the_cap_checks(capsys, cap, code, message):
    rc, out, err = run(
        capsys, "enumerate", "--max-colour", "2", "--e", "1", "--cap", cap, "--count-only"
    )
    assert (rc, out) == (code, "")
    assert message in err


def test_enumerate_lists_states(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--variant", "concise", "--max-colour", "2", "--e", "1"
    )
    assert code == 0
    assert out == "_\n2\n# 2 states\n"


def test_enumerate_cap_exits_3(capsys):
    code, _, err = run(
        capsys,
        "enumerate",
        "--variant",
        "original-length",
        "--max-colour",
        "6",
        "--e",
        "31",
        "--cap",
        "10",
    )
    assert code == 3
    assert "has 1683 states, above the cap of 10" in err


@pytest.mark.parametrize(
    "cap, code, message",
    [("-1", 2, "cap -1 is below 0"), ("0", 3, "has 2 states, above the cap of 0")],
)
def test_enumerate_negative_cap_exits_2_and_cap_0_is_a_cap(capsys, cap, code, message):
    rc, out, err = run(
        capsys, "enumerate", "--variant", "concise", "--max-colour", "2", "--e", "1", "--cap", cap
    )
    assert (rc, out) == (code, "")
    assert message in err


def test_count_fixed_table(capsys):
    code, out, _ = run(capsys, "count", "--table", "fixed")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 14
    assert lines[0].startswith("n,c,old_exact")
    assert lines[1].startswith("8,8,1060,770,225,")


def test_count_linear_table(capsys):
    code, out, _ = run(capsys, "count", "--table", "linear")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 14
    assert lines[0].startswith("n,c,old_exact")
    assert lines[1] == "260,26,381663518,190609408,53751842,381,190,53,0.2820"


def test_count_single_row_sweep(capsys):
    code, out, _ = run(capsys, "count", "--c", "10", "--n-range", "1024..1024")
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert row[:5] == ["1024", "10", "15157189", "4374528", "1211398"]
    assert row[6] == "4374"


def test_count_empty_range_exits_2(capsys):
    code, _, err = run(capsys, "count", "--c", "10", "--n-range", "8..4")
    assert code == 2
    assert "range" in err


def test_count_needs_table_or_sweep_args(capsys):
    code, _, err = run(capsys, "count", "--c", "10")
    assert code == 2
    assert "--n-range" in err


def test_gen_is_deterministic_and_parseable(tmp_path, capsys):
    code1, out1, _ = run(capsys, "gen", "--n", "6", "--max-colour", "4", "--seed", "3")
    code2, out2, _ = run(capsys, "gen", "--n", "6", "--max-colour", "4", "--seed", "3")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.startswith("parity ")
    f = tmp_path / "gen.gm"
    f.write_text(out1)
    code, out, _ = run(capsys, "solve", str(f))
    assert code == 0


def test_gen_bad_degree_range_exits_2(capsys):
    code, _, err = run(capsys, "gen", "--n", "4", "--max-colour", "3", "--deg", "x..y")
    assert code == 2
    assert "range" in err


def test_diff_agrees_and_emits_csv(capsys):
    code, out, _ = run(capsys, "diff", "--seeds", "0..3", "--n", "6")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 5
    assert lines[0].startswith("seed,")
    assert all(line.endswith("True") for line in lines[1:])


def test_diff_with_a_disagreeing_solver_exits_4(capsys, monkeypatch):
    # The oracle gives every vertex to Odd, which is right on seed 9 and
    # wrong on seed 10, whose game has a vertex Even wins.
    def all_odd(game, *, stats=None):
        stats["calls"] = 0
        return WinningSets(even=frozenset(), odd=frozenset(game.vertices()))

    monkeypatch.setattr(solvers, "zielonka", all_odd)
    code, out, err = run(capsys, "diff", "--seeds", "9..10", "--n", "4")
    assert code == 4
    assert [line.rsplit(",", 1)[1] for line in out.splitlines()] == ["agree", "True", "False"]
    assert err == "error: solver disagreement on seeds [10]; see the CSV rows\n"


def test_gen_and_diff_with_a_degree_above_n_exit_2(capsys):
    for command in (["gen"], ["diff", "--seeds", "0..1"]):
        code, out, err = run(capsys, *command, "--n", "2", "--max-colour", "2", "--deg", "3..5")
        assert code == 2, command
        assert out == ""
        assert err == "error: out-degree at least 3 needs at least 3 vertices, got n=2\n"


def test_diff_bad_seed_range_exits_2(capsys):
    code, _, err = run(capsys, "diff", "--seeds", "5..1")
    assert code == 2
    assert "range" in err
