"""Command-line grammar, output formats, and exit codes."""

import json
import os
import subprocess
import sys

import pytest

import schurpos
from schurpos import DomainError, SkewDiagram, ribbon_of
from schurpos.cli import ParseError, main, parse_label, parse_shape
from schurpos.poset import VerifyReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- shape grammar ---------------------------------------------------------


def test_parse_shape_variants():
    assert parse_shape("4,3,3/2,2") == SkewDiagram((4, 3, 3), (2, 2))
    assert parse_shape("4,3,3") == SkewDiagram((4, 3, 3))
    assert parse_shape("r:2,1,3") == ribbon_of((2, 1, 3))
    assert parse_shape("[3,5]@15,6") == ribbon_of((5, 1, 1, 6, 1, 1))
    assert parse_shape(" 4 , 3 , 3 / 2 , 2 ") == SkewDiagram((4, 3, 3), (2, 2))
    assert parse_shape("4,3,3/") == SkewDiagram((4, 3, 3))


def test_parse_shape_error_positions():
    # Positions are counted in the whitespace-stripped text.
    cases = [
        ("4,3,/2,2", "expected a number at position 4"),
        ("", "empty shape at position 0"),
        ("r:", "expected a number at position 2"),
        ("4,,3", "expected a number at position 2"),
        ("[3,5", "expected ']' at position 4"),
        ("[3,5]15,6", "expected '@size,rows' after the label at position 5"),
        ("[3,5,7]@15,6", "label needs exactly two numbers at position 1"),
        ("[3,5]@15", "context needs exactly two numbers at position 6"),
    ]
    for text, fragment in cases:
        with pytest.raises(ParseError, match=fragment.replace("[", r"\[")):
            parse_shape(text)


def test_parse_shape_refuses_a_label_context_before_building_its_ribbon():
    # Without the guard this label builds a ribbon of ten million rows.
    with pytest.raises(DomainError, match="expansion limited to 14 cells, got 20000000"):
        parse_shape("[9999998,1]@20000000,10000000", 14)


def test_parse_label_accepts_both_spellings():
    assert parse_label("[3,5]", 15, 6) == parse_label("3,5", 15, 6)
    with pytest.raises(ParseError, match="expected a number"):
        parse_label("(3,5)", 15, 6)


# --- expand ------------------------------------------------------------------


def test_expand_json(capsys):
    code, out, _ = run(capsys, "expand", "r:2,1,3")
    assert code == 0
    assert out == '{"4,1,1":1,"3,2,1":1}\n'


def test_expand_sorts_terms_descending(capsys):
    code, out, _ = run(capsys, "expand", "3,2,1/2,1")
    assert code == 0
    assert out == '{"3":1,"2,1":2,"1,1,1":1}\n'


def test_expand_parse_error_exits_two(capsys):
    code, _, err = run(capsys, "expand", "4,3,/2")
    assert code == 2
    assert "expected a number at position 4" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("expand", "\u00b2"),
        ("expand", "r:2,\u00b2"),
        ("expand", "\uff11\uff12"),
        ("expand", "\u0663"),
        ("expand", "9" * 5000),
        ("mf", "--n", "12", "--rows", "6", "leq", "1,\u00b2", "1,1"),
    ],
    ids=["superscript", "ribbon-superscript", "fullwidth", "arabic-indic", "too-long", "mf-label"],
)
def test_non_ascii_and_overlong_numbers_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_expand_guard_exits_one(capsys):
    code, _, err = run(capsys, "expand", "15,14,13")
    assert code == 1
    assert "expansion limited to 14 cells" in err


def test_expand_max_size_flag_overrides_guard(capsys):
    code, out, _ = run(capsys, "expand", "15", "--max-size", "15")
    assert code == 0
    assert out == '{"15":1}\n'


def test_expand_env_guard(capsys, monkeypatch):
    monkeypatch.setenv("SCHURPOS_MAX_SIZE", "4")
    code, _, err = run(capsys, "expand", "3,2")
    assert code == 1
    assert "limited to 4 cells" in err
    # The explicit flag wins over the environment.
    code, out, _ = run(capsys, "expand", "3,2", "--max-size", "6")
    assert code == 0
    assert out == '{"3,2":1}\n'


def test_expand_env_guard_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("SCHURPOS_MAX_SIZE", "huge")
    code, _, err = run(capsys, "expand", "3,2")
    assert code == 1
    assert "SCHURPOS_MAX_SIZE must be an integer" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "fourcovers", "--max-size", "0"],
        ["poset", "--n", "3", "--max-size", "-1"],
        ["poset", "--n", "0", "--ribbons"],
        ["mf", "--n", "-2", "--rows", "1", "list"],
        ["verify", "convexity", "--n", "0"],
        ["expand", "3,2", "--max-size", "huge"],
        ["poset", "--n", "5", "--ribbons", "--rows", "0"],
        ["poset", "--n", "5", "--ribbons", "--rows", "-3"],
        ["mf", "--n", "12", "--rows", "0", "list"],
        ["verify", "trim", "--n", "12", "--rows", "-1"],
    ],
)
def test_sizes_below_one_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "expected a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_env_guard_below_one_exits_one(capsys, monkeypatch, value):
    monkeypatch.setenv("SCHURPOS_MAX_SIZE", value)
    code, out, err = run(capsys, "verify", "fourcovers")
    assert code == 1
    assert out == ""
    assert f"SCHURPOS_MAX_SIZE must be at least 1, got {value}" in err


# --- compare -----------------------------------------------------------------


def test_compare_relations(capsys):
    assert run(capsys, "compare", "r:2,1,3", "r:3,1,2")[1] == "equal\n"
    assert run(capsys, "compare", "3,2,1/2,1", "2,2/1")[1] == "greater\n"
    assert run(capsys, "compare", "2,2/1", "3,2,1/2,1")[1] == "less\n"
    assert run(capsys, "compare", "r:2,2", "r:1,2,1")[1] == "incomparable\n"


def test_compare_show_difference(capsys):
    code, out, _ = run(capsys, "compare", "3,2,1/2,1", "2,2/1", "--show-difference")
    assert code == 0
    assert out == 'greater\n{"3":1,"2,1":1,"1,1,1":1}\n'


def test_compare_show_difference_stays_silent_when_incomparable(capsys):
    code, out, _ = run(capsys, "compare", "r:2,2", "r:1,2,1", "--show-difference")
    assert code == 0
    assert out == "incomparable\n"


# --- poset -------------------------------------------------------------------


def test_poset_json_schema(capsys):
    code, out, _ = run(capsys, "poset", "--n", "4")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"classes", "hasse"}
    assert len(payload["classes"]) == 16
    assert len(payload["hasse"]) == 23
    for i, cls in enumerate(payload["classes"]):
        assert cls["id"] == i
        assert cls["members"]
        for text in cls["members"]:
            assert parse_shape(text).size == 4
        assert all(isinstance(c, int) for c in cls["expansion"].values())
    ids = range(len(payload["classes"]))
    assert all(lo in ids and hi in ids for lo, hi in payload["hasse"])


def test_poset_ribbons_members_use_ribbon_notation(capsys):
    _, out, _ = run(capsys, "poset", "--n", "4", "--ribbons")
    payload = json.loads(out)
    assert len(payload["classes"]) == 6
    assert all(t.startswith("r:") for cls in payload["classes"] for t in cls["members"])


def test_poset_rows_and_mf_filters(capsys):
    _, out, _ = run(capsys, "poset", "--n", "9", "--ribbons", "--rows", "4")
    assert len(json.loads(out)["classes"]) == 28
    _, out, _ = run(capsys, "poset", "--n", "9", "--ribbons", "--rows", "4", "--mf")
    assert len(json.loads(out)["classes"]) == 12


def test_poset_dot_output(capsys):
    code, out, _ = run(capsys, "poset", "--n", "6", "--ribbons", "--mf", "--rows", "3",
                       "--format", "dot", "--label-style", "rect")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "digraph poset {"
    assert lines[1] == "  rankdir=BT;"
    assert lines[-1] == "}"
    assert any('n0 [label="' in line for line in lines)
    assert any("->" in line for line in lines)
    assert '[label="[1,1]"]' in out


def test_poset_dot_composition_labels(capsys):
    _, out, _ = run(capsys, "poset", "--n", "4", "--ribbons", "--format", "dot")
    assert '[label="2,2"]' in out


def test_poset_flag_dependencies(capsys):
    code, _, err = run(capsys, "poset", "--n", "6", "--rows", "3")
    assert code == 2
    assert "add --ribbons" in err
    code, _, err = run(capsys, "poset", "--n", "6", "--ribbons", "--label-style", "rect")
    assert code == 2
    assert "--label-style rect requires" in err


def test_poset_guards(capsys):
    code, _, err = run(capsys, "poset", "--n", "8")
    assert code == 1
    assert "must be in 1..7" in err
    code, _, err = run(capsys, "poset", "--n", "15", "--ribbons")
    assert code == 1
    assert "ribbon posets are limited to size 14" in err


def test_poset_output_is_deterministic(capsys):
    first = run(capsys, "poset", "--n", "5")
    second = run(capsys, "poset", "--n", "5")
    assert first == second
    third = run(capsys, "poset", "--n", "6", "--ribbons", "--format", "dot")
    fourth = run(capsys, "poset", "--n", "6", "--ribbons", "--format", "dot")
    assert third == fourth


# --- mf ----------------------------------------------------------------------


def test_mf_list(capsys):
    code, out, _ = run(capsys, "mf", "--n", "5", "--rows", "3", "list")
    assert code == 0
    assert out.splitlines() == [
        "[1,1] r:2,2,1",
        "[1,2] r:1,3,1",
        "[2,1] r:2,1,2",
        "[2,2] r:1,1,3",
    ]


def test_mf_covers(capsys):
    code, out, _ = run(capsys, "mf", "--n", "5", "--rows", "3", "covers")
    assert code == 0
    lines = out.splitlines()
    assert lines == ["[1,2] < [1,1]", "[2,1] < [1,1]", "[2,2] < [1,2]", "[2,2] < [2,1]"]
    assert all(" < " in line for line in lines)


def test_mf_leq_meet_join(capsys):
    assert run(capsys, "mf", "--n", "12", "--rows", "6", "leq", "[5,6]", "[3,3]")[1] == "true\n"
    assert run(capsys, "mf", "--n", "12", "--rows", "6", "leq", "[5,3]", "[1,4]")[1] == "false\n"
    assert run(capsys, "mf", "--n", "12", "--rows", "6", "meet", "[5,3]", "[1,4]")[1] == "[5,2]\n"
    assert run(capsys, "mf", "--n", "12", "--rows", "6", "join", "[1,2]", "[2,1]")[1] == "[2,2]\n"
    assert run(capsys, "mf", "--n", "12", "--rows", "6", "meet", "1,2", "2,1")[1] == "[1,1]\n"


def test_mf_schubert(capsys):
    code, out, _ = run(capsys, "mf", "--n", "15", "--rows", "6", "schubert", "[3,5]")
    assert code == 0
    assert out == '["3,3,3,3,3","9,9,4,4,4"]\n'


MF_LABEL_COUNTS = {"list": 0, "covers": 0, "leq": 2, "meet": 2, "join": 2, "schubert": 1}


@pytest.mark.parametrize("action", MF_LABEL_COUNTS)
def test_mf_wrong_label_count(capsys, action):
    wanted = MF_LABEL_COUNTS[action]
    given = 0 if wanted == 1 else 1
    code, out, err = run(capsys, "mf", "--n", "12", "--rows", "6", action, *["[1,2]"] * given)
    assert code == 2
    assert out == ""
    assert err == f"usage error: mf {action} takes {wanted} label argument(s), got {given}\n"


def test_mf_invalid_label_exits_one(capsys):
    code, _, err = run(capsys, "mf", "--n", "12", "--rows", "6", "leq", "[5,5]", "[3,3]")
    assert code == 1
    assert "not a canonical label" in err


# --- verify ------------------------------------------------------------------


def test_verify_small_sweeps(capsys):
    code, out, _ = run(capsys, "verify", "fourcovers", "--max-size", "8")
    assert code == 0
    assert out.startswith("checked ")
    assert out.endswith("instances: OK\n")

    code, out, _ = run(capsys, "verify", "mflemma", "--max-size", "7")
    assert code == 0
    assert out == "checked 127 instances: OK\n"

    code, out, _ = run(capsys, "verify", "bigdiff", "--n", "8", "--rows", "4")
    assert code == 0
    assert out == "checked 100 instances: OK\n"

    code, out, _ = run(capsys, "verify", "convexity", "--n", "4")
    assert code == 0
    assert out == "checked 13 instances: OK\n"


def test_verify_bigdiff_respects_the_size_guard(capsys, monkeypatch):
    code, out, err = run(capsys, "verify", "bigdiff", "--n", "8", "--rows", "4", "--max-size", "6")
    assert code == 1
    assert out == ""
    assert "expansion limited to 6 cells, got 8" in err

    monkeypatch.setenv("SCHURPOS_MAX_SIZE", "6")
    code, _, err = run(capsys, "verify", "bigdiff", "--n", "8", "--rows", "4")
    assert code == 1
    assert "expansion limited to 6 cells, got 8" in err


def test_verify_trim_output(capsys):
    code, out, _ = run(capsys, "verify", "trim", "--n", "12", "--rows", "6")
    assert code == 0
    assert out.splitlines() == [
        "join-irreducibles: 9",
        "meet-irreducibles: 9",
        "longest-chain-elements: 10",
        "left-modular-max-chain: true",
        "spine-left-modular: true",
        "spine-distributive: true",
    ]


def test_verify_trim_respects_the_size_guard(capsys, monkeypatch):
    code, out, err = run(capsys, "verify", "trim", "--n", "12", "--rows", "6", "--max-size", "10")
    assert code == 1
    assert out == ""
    assert "trim statistics are limited to size 10, got 12" in err

    monkeypatch.setenv("SCHURPOS_MAX_SIZE", "10")
    code, _, err = run(capsys, "verify", "trim", "--n", "12", "--rows", "6")
    assert code == 1
    assert "trim statistics are limited to size 10, got 12" in err

    monkeypatch.delenv("SCHURPOS_MAX_SIZE")
    code, _, err = run(capsys, "verify", "trim", "--n", "25", "--rows", "12")
    assert code == 1
    assert "trim statistics are limited to size 24, got 25" in err


@pytest.mark.parametrize(
    "action", [["list"], ["covers"], ["leq", "[5,6]", "[3,3]"], ["meet", "[5,3]", "[1,4]"],
               ["join", "[1,2]", "[2,1]"], ["schubert", "[3,5]"]],
    ids=lambda action: action[0],
)
def test_mf_respects_the_size_guard(capsys, monkeypatch, action):
    code, out, err = run(capsys, "mf", "--n", "12", "--rows", "6", *action, "--max-size", "11")
    assert code == 1
    assert out == ""
    assert "multiplicity-free lattices are limited to size 11, got 12" in err

    code, out, _ = run(capsys, "mf", "--n", "12", "--rows", "6", *action, "--max-size", "12")
    assert code == 0
    assert out

    monkeypatch.setenv("SCHURPOS_MAX_SIZE", "11")
    code, _, err = run(capsys, "mf", "--n", "12", "--rows", "6", *action)
    assert code == 1
    assert "multiplicity-free lattices are limited to size 11, got 12" in err

    monkeypatch.delenv("SCHURPOS_MAX_SIZE")
    code, out, err = run(capsys, "mf", "--n", "3000", "--rows", "1500", *action)
    assert code == 1
    assert out == ""
    assert "multiplicity-free lattices are limited to size 24, got 3000" in err


@pytest.mark.parametrize(
    "what, cases",
    [
        pytest.param(
            "bigdiff",
            [([], "--n and --rows"), (["--n", "12"], "--rows"), (["--rows", "6"], "--n")],
            id="bigdiff",
        ),
        pytest.param("convexity", [([], "--n"), (["--rows", "3"], "--n")], id="convexity"),
        pytest.param(
            "trim",
            [([], "--n and --rows"), (["--n", "12"], "--rows"), (["--rows", "6"], "--n")],
            id="trim",
        ),
    ],
)
def test_verify_missing_context_exits_two(capsys, what, cases):
    for flags, missing in cases:
        code, out, err = run(capsys, "verify", what, *flags)
        assert code == 2
        assert out == ""
        assert err == f"usage error: verify {what} requires {missing}\n"


def test_verify_disagreement_exits_three(capsys, monkeypatch):
    import schurpos.cli as cli

    monkeypatch.setattr(
        cli,
        "verify_mflemma",
        lambda max_size: VerifyReport(checked=3, disagreements=("r:9 disagrees",)),
    )
    code, out, _ = run(capsys, "verify", "mflemma")
    assert code == 3
    assert out == "checked 3 instances: 1 disagreements\nr:9 disagrees\n"


# --- top-level behaviour --------------------------------------------------------


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_missing_required_flag_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["poset"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "99999999999999999999"],
        ["expand", "r:99999999999999999999"],
        ["compare", "r:50000000,50000000", "r:99999999,1"],
        ["expand", "[9999998,1]@20000000,10000000"],
    ],
)
def test_oversized_inputs_exit_one_before_any_shape_work(argv):
    # A subprocess with a timeout, because a guard checked after the shape
    # work runs for minutes or without end on these inputs.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(schurpos.__file__)))
    env.pop("SCHURPOS_MAX_SIZE", None)
    result = subprocess.run(
        [sys.executable, "-m", "schurpos.cli", *argv],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert result.returncode == 1, result.stderr
    assert "expansion limited to 14 cells" in result.stderr


@pytest.mark.parametrize(
    "argv",
    [["expand", "r:2,2,2,2,2,2,2,2", "--max-size", "16"], ["expand", "r:2,1,3"]],
    ids=["long", "short"],
)
def test_closed_stdout_exits_quietly(argv):
    # The read end is closed before the command starts, so every write to
    # stdout fails, whether inside print (long output) or in the flush at exit
    # (short output).
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(schurpos.__file__)))
    env.pop("SCHURPOS_MAX_SIZE", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "schurpos.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert result.stderr == b""
    assert result.returncode == 141


def test_scripted_invocation_is_byte_identical():
    cmd = [sys.executable, "-m", "schurpos.cli", "expand", "r:2,1,3"]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout == '{"4,1,1":1,"3,2,1":1}\n'
