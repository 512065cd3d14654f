import ast
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from alcove_hecke import suite
from alcove_hecke.cli import main
from alcove_hecke.engine import build_engine
from alcove_hecke.hecke import MAX_HECKE_LENGTH
from alcove_hecke.satake_char import MAX_CHAR_BOX
from conftest import CUSTOM, plant_length_sign_flip, type_a
from oracles import bruhat_recursive, deep_recursion, porder_recursive


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


CLI_GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
# help screens wrap at the terminal width, which argparse reads from COLUMNS
GOLDEN_COLUMNS = "100"


def write_golden_files(folder: Path) -> None:
    """The filtration files that the golden invocations name as `{dir}/...`."""
    seed = [{"label": "e : -1", "mult": 1}, {"label": "s1 : -1", "mult": 1}]
    (folder / "seed.json").write_text(json.dumps({"flavor": "coVerma", "items": seed}))
    (folder / "rep.json").write_text(json.dumps([{"label": "s1 : 0", "mult": 1}]))
    (folder / "bad.json").write_text("not json")


def run_golden(argv, folder) -> dict:
    """stdout, exit code and the error type named on stderr of one invocation."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main([a.replace("{dir}", str(folder)) for a in argv])
        except SystemExit as exc:  # argparse: --help, or a usage error
            code = exc.code
    typed = re.match(r"error: (\w+):", err.getvalue())
    error = typed.group(1) if typed else ("usage" if "usage:" in err.getvalue() else None)
    return {"stdout": out.getvalue(), "code": code, "error": error}


GOLDEN_CASES = json.loads(CLI_GOLDEN.read_text(encoding="utf-8"))
GOLDEN_IDS = [f"{i:03d}-{'-'.join(c['argv'][:2])}" for i, c in enumerate(GOLDEN_CASES)]


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=GOLDEN_IDS)
def test_cli_matches_golden(case, tmp_path, monkeypatch):
    # every op of every group in each format, typed errors and help screens,
    # as recorded in tests/data
    monkeypatch.setenv("COLUMNS", GOLDEN_COLUMNS)
    write_golden_files(tmp_path)
    want = {k: case[k] for k in ("stdout", "code", "error")}
    assert run_golden(case["argv"], tmp_path) == want


def test_datum_check(capsys):
    code, out = run_cli(capsys, "datum", "check", "--datum", "A2_adj")
    assert code == 0
    payload = json.loads(out)
    assert payload["weyl_order"] == 6
    assert payload["positive_roots"] == 3
    assert payload["valid"] is True


def test_datum_check_unknown_preset(capsys):
    code = main(["datum", "check", "--datum", "Z9_adj"])
    err = capsys.readouterr().err
    assert code == 2
    assert "UnknownPreset" in err


def test_wext_ops(capsys):
    code, out = run_cli(capsys, "wext", "len", "--datum", "A1_adj", "--elt", "s1 : -3")
    assert code == 0 and json.loads(out)["length"] == 2
    code, out = run_cli(capsys, "wext", "triangle", "--datum", "A1_adj", "--elt", "e : 0")
    assert json.loads(out)["element"] == "s1 : -2"
    code, out = run_cli(capsys, "wext", "mul", "--datum", "A1_adj", "--lhs", "s1 : 0", "--rhs", "s1 : -2")
    assert json.loads(out)["element"] == "e : -2"
    code, out = run_cli(capsys, "wext", "inv", "--datum", "A1_adj", "--elt", "s1 : -1")
    assert json.loads(out)["element"] == "s1 : -1"
    code, out = run_cli(capsys, "wext", "bruhat", "--datum", "A1_adj", "--lhs", "e : -2", "--rhs", "s1 : -4")
    assert json.loads(out)["leq"] is True
    code, out = run_cli(capsys, "wext", "porder", "--datum", "A1_adj", "--lhs", "e : 0", "--rhs", "s1 : -2")
    assert json.loads(out)["leq"] is True
    code, out = run_cli(capsys, "wext", "res-decompose", "--datum", "A1_adj", "--elt", "e : -2")
    payload = json.loads(out)
    assert payload == {"restricted": "e : 0", "translation": [-2]}
    code, out = run_cli(capsys, "wext", "in-wexts", "--datum", "A1_adj", "--elt", "e : 1")
    assert json.loads(out)["in_wexts"] is False
    code, out = run_cli(capsys, "wext", "in-wres", "--datum", "A1_adj", "--elt", "s1 : -1")
    assert json.loads(out)["in_wres"] is True
    code, out = run_cli(capsys, "wext", "reduce", "--datum", "A1_adj", "--elt", "e : -2")
    payload = json.loads(out)
    assert payload["word"] == ["s1", "s0a"] and payload["omega"] == "e : 0"


def test_parabolic_ops(capsys):
    code, out = run_cli(capsys, "parabolic", "list", "--datum", "A1_adj", "--gens", "s1")
    payload = json.loads(out)
    assert payload["order"] == 2 and payload["longest"] == "s1 : 0"
    code, out = run_cli(capsys, "parabolic", "rep", "--datum", "A1_adj", "--gens", "s1", "--elt", "e : 0")
    payload = json.loads(out)
    assert payload["representative"] == "s1 : 0"
    assert payload["in_awext"] is False


def test_hecke_ops(capsys):
    code, out = run_cli(capsys, "hecke", "kl", "--datum", "A1_adj", "--x", "e : 0", "--y", "e : -2")
    assert json.loads(out)["h"] == "1*v^2"
    code, out = run_cli(capsys, "hecke", "inverse-m", "--datum", "A1_adj", "--x", "s1 : -2", "--y", "e : 0")
    assert json.loads(out)["m_inv"] == "1*v^1"
    code, out = run_cli(capsys, "hecke", "mtriangle-sweep", "--datum", "A1_adj", "--maxlen", "2")
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert all(r[2] == "1*v^1" for r in rows)
    assert len(rows) > 0


CUSTOM_DATA = {
    "G2": ({"simple_roots": [[1, 0], [0, 1]], "simple_coroots": [[2, -1], [-3, 2]]}, 6, 6),
    "A3": (
        {
            "simple_roots": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            "simple_coroots": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
        },
        4,
        6,
    ),
}


@pytest.mark.parametrize("name", list(CUSTOM_DATA))
def test_mtriangle_sweep_on_custom_data(capsys, tmp_path, name):
    descriptor, maxlen, len_w0 = CUSTOM_DATA[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(descriptor), encoding="utf-8")
    code, out = run_cli(capsys, "hecke", "mtriangle-sweep", "--datum", str(path), "--maxlen", str(maxlen))
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert rows and all(r[2] == f"1*v^{len_w0}" for r in rows)


def test_satake_char(capsys):
    code, out = run_cli(capsys, "satake", "char", "--datum", "A1_adj", "--mu", "2")
    rows = dict(line.split("\t") for line in out.strip().splitlines())
    assert rows == {"-2": "1", "0": "1", "2": "1"}
    code, out = run_cli(capsys, "satake", "char", "--datum", "A2_adj", "--mu", "1,1", "--format", "json")
    payload = json.loads(out)
    assert payload["1,1"] == 1
    assert sum(payload.values()) == 8  # adjoint module of the dual group


def test_groth_ops(capsys, tmp_path):
    code, out = run_cli(capsys, "groth", "seed", "--datum", "A1_adj")
    payload = json.loads(out)
    assert payload["flavor"] == "coVerma"
    assert {e["label"] for e in payload["items"]} == {"e : -1", "s1 : -1"}

    seed_file = tmp_path / "filt.json"
    seed_file.write_text(out)
    code, out = run_cli(
        capsys, "groth", "avpsi", "--datum", "A1_adj", "--gens", "s1", "--filt", str(seed_file)
    )
    payload = json.loads(out)
    assert payload["items"] == [{"label": "s1 : -1", "mult": 2}]

    code, out = run_cli(capsys, "groth", "proj-filtration", "--datum", "A1_adj", "--elt", "e : 0")
    payload = json.loads(out)
    assert {e["label"] for e in payload["items"]} == {"e : 0", "s1 : -2"}

    code, out = run_cli(capsys, "groth", "dimend", "--datum", "A1_adj", "--elt", "e : 0")
    assert json.loads(out)["dim_end"] == 2

    code, out = run_cli(capsys, "groth", "phi-simple", "--datum", "A1_adj", "--elt", "e : -2")
    payload = json.loads(out)
    assert len(payload["items"]) == 3

    rep_file = tmp_path / "rep.json"
    rep_file.write_text(json.dumps({"flavor": "coVerma", "items": [{"label": "s1 : 0", "mult": 1}]}))
    code, out = run_cli(
        capsys, "groth", "avstar", "--datum", "A1_adj", "--gens", "s1", "--filt", str(rep_file)
    )
    payload = json.loads(out)
    assert {e["label"] for e in payload["items"]} == {"e : 0", "s1 : 0"}


def test_groth_error_exit_code(capsys):
    code = main(["groth", "proj-filtration", "--datum", "A1_adj", "--elt", "e : -2"])
    err = capsys.readouterr().err
    assert code == 2 and "NotRestricted" in err


def test_suite_run_and_exit_codes(capsys, monkeypatch):
    code, out = run_cli(
        capsys, "suite", "run", "--preset", "A1_adj", "--maxlen", "4", "--samples", "60",
    )
    assert code == 0
    assert "overall\tpass" in out
    # a planted fault flips the exit code and carries a counterexample
    plant_length_sign_flip(monkeypatch)
    code, out = run_cli(
        capsys, "suite", "run", "--preset", "A1_adj", "--maxlen", "4", "--samples", "60",
    )
    assert code == 1
    assert "res-complement\tfail" in out
    assert "command" in out


def test_suite_byte_stability(capsys):
    args = ["suite", "run", "--preset", "A1_adj", "--maxlen", "4", "--samples", "60",
            "--format", "json"]
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second
    payload = json.loads(first)
    assert payload["passed"] is True
    assert all("duration_s" not in c for c in payload["checks"])


def test_suite_bounds_guard(capsys):
    code = main(["suite", "run", "--preset", "A1_adj", "--maxlen", "99"])
    err = capsys.readouterr().err
    assert code == 2 and "BoundsTooLarge" in err


def malformed(capsys, *args):
    code = main(list(args))
    err = capsys.readouterr().err
    assert code == 2, err
    assert "MalformedInput" in err
    assert "Traceback" not in err


def test_satake_char_bad_coweight(capsys):
    malformed(capsys, "satake", "char", "--datum", "A1_adj", "--mu", "1,x")


def test_satake_char_box_bound(capsys):
    # (100, 100) on A2 has 201^2 = 40401 candidate weights
    code = main(["satake", "char", "--datum", "A2_adj", "--mu", "100,100"])
    err = capsys.readouterr().err
    assert MAX_CHAR_BOX == 40_000
    assert code == 2 and "BoundsTooLarge" in err and "Traceback" not in err
    code = main(["satake", "char", "--datum", "A2_adj", "--mu", "400,400"])
    assert code == 2 and "BoundsTooLarge" in capsys.readouterr().err
    code, out = run_cli(
        capsys, "satake", "char", "--datum", "A1_adj", "--mu", "200", "--format", "json"
    )
    assert code == 0 and len(json.loads(out)) == 201


def test_satake_char_negative_coweight(capsys):
    # joined by "=" the coweight reaches the dominance check; written apart,
    # argparse takes it for an option
    code = main(["satake", "char", "--datum", "A2_adj", "--mu=-1,0"])
    err = capsys.readouterr().err
    assert code == 2 and "NotDominant" in err and "Traceback" not in err
    with pytest.raises(SystemExit) as exc:
        main(["satake", "char", "--datum", "A2_adj", "--mu", "-1,0"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_datum_file_missing(capsys, tmp_path):
    malformed(capsys, "datum", "check", "--datum", str(tmp_path / "missing.json"))


def test_datum_file_not_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{simple_roots: [[1]]")
    malformed(capsys, "datum", "check", "--datum", str(bad))


@pytest.mark.parametrize(
    "content",
    [
        "not json",
        json.dumps([{"label": "e : 0"}]),
        json.dumps([{"label": "e : 0", "mult": "x"}]),
        json.dumps([{"label": "e : 0", "mult": 1.5}]),
        json.dumps([{"label": "e : 0", "mult": -1}]),
        json.dumps({"flavor": "Tilting", "items": [{"label": "e : 0", "mult": 1}]}),
        json.dumps([{"mult": 1}]),
        json.dumps({"items": 3}),
    ],
    ids=[
        "not-json", "no-mult", "string-mult", "fractional-mult", "negative-mult",
        "unknown-flavor", "no-label", "items-not-a-list",
    ],
)
def test_groth_bad_filtration_file(capsys, tmp_path, content):
    filt = tmp_path / "filt.json"
    filt.write_text(content)
    malformed(capsys, "groth", "avpsi", "--datum", "A1_adj", "--gens", "s1", "--filt", str(filt))


@pytest.mark.parametrize(
    "content",
    [
        '{"preset": []}',
        '{"preset": {"name": "A2_adj"}}',
        '{"simple_roots": [[1]], "simple_coroots": [[1e400]]}',
        '{"simple_roots": [[1.7]], "simple_coroots": [[2]]}',
        '{"simple_roots": [[true]], "simple_coroots": [[2]]}',
        '{"simple_roots": [["1"]], "simple_coroots": [[2]]}',
    ],
    ids=["preset-list", "preset-dict", "overflow", "float", "bool", "string"],
)
def test_datum_descriptor_typed_error(capsys, tmp_path, content):
    path = tmp_path / "datum.json"
    path.write_text(content)
    malformed(capsys, "datum", "check", "--datum", str(path))


def test_datum_check_weyl_order_bound(capsys, tmp_path):
    # type A6: |W| = 5040 > MAX_WEYL_ORDER
    path = tmp_path / "a6.json"
    path.write_text(json.dumps(type_a(6)))
    code = main(["datum", "check", "--datum", str(path)])
    err = capsys.readouterr().err
    assert code == 2 and "BoundsTooLarge" in err and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--maxlen", "--samples"])
def test_suite_negative_bound(capsys, flag):
    malformed(capsys, "suite", "run", "--preset", "A1_adj", flag, "-1")


def test_mtriangle_sweep_bounds_guard(capsys):
    code = main(["hecke", "mtriangle-sweep", "--datum", "A1_adj", "--maxlen", "15"])
    err = capsys.readouterr().err
    assert code == 2 and "BoundsTooLarge" in err
    code, out = run_cli(capsys, "hecke", "mtriangle-sweep", "--datum", "A1_adj", "--maxlen", "14")
    assert code == 0 and out
    malformed(capsys, "hecke", "mtriangle-sweep", "--datum", "A1_adj", "--maxlen", "-1")


# A2_adj pairs whose Bruhat walk is 320 and 600 steps long; the
# `s1 s2 s1` elements lie in the same W_aff-coset but not below
LONG_PAIRS = [
    ("e : -2,-2", "e : -80,-80"),
    ("s1 s2 s1 : -82,-79", "e : -80,-80"),
    ("e : -2,-2", "e : -150,-150"),
    ("s1 s2 s1 : -152,-149", "e : -150,-150"),
]


@pytest.mark.parametrize("op", ["bruhat", "porder"])
@pytest.mark.parametrize("lhs,rhs", LONG_PAIRS)
def test_long_chain_queries_answer(capsys, op, lhs, rhs):
    code, out = run_cli(capsys, "wext", op, "--datum", "A2_adj", "--lhs", lhs, "--rhs", rhs)
    assert code == 0
    eng = build_engine("A2_adj")
    x, y = eng.ext.parse_element(lhs), eng.ext.parse_element(rhs)
    with deep_recursion():
        want = bruhat_recursive(eng.ext, x, y) if op == "bruhat" else porder_recursive(eng, x, y)
    assert json.loads(out)["leq"] is want


def test_hecke_length_bound(capsys):
    at = f"e : {-MAX_HECKE_LENGTH}"
    code, out = run_cli(capsys, "hecke", "kl", "--datum", "A1_adj", "--x", "e : 0", "--y", at)
    assert code == 0 and json.loads(out)["h"] == f"1*v^{MAX_HECKE_LENGTH}"
    code = main(["hecke", "kl", "--datum", "A1_adj", "--x", "e : 0", "--y", "e : -250"])
    err = capsys.readouterr().err
    assert code == 2 and "BoundsTooLarge" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, literal, error", [
    (["hecke", "inverse-m", "--x", "e : 1", "--y", "e : 0"], "e : 1", "NotSpherical"),
    (["hecke", "kl", "--x", "e : 0", "--y", "e : -250"], "e : -250", "BoundsTooLarge"),
    (["hecke", "kl", "--x", "e : 0", "--y", "s1 : -251"], "s1 : -251 has", "BoundsTooLarge"),
    (["hecke", "inverse-m", "--x", "e : -251", "--y", "e : -251"], "e : -251 has",
     "BoundsTooLarge"),
    (["groth", "phi-simple", "--elt", "e : 1"], "e : 1", "NotSpherical"),
    (["groth", "proj-filtration", "--elt", "e : -2"], "e : -2 is not restricted", "NotRestricted"),
    (["groth", "avstar", "--gens", "s1", "--filt", "{dir}/e0.json"], "e : 0", "NotSpherical"),
], ids=["inverse-m", "kl-length", "kl-length-outside-waff", "inverse-m-length-outside-waff",
        "phi-simple", "proj-filtration", "avstar"])
def test_typed_errors_name_the_typed_literal(capsys, tmp_path, argv, literal, error):
    # the element in a typed error reads as the literal on the command line
    (tmp_path / "e0.json").write_text(json.dumps([{"label": "e : 0", "mult": 1}]))
    code = main([a.replace("{dir}", str(tmp_path)) for a in argv] + ["--datum", "A1_adj"])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith(f"error: {error}: ") and literal in err, err


def test_a_huge_element_outside_waff_is_refused_at_once():
    # its length is read before any reduced word of it is walked
    literal = "s1 : -99999999999999999999"
    proc = subprocess.run(
        [sys.executable, "-m", "alcove_hecke.cli", "hecke", "kl", "--datum", "A1_adj",
         "--x", "e : 0", "--y", literal],
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"error: BoundsTooLarge: {literal} has length"), proc.stderr


@pytest.mark.parametrize("argv", [
    ["wext", "reduce", "--elt", "e : -100000000"],
    ["wext", "bruhat", "--lhs", "e : 0", "--rhs", "e : -100000000"],
    ["wext", "porder", "--lhs", "e : 0", "--rhs", "e : -100000000"],
    ["hecke", "inverse-m", "--x", "e : -100000000", "--y", "e : -100000000"],
], ids=["reduce", "bruhat", "porder", "inverse-m"])
def test_a_walk_too_long_to_number_is_refused_at_once(argv):
    # a walk holds every number it makes: one from an element of W_aff too
    # long to number under MEMO_CAP is refused before it starts, and the
    # Hecke guard refuses the same element in W_aff too
    literal = "e : -100000000"
    proc = subprocess.run(
        [sys.executable, "-m", "alcove_hecke.cli", *argv, "--datum", "A1_adj"],
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
        capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"error: BoundsTooLarge: {literal} has length"), proc.stderr


def test_mtriangle_sweep_on_a_datum_with_a_central_torus(capsys, tmp_path):
    # the sweep enumerates the restricted elements, an infinite set on GL2
    path = tmp_path / "gl2.json"
    path.write_text(json.dumps(CUSTOM["GL2"]), encoding="utf-8")
    code = main(["hecke", "mtriangle-sweep", "--datum", str(path), "--maxlen", "2"])
    err = capsys.readouterr().err
    assert code == 2 and "NotFinitary" in err and "Traceback" not in err


# an A1_adj value for each flag of a suite reproducer on which it exits 0
REPRODUCER_VALUES = {
    "--elt": "e : 0", "--lhs": "e : 0", "--rhs": "s1 : -2", "--x": "s1 : -2", "--y": "e : 0",
    "--mu": "2", "--strategy": "max",
}


def suite_reproducers():
    """argv of every `env.cmd(...)` form in suite.py, its elements filled in."""
    tree = ast.parse(Path(suite.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        if not (isinstance(func, ast.Attribute) and func.attr == "cmd"
                and isinstance(func.value, ast.Name) and func.value.id == "env"):
            continue
        group, op, *rest = node.args
        argv = [group.value, op.value, "--datum", "A1_adj"]
        for arg in rest:
            if isinstance(arg, ast.Constant):
                argv.append(arg.value)
            elif isinstance(arg, ast.Starred):  # the parabolic's generators
                argv += ["--gens", "s1"]
            else:
                argv.append(REPRODUCER_VALUES[argv[-1]])
        yield argv


def test_every_suite_reproducer_parses(capsys):
    # the flag names the suite quotes in its counterexamples parse as the CLI's
    forms = list(suite_reproducers())
    assert {tuple(f[:2]) for f in forms} >= {
        ("wext", "len"), ("wext", "porder"), ("wext", "bruhat"), ("wext", "triangle"),
        ("parabolic", "rep"), ("hecke", "kl"), ("hecke", "inverse-m"),
        ("groth", "proj-filtration"), ("groth", "phi-simple"), ("satake", "char"),
    }
    for argv in forms:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
