"""Seeded fuzzing of the three text inputs of the command line: element
literals, root-datum descriptors and filtration files.

Each input is a small mutation of a valid one, in type, value or keys, and is
run in-process through `cli.main`.  Every run must either succeed (exit 0) or
reject the input with a typed error (exit 2); a traceback fails the test.
"""

import copy
import json
import random

import pytest

from alcove_hecke import cli
from alcove_hecke.root_datum import PRESETS
from conftest import CUSTOM

CASES = 100

LITERALS = {
    "A1_adj": ["e : 0", "s1 : -3", "s0 s1 : 2", "s1 s0a s1 : -1"],
    "A2_adj": ["e : 0,0", "s1 s2 : -2,1", "s0 s1 : 1,-1", "s2 s1 s2 : 0,3"],
    "B2_adj": ["s1 : -1,-1", "s2 s1 s2 : 1,0", "s0a : 0,0"],
    "A1xA1_adj": ["e : 1,-1", "s1 s2 : 0,0", "s0a s0b : -1,2"],
}
ELEMENT_OPS = ["len", "inv", "triangle", "res-decompose", "in-wexts", "in-wres"]
LITERAL_CHARS = "se0123456789abz :,-+._ "

DESCRIPTORS = [*PRESETS.values(), {"preset": "B2_adj"}, CUSTOM["G2"], CUSTOM["A3"]]
# JSON values of other types; 1e400 is read back as an infinite float
ODD_VALUES = ["1.7", "1e400", "true", "null", '"1"', "[]", "{}", "-0.0", "NaN", "[[2]]"]

FILTRATIONS = [
    ("A1_adj", "s1", [{"label": "e : 0", "mult": 1}, {"label": "s1 : -1", "mult": 2}]),
    ("A2_adj", "s1", {"flavor": "Verma", "items": [{"label": "e : -1,-1", "mult": 1}]}),
    ("B2_adj", "", {"items": [{"label": "s1 s2 : -1,-1", "mult": 3}]}),
]


def run(capsys, argv):
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2), (argv, err)
    assert "Traceback" not in err


def mutate_text(rng, text):
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(chars) + 1)
        op = rng.randrange(3)
        if op == 0 and chars:
            del chars[min(k, len(chars) - 1)]
        elif op == 1:
            chars.insert(k, rng.choice(LITERAL_CHARS))
        elif chars:
            chars[min(k, len(chars) - 1)] = rng.choice(LITERAL_CHARS)
    return "".join(chars)


def _nodes(value, path=()):
    """Every (path, value) inside a JSON value, the root included."""
    yield path, value
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _nodes(v, path + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _nodes(v, path + (i,))


def _replace(value, path, new):
    if not path:
        return new
    value[path[0]] = _replace(value[path[0]], path[1:], new)
    return value


def mutate_json(rng, value):
    """JSON text of `value` with one node changed in type, value or keys."""
    value = copy.deepcopy(value)
    path, node = rng.choice(list(_nodes(value)))
    marker = "__odd__"
    kind = rng.randrange(3)
    if kind == 0:  # type: the node becomes a JSON value of another type
        value = _replace(value, path, marker)
    elif kind == 1:  # value: another integer, another string
        if isinstance(node, str):
            new = mutate_text(rng, node) if node else "x"
        else:
            new = rng.choice([0, 1, -1, 2, -3, 3, 10**30])
        value = _replace(value, path, new)
    elif isinstance(node, dict) and node:  # keys: drop, rename or add one
        key = rng.choice(sorted(node))
        op = rng.randrange(3)
        if op == 0:
            del node[key]
        elif op == 1:
            node[key + "_"] = node.pop(key)
        else:
            node["extra"] = 1
    elif isinstance(node, list) and node:  # or drop and duplicate entries
        if rng.randrange(2):
            node.pop(rng.randrange(len(node)))
        else:
            node.append(copy.deepcopy(rng.choice(node)))
    else:
        value = _replace(value, path, marker)
    return json.dumps(value).replace(json.dumps(marker), rng.choice(ODD_VALUES))


@pytest.fixture
def rng():
    return random.Random(2718)


def test_fuzz_element_literals(capsys, rng):
    for _ in range(CASES):
        preset = rng.choice(sorted(LITERALS))
        literal = mutate_text(rng, rng.choice(LITERALS[preset]))
        run(capsys, ["wext", rng.choice(ELEMENT_OPS), "--datum", preset, "--elt", literal])


def test_fuzz_datum_descriptors(capsys, rng, tmp_path):
    path = tmp_path / "datum.json"
    for _ in range(CASES):
        path.write_text(mutate_json(rng, rng.choice(DESCRIPTORS)), encoding="utf-8")
        run(capsys, ["datum", "check", "--datum", str(path)])


def test_fuzz_filtration_files(capsys, rng, tmp_path):
    path = tmp_path / "filt.json"
    for _ in range(CASES):
        preset, gens, filt = rng.choice(FILTRATIONS)
        path.write_text(mutate_json(rng, filt), encoding="utf-8")
        op = rng.choice(["avpsi", "avstar"])
        run(capsys, ["groth", op, "--datum", preset, "--gens", gens, "--filt", str(path)])
