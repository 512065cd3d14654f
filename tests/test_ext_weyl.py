import itertools
import random

import pytest

from alcove_hecke.errors import MalformedInput
from alcove_hecke.ext_weyl import ExtWeylElement


def bfs_lengths(eng, radius):
    """Independent length oracle: distances in the Cayley graph of the
    affine Weyl group over the affine generator set."""
    dist = {eng.ext.identity: 0}
    frontier = [eng.ext.identity]
    for step in range(1, radius + 1):
        nxt = []
        for x in frontier:
            for g in eng.ext.generators:
                y = eng.ext.mul(eng.ext.gen_element(g), x)
                if y not in dist:
                    dist[y] = step
                    nxt.append(y)
        frontier = nxt
    return dist


def subword_lower(eng, x):
    """Independent Bruhat oracle: brute-force subword products."""
    word, omega = eng.ext.reduced_expression(x)
    els = [eng.ext.gen_element(g) for g in word]
    out = set()
    for r in range(len(els) + 1):
        for combo in itertools.combinations(range(len(els)), r):
            prod = eng.ext.identity
            for i in combo:
                prod = eng.ext.mul(prod, els[i])
            out.add(eng.ext.mul(prod, omega))
    return out


def test_length_formula_examples(a1):
    ext = a1.ext
    s = ext.gen_element(ext.gen_by_name("s1"))
    assert ext.length(ext.identity) == 0
    for n in range(-6, 7):
        assert ext.length(ext.translation((n,))) == abs(n)
        assert ext.length(ext.mul(s, ext.translation((n,)))) == abs(1 + n)
    # t_varsigma w0 has length <2rho, varsigma> - len(w0) = 0
    assert ext.length(ext.mul(ext.translation(a1.datum.varsigma), ext.w0)) == 0


def test_length_formula_vs_bfs(any_engine):
    dist = bfs_lengths(any_engine, 5)
    for x, d in dist.items():
        assert any_engine.ext.length(x) == d
        word, omega = any_engine.ext.reduced_expression(x)
        assert len(word) == d and omega == any_engine.ext.identity


def test_omega_membership(a1, a2):
    ext = a1.ext
    ts_s = ext.parse_element("s1 : -1")  # = t_varsigma * s
    assert ext.is_omega(ts_s)
    assert not ext.is_omega(ext.parse_element("s1 : 0"))
    assert len(ext.enumerate_omega(2)) == 2
    assert len(a2.ext.enumerate_omega(2)) == 3


def test_omega_is_a_group(any_engine):
    ext = any_engine.ext
    omegas = ext.enumerate_omega(2)
    for a in omegas:
        assert ext.length(ext.inv(a)) == 0
        for b in omegas:
            assert ext.length(ext.mul(a, b)) == 0


def test_reduced_expression_examples(a1):
    ext = a1.ext
    word, omega = ext.reduced_expression(ext.translation((-2,)))
    assert [g.name for g in word] == ["s1", "s0a"]
    assert omega == ext.identity
    word, omega = ext.reduced_expression(ext.parse_element("s1 : -1"))
    assert word == [] and omega == ext.parse_element("s1 : -1")


@pytest.mark.parametrize("strategy", ["mni", "", "random"])
def test_unknown_strategy_is_rejected(b2, strategy):
    ext = b2.ext
    for x in (ext.parse_element("s1 s2 : -2,1"), ext.identity):
        with pytest.raises(MalformedInput):
            ext.reduced_expression(x, strategy=strategy)


def _left_steps_by_products(ext, x):
    """The left-step row computed directly: one product and one length per generator."""
    lx = ext.length(x)
    steps = [ext.mul(ext.gen_element(g), x) for g in ext.generators]
    return [(sx, ext.length(sx) < lx) for sx in steps]


def test_left_steps_match_products(datum_engine):
    ext = datum_engine.ext
    rng = random.Random(37)
    for _ in range(500):
        x = ext.random_element(rng, 3)
        assert list(ext.left_steps(x)) == _left_steps_by_products(ext, x)


def test_first_left_descent(any_engine):
    ext = any_engine.ext
    rng = random.Random(29)
    for _ in range(200):
        x = ext.random_element(rng, 3)
        row = _left_steps_by_products(ext, x)
        descents = [g for g, (_, down) in zip(ext.generators, row) if down]
        assert ext.left_descents(x) == descents
        assert ext.first_left_descent(x) == (descents[0] if descents else None)
        assert (not descents) == (ext.length(x) == 0)


def test_reduced_expression_round_trip(any_engine):
    ext = any_engine.ext
    rng = random.Random(17)
    for _ in range(1000):
        x = ext.random_element(rng, 4)
        word, omega = ext.reduced_expression(x)
        assert len(word) == ext.length(x)
        assert ext.mul(ext.word_to_element(word), omega) == x
        om2, word2 = ext.omega_left_form(x)
        assert ext.mul(om2, ext.word_to_element(word2)) == x


def test_length_zero_invariance_and_subadditivity(any_engine):
    ext = any_engine.ext
    rng = random.Random(23)
    omegas = ext.enumerate_omega(2)
    for _ in range(1000):
        x = ext.random_element(rng, 4)
        y = ext.random_element(rng, 4)
        om = omegas[rng.randrange(len(omegas))]
        assert ext.length(ext.mul(om, x)) == ext.length(x)
        assert ext.length(ext.mul(x, om)) == ext.length(x)
        assert ext.length(ext.mul(x, y)) <= ext.length(x) + ext.length(y)


def test_bruhat_examples(a1):
    ext = a1.ext
    s = ext.parse_element("s1 : 0")
    s0 = ext.parse_element("s1 : -2")
    x = ext.mul(s, s0)
    y = ext.mul(ext.mul(s0, s), s0)
    assert ext.bruhat_leq(x, x)
    assert ext.bruhat_leq(x, y)
    ts_s = ext.parse_element("s1 : -1")
    assert not ext.bruhat_leq(ext.identity, ts_s)
    assert not ext.bruhat_leq(ts_s, ext.identity)


def test_bruhat_vs_subword_oracle(any_engine):
    ext = any_engine.ext
    rng = random.Random(31)
    for _ in range(40):
        x = ext.random_element(rng, 2)
        if ext.length(x) > 8:
            continue
        lower = subword_lower(any_engine, x)
        probes = list(lower) + [ext.random_element(rng, 2) for _ in range(15)]
        for y in probes:
            assert ext.bruhat_leq(y, x) == (y in lower)


def test_bruhat_dihedral_is_length_comparison(a1):
    # in the infinite dihedral affine group, y <= x iff len(y) < len(x) or y == x
    ext = a1.ext
    elements = [x for x in bfs_lengths(a1, 7)]
    for x in elements:
        for y in elements:
            want = y == x or ext.length(y) < ext.length(x)
            assert ext.bruhat_leq(y, x) == want, (y, x)


def test_bruhat_implies_length(any_engine):
    ext = any_engine.ext
    rng = random.Random(37)
    for _ in range(300):
        x = ext.random_element(rng, 3)
        y = ext.random_element(rng, 3)
        if ext.bruhat_leq(x, y):
            assert ext.length(x) <= ext.length(y)


def test_literal_round_trip(any_engine):
    ext = any_engine.ext
    rng = random.Random(41)
    for _ in range(200):
        x = ext.random_element(rng, 5)
        assert ext.parse_element(ext.format_element(x)) == x
    with pytest.raises(MalformedInput):
        ext.parse_element("bogus : 1")
    with pytest.raises(MalformedInput):
        ext.parse_element("")


def test_affine_generator_names(b2):
    names = [g.name for g in b2.ext.generators]
    assert names == ["s1", "s2", "s0a"]
    assert b2.ext.gen_by_name("s0") == b2.ext.gen_by_name("s0a")


def test_group_axioms_random(any_engine):
    ext = any_engine.ext
    rng = random.Random(43)
    for _ in range(300):
        x = ext.random_element(rng, 4)
        y = ext.random_element(rng, 4)
        z = ext.random_element(rng, 4)
        assert ext.mul(ext.mul(x, y), z) == ext.mul(x, ext.mul(y, z))
        assert ext.mul(x, ext.inv(x)) == ext.identity
        assert ext.inv(ext.inv(x)) == x


def test_element_is_named_tuple(a1):
    x = a1.ext.translation((3,))
    assert isinstance(x, ExtWeylElement)
    assert x.w == 0 and x.t == (3,)
