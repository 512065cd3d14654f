import collections
import gc
import itertools
import json
import random
import re
import shlex
import time
import weakref
from pathlib import Path
from types import MappingProxyType

import pytest

from alcove_hecke import cli, memo, suite
from alcove_hecke.engine import build_engine
from alcove_hecke.errors import BoundsTooLarge, InvariantViolation, NotSpherical
from alcove_hecke.ext_weyl import ExtWeyl
from alcove_hecke import hecke as hecke_module
from alcove_hecke.suite import _waff_ball, bar_invariance_solver, run_suite, spherical_window
from alcove_hecke.hecke import MAX_HECKE_LENGTH, HeckeAlgebra, HeckeElement
from alcove_hecke.laurent import ONE, V, V_INV, ZERO, LaurentPolynomial
from conftest import CUSTOM, EVERY_DATUM, SEMISIMPLE, descriptor, engine_for
from alcove_hecke.root_datum import vec_sub
from oracles import (ElementTable, as_polys, back_substitute, coroot_lattice_contains,
                     hecke_combination, hecke_product, inverse_m_per_coset, mbar, numbered,
                     per_coset_tables)


def test_quadratic_relation(a1):
    # H_s^2 = H_e + (v^{-1} - v) H_s
    ext, hecke = a1.ext, a1.hecke
    s = ext.parse_element("s1 : 0")
    sq = hecke_product(ext, hecke.standard(s), hecke.standard(s))
    assert sq.coeff(ext.identity) == ONE
    assert sq.coeff(s) == V_INV - V
    assert len(sq.support) == 2


def test_unit_and_length_additive_products(a1):
    ext, hecke = a1.ext, a1.hecke
    x = ext.parse_element("s1 : 3")
    assert hecke_product(ext, hecke.standard(ext.identity), hecke.standard(x)) == hecke.standard(x)
    # H_s * H_{s0 s} = H_{s s0 s} since lengths add
    s = ext.parse_element("s1 : 0")
    s0 = ext.parse_element("s1 : -2")
    rhs = ext.mul(s0, s)
    assert ext.length(ext.mul(s, rhs)) == 1 + ext.length(rhs)
    assert hecke_product(ext, hecke.standard(s), hecke.standard(rhs)) == hecke.standard(
        ext.mul(s, rhs)
    )


def test_mul_associative(any_engine):
    ext, hecke = any_engine.ext, any_engine.hecke
    rng = random.Random(3)
    for _ in range(25):
        a, b, c = (hecke.standard(ext.random_element(rng, 1)) for _ in range(3))
        assert hecke_product(ext, hecke_product(ext, a, b), c) == hecke_product(
            ext, a, hecke_product(ext, b, c)
        )


def test_standard_inverse(any_engine):
    ext, hecke = any_engine.ext, any_engine.hecke
    rng = random.Random(5)
    for _ in range(30):
        x = ext.random_element(rng, 2)
        prod = hecke_product(ext, hecke.standard_inverse(x), hecke.standard(x))
        assert prod == hecke.standard(ext.identity)


def test_bar_is_involutive(any_engine):
    ext, hecke = any_engine.ext, any_engine.hecke
    rng = random.Random(7)
    for _ in range(20):
        x = ext.random_element(rng, 2)
        a = HeckeElement({x: V + ONE, ext.identity: V_INV})
        assert hecke.bar(hecke.bar(a)) == a


# -- the reversed-word construction of H_x^{-1}, kept as an oracle ------------

G2 = {"simple_roots": [[1, 0], [0, 1]], "simple_coroots": [[2, -1], [-3, 2]]}
A3 = {
    "simple_roots": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "simple_coroots": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
}


def _inverse_by_word(hecke, x):
    """H_x^{-1} = H_omega^{-1} H_{s_r}^{-1} ... H_{s_1}^{-1} for x = s_1 ... s_r omega."""
    ext = hecke.ext
    word, omega = ext.reduced_expression(x)
    acc = hecke.standard(ext.inv(omega))
    for g in reversed(word):
        # a * H_s^{-1} = a * H_s + (v - v^{-1}) a
        acc = hecke_combination([(ONE, hecke.right_mul_gen(acc, g)), (V - V_INV, acc)])
    return acc


def _bar_by_terms(hecke, a):
    """bar(sum p_w H_w) = sum bar(p_w) (H_{w^{-1}})^{-1}, one term at a time."""
    return hecke_combination(
        (p.bar(), _inverse_by_word(hecke, hecke.ext.inv(w))) for w, p in a.items()
    )


def _random_poly(rng):
    return LaurentPolynomial({rng.randint(-3, 3): rng.randint(-4, 4) for _ in range(3)})


@pytest.fixture(scope="module", params=["A1_adj", "A2_adj", "B2_adj", "A1xA1_adj", "G2"])
def oracle_engine(request):
    return build_engine(G2 if request.param == "G2" else request.param)


def test_standard_inverse_matches_reversed_word(oracle_engine):
    ext, hecke = oracle_engine.ext, oracle_engine.hecke
    rng = random.Random(19)
    for _ in range(15):
        x = ext.random_element(rng, 2)
        assert hecke.standard_inverse(x) == _inverse_by_word(hecke, x)


def test_bar_matches_term_oracle(oracle_engine):
    ext, hecke = oracle_engine.ext, oracle_engine.hecke
    rng = random.Random(23)
    for _ in range(10):
        a = HeckeElement(
            {ext.random_element(rng, 1): _random_poly(rng) for _ in range(rng.randint(1, 4))}
        )
        assert hecke.bar(a) == _bar_by_terms(hecke, a)
    x = ext.random_element(rng, 2)
    assert hecke.bar(hecke.kl_basis(x)) == _bar_by_terms(hecke, hecke.kl_basis(x))


# -- the Laurent-operator products, kept as oracles for the raw path ---------


def _acc(out, w, p):
    out[w] = out[w] + p if w in out else p


def _left_mul_gen_by_operators(hecke, g, a, c=ZERO):
    """(H_s + c) a one term at a time, with group products and lengths."""
    ext = hecke.ext
    out = {}
    for w, p in a.items():
        sw = ext.mul(ext.gen_element(g), w)
        _acc(out, sw, p)
        # H_s H_w = H_{sw} + (v^{-1} - v) H_w when sw < w
        _acc(out, w, (V_INV - V + c if ext.length(sw) < ext.length(w) else c) * p)
    return HeckeElement(out)


def _bar_by_operators(hecke, a):
    """bar(H_s b) = H_s^{-1} bar(b) and bar(H_omega) = H_omega, term by term."""
    ext = hecke.ext
    out = {}
    for w, p in a.items():
        g = next(
            (g for g in ext.generators if ext.length(ext.mul(ext.gen_element(g), w)) < ext.length(w)),
            None,
        )
        if g is None:
            _acc(out, w, p.bar())
            continue
        rest = HeckeElement({ext.mul(ext.gen_element(g), w): p})
        for z, q in _left_mul_gen_by_operators(hecke, g, _bar_by_operators(hecke, rest), V - V_INV).items():
            _acc(out, z, q)
    return HeckeElement(out)


def _random_elements(ext, rng, count, maxlen):
    """`count` random-coefficient elements on random group elements of length <= maxlen."""
    out = []
    while len(out) < count:
        support = {}
        while len(support) < rng.randint(1, 4):
            x = ext.random_element(rng, 2)
            if ext.length(x) <= maxlen:
                support[x] = _random_poly(rng)
        out.append(HeckeElement(support))
    return out


def test_left_mul_gen_matches_operator_oracle(datum_engine):
    # the product oracle the tests above multiply with, one generator at a time
    ext, hecke = datum_engine.ext, datum_engine.hecke
    rng = random.Random(29)
    for a in _random_elements(ext, rng, 8, 8):
        for g in ext.generators:
            h_s = hecke.standard(ext.gen_element(g))
            assert hecke_product(ext, h_s, a) == _left_mul_gen_by_operators(hecke, g, a)


def test_bar_matches_operator_oracle(datum_engine):
    ext, hecke = datum_engine.ext, datum_engine.hecke
    rng = random.Random(31)
    for a in _random_elements(ext, rng, 8, 7):
        assert hecke.bar(a) == _bar_by_operators(hecke, a)
    ball = _waff_ball(datum_engine, 5)  # Cayley-graph distance is the length
    for x in rng.sample(sorted(x for x, d in ball.items() if d == 5), 2):
        c = hecke.kl_basis(x)
        assert hecke.bar(c) == _bar_by_operators(hecke, c) == c


# -- bar's left-factor step: a = (H_s + v) b is barred as (H_s^{-1} + v^{-1}) bar(b)


@pytest.fixture(scope="module", params=SEMISIMPLE + ["G2", "A3"])
def factor_engine(request):
    return engine_for(request.param)


def _factor_descents(hecke, a):
    """The i with a = (H_s + v) b for s = ext.generators[i], by bar's own test."""
    packed, slot, _ = numbered(hecke, a)
    return [
        i for i in range(len(hecke.ext.generators))
        if hecke_module._left_factor(hecke.ext, packed, i, slot) is not None
    ]


def _window(eng, seed, count, radius):
    """`count` seeded elements of W_aff at lengths 1..radius (the Cayley-graph
    distance from the identity is the length)."""
    ball = _waff_ball(eng, radius)
    return random.Random(seed).sample(sorted(x for x, d in ball.items() if d >= 1), count)


def test_bar_factor_step_matches_oracles(factor_engine):
    ext, hecke = factor_engine.ext, factor_engine.hecke
    rng = random.Random(43)
    for x in _window(factor_engine, 43, 3, 4):
        c = hecke.kl_basis(x)
        i = rng.choice([i for i, (_, down) in enumerate(ext.left_steps(x)) if down])
        g = ext.generators[i]
        # (H_s + v)(b + v^2 H_u) for a random term u of the b with C_x = (H_s + v) b
        u = rng.choice(sorted(sw for sw, down in (ext.left_steps(w)[i] for w in c.support) if down))
        lift = _left_mul_gen_by_operators(hecke, g, HeckeElement({u: V * V}), V)
        lifted = hecke_combination([(ONE, c), (ONE, lift)])
        assert hecke.bar(lifted) != lifted and i in _factor_descents(hecke, lifted)
        for a in (c, lifted):
            # one coefficient of one pair changed: no factor through any s
            w = rng.choice(sorted(a.support))
            near = dict(a.items())
            near[w] = near[w] + LaurentPolynomial.monomial(rng.randint(-2, 3))
            near = HeckeElement(near)
            assert _factor_descents(hecke, a) and not _factor_descents(hecke, near)
            for e in (a, near):
                assert hecke.bar(e) == _bar_by_terms(hecke, e) == _bar_by_operators(hecke, e)
        assert hecke.bar(c) == c


def _descent_identity_failures(hecke, xs):
    """The (x, i) with s = ext.generators[i] a left descent of x and
    kl_basis(x) not of the form (H_s + v) b."""
    ext = hecke.ext
    return [
        (x, i)
        for x in xs
        for i, (_, down) in enumerate(ext.left_steps(x))
        if down and i not in _factor_descents(hecke, hecke.kl_basis(x))
    ]


def test_kl_basis_factors_through_every_left_descent(monkeypatch, factor_engine):
    # C_x lies in (H_s + v) H for every left descent s of x (Kazhdan-Lusztig
    # 1979), the identity h(sy, x) = v h(y, x) for sy < y of du Cloux; so bar
    # takes its factor step on every C_x of positive length and bars half of it
    ext, hecke = factor_engine.ext, factor_engine.hecke
    xs = _window(factor_engine, 47, 12, 6)
    assert _descent_identity_failures(hecke, xs) == []
    first = []
    real_bar = hecke_module._bar

    def spied(ext, a, out, slot):
        first.append(len(a))
        real_bar(ext, a, out, slot)

    monkeypatch.setattr(hecke_module, "_bar", spied)
    for x in xs:
        first.clear()
        c = hecke.kl_basis(x)
        assert hecke.bar(c) == c and 2 * first[0] == len(c.support)


def test_descent_identity_catches_planted_down_case(monkeypatch, factor_engine):
    # the down case (H_s + v) M_y = M_sy + v^{-1} M_y planted as M_sy + v M_y
    monkeypatch.setattr(hecke_module, "_DOWN_SHIFT", 1)
    hecke = HeckeAlgebra(factor_engine.alc)
    assert _descent_identity_failures(hecke, _window(factor_engine, 47, 12, 6))


# -- packed coefficients: one int per coefficient, v = 2^slot ---------------


def test_pack_round_trip():
    # signed coefficients, negative exponents and the extreme digits
    # +-(2^HEAD - 1) unpack to themselves at the tables' width, one digit per
    # degree of v^2 at either parity, and at a bar width just wide enough,
    # one digit per degree of v; the table check admits digits in
    # [-2^HEAD, 2^HEAD) and refuses 2^HEAD and -2^HEAD - 1
    slot, head = hecke_module.SLOT, hecke_module.HEAD
    assert slot >= 2 * head + 29 + 3  # 2^29 additions into one digit
    pack, unpack, fits = hecke_module._pack, hecke_module._unpack, hecke_module._fits
    top = (1 << head) - 1
    rng = random.Random(53)
    for _ in range(300):
        low, step = rng.randint(-6, 0), rng.choice([1, 2])
        coeffs = {k: rng.choice([top, -top, rng.randint(-top, top), rng.randint(-3, 3)])
                  for k in rng.sample(range(low, low + 12 * step, step), rng.randint(0, 6))}
        coeffs = {k: c for k, c in coeffs.items() if c}
        for width in (slot, head + 2):
            assert unpack(pack(coeffs, width, low, step), width, low, step) == coeffs
        p = pack(coeffs, slot, low, step)
        assert fits(p) and p == pack(coeffs, slot, low - step, step) >> slot
        k = low + step * rng.randint(0, 12)
        for c in (1 << head, -(1 << head) - 1):
            assert not fits(pack({**coeffs, k: c}, slot, low, step))
        assert fits(pack({**coeffs, k: -(1 << head)}, slot, low, step))
    assert unpack(0) == {} and pack({}) == 0
    # a table coefficient of parity 0 or 1 sits at low = parity - 2, so v^0
    # and v^1 share digit 1: the unit, and v + v^{-1} of parity 1
    assert unpack(hecke_module._UNIT, slot, -2, 2) == {0: 1}
    assert unpack(hecke_module._V_PLUS_VINV, slot, -1, 2) == {-1: 1, 1: 1}
    assert pack({1: 1}, slot, -1, 2) == hecke_module._UNIT == pack({0: 1}, slot, -2, 2)


def test_coefficient_past_head_is_refused():
    # a stored coefficient of 2^HEAD makes the next recursion that reads it
    # raise BoundsTooLarge naming the element, in both tables, and never
    # return a polynomial: one lower term of C_{sx}, or of N_{sw}, of odd
    # parity planted at v; and, on a term of even parity, copied to a partner
    # of C_x's product as its constant term, one past 2^HEAD, which the
    # corrections refuse to scale by
    eng = build_engine("B2_adj")
    ext, alc = eng.ext, eng.alc
    big = 1 << hecke_module.HEAD
    x = next(x for x, d in _waff_ball(eng, 4).items() if d == 4)
    w = next(w for w in spherical_window(eng, 6) if ext.length(w) == 4)
    kl_case = ("_kl", x, lambda h: h.kl_basis(x))
    spherical_case = ("_spherical", w, lambda h: h.spherical_basis(w))
    for (table, top, ask), plant, refused in ((kl_case, {1: big}, "or more in size"),
                                              (spherical_case, {1: big}, "or more in size"),
                                              (kl_case, {0: big + 1}, "constant term")):
        hecke = HeckeAlgebra(alc)
        stored = ElementTable(hecke, getattr(hecke, table))
        rest = ext.first_descent(top)[1]
        entry = stored[rest]
        y = next(y for y in sorted(entry)
                 if y != rest and (ext.length(rest) - ext.length(y) - min(plant)) % 2 == 0)
        entry[y] = {**entry[y], **plant}
        stored[rest] = entry
        with pytest.raises(BoundsTooLarge, match=re.escape(ext.format_element(top))) as err:
            ask(hecke)
        assert refused in str(err.value)
    # m^{x,y} = mbar(y, x) for len(x) - len(y) odd and y next below x in the
    # closure, so a planted mbar(y, x) of 2^HEAD is refused as it pops or
    # answers (-2^HEAD, the other end of the digit range, is admitted)
    hecke = HeckeAlgebra(alc)
    tri = alc.triangle(w)
    spherical = ElementTable(hecke, hecke._spherical)
    entry = spherical[tri]
    y = max((y for y in entry if (ext.length(tri) - ext.length(y)) % 2), key=ext.length)
    entry[y] = {1: big}
    spherical[tri] = entry
    with pytest.raises(BoundsTooLarge, match=re.escape(ext.format_element(tri))):
        for z in hecke.spherical_lower_set(tri):
            hecke.inverse_m(tri, z)


@pytest.mark.parametrize("name", ["A2_adj", "B2_adj", "G2"])
def test_bar_width_holds_long_inputs_and_large_coefficients(name):
    # each bar call packs at a width and offset of its own: a length-8 input
    # with a 10^40 coefficient and negative exponents, and C_x of length 8
    # with one coefficient changed, against the term-by-term operator oracle
    eng = engine_for(name)
    ext, hecke = eng.ext, eng.hecke
    rng = random.Random(61)
    eight = sorted(x for x, d in _waff_ball(eng, 8).items() if d == 8)
    x, y = rng.sample(eight, 2)
    a = HeckeElement({x: LaurentPolynomial({-3: 10**40, 2: -7}),
                      y: LaurentPolynomial({0: -(10**40) + 1}),
                      ext.identity: V_INV})
    assert hecke.bar(a) == _bar_by_operators(hecke, a)
    c = dict(hecke.kl_basis(x).items())
    w = rng.choice(sorted(c))
    c[w] = c[w] + LaurentPolynomial.monomial(rng.randint(-2, 3), rng.choice([-5, 3]))
    near = HeckeElement(c)
    assert hecke.bar(near) == _bar_by_operators(hecke, near) != near


def test_kl_normalization(any_engine):
    ext, hecke = any_engine.ext, any_engine.hecke
    rng = random.Random(11)
    for _ in range(40):
        x = ext.random_element(rng, 3)
        table = hecke.kl_basis(x)
        assert table.coeff(x) == ONE
        for y, p in table.items():
            if y != x:
                assert p.min_exponent() >= 1
                assert ext.bruhat_leq(y, x)


def test_kl_bar_invariance(any_engine):
    # 200 random elements across the four presets
    ext, hecke = any_engine.ext, any_engine.hecke
    rng = random.Random(13)
    for _ in range(50):
        x = ext.random_element(rng, 2)
        table = hecke.kl_basis(x)
        assert hecke.bar(table) == table


def test_kl_omega_equivariance(any_engine):
    # C_{omega x} = omega C_x, with both sides from the recursion run in the
    # element's own coset, and kl_basis (which relabels an entry of W_aff)
    # against that route
    ext, hecke = any_engine.ext, any_engine.hecke
    regular, _ = per_coset_tables(hecke)
    rng = random.Random(17)
    omegas = ext.omegas()
    for _ in range(25):
        x = ext.random_element(rng, 2)
        om = omegas[rng.randrange(len(omegas))]
        shifted = dict(regular[ext.mul(om, x)])
        assert {ext.mul(om, y): c for y, c in regular[x].items()} == shifted
        assert dict(hecke.kl_basis(ext.mul(om, x)).items()) == as_polys(shifted)


# Cayley-ball radius in W_aff per datum, translated into every coset
PER_COSET = {"A1_adj": 10, "A2_adj": 7, "B2_adj": 7, "A1xA1_adj": 6, "G2": 6, "GL2": 8}


@pytest.mark.parametrize("name", list(PER_COSET))
def test_tables_on_waff_match_the_per_coset_route(name):
    # outside W_aff, kl_basis, spherical_basis and inverse_m read entries of
    # W_aff elements; the oracle runs the recursion, and back-substitutes
    # m^{x,z}, in each coset itself
    eng = engine_for(name)
    ext, hecke = eng.ext, eng.hecke
    regular, spherical = per_coset_tables(hecke)
    # a finite window of length-zero elements, each in a coset of its own
    omegas = ext.omegas()
    assert len(omegas) > 1 or name == "G2"
    for a, b in itertools.combinations(omegas, 2):
        assert not coroot_lattice_contains(eng.datum, vec_sub(a.t, b.t))
    ball = _waff_ball(eng, PER_COSET[name])
    for om in omegas:
        xs = [ext.mul(om, a) for a in ball]
        for x in xs:
            assert dict(hecke.kl_basis(x).items()) == as_polys(regular[x]), x
        window = sorted((x for x in xs if eng.alc.in_wexts(x)), key=ext.length)
        for w in window:
            assert dict(hecke.spherical_basis(w)) == as_polys(spherical[w]), w
        for x in window[-2:]:
            want = inverse_m_per_coset(hecke, spherical, x)
            assert len(want) > 1
            assert {z: hecke.inverse_m(x, z) for z in want} == want
            for other in omegas:
                if other != om:
                    assert hecke.inverse_m(x, other) == ZERO


@pytest.mark.parametrize("name, bound", [("A2_adj", 108), ("B2_adj", 102)])
def test_sweep_tables_hold_waff_elements_only(name, bound):
    # the length-14 sweep: its spherical table holds only elements of W_aff,
    # no more than the W_aff members of the window's closures, and each
    # orbit of the length-zero subgroup on its queries is back-substituted once
    eng = build_engine(name)
    ext, alc, hecke = eng.ext, eng.alc, eng.hecke
    window = spherical_window(eng, 14)
    omegas = ext.omegas()
    for w in window:
        hecke.inverse_m(alc.triangle(w), w)
    assert all(ext.in_affine_subgroup(w) for w in ElementTable(hecke, hecke._spherical))
    assert len(hecke._spherical) <= bound
    assert len(hecke._inverse) * len(omegas) == len(window)
    computed = []
    real = hecke._inverse.fn
    hecke._inverse.fn = lambda key: computed.append(key) or real(key)
    for om in omegas:
        for w in window[-5:]:
            assert hecke.inverse_m(ext.mul(om, alc.triangle(w)), ext.mul(om, w))
    assert computed == []


def test_dihedral_closed_form(a1):
    # h_{y,x} = v^{len(x)-len(y)} throughout the infinite dihedral group
    ext, hecke = a1.ext, a1.hecke
    for n in range(-5, 6):
        for wpart in ("e", "s1"):
            x = ext.parse_element(f"{wpart} : {2 * n}")
            if not ext.in_affine_subgroup(x):
                continue
            table = hecke.kl_basis(x)
            for y, p in table.items():
                assert p == LaurentPolynomial.monomial(ext.length(x) - ext.length(y))


def test_spherical_m_examples(a1):
    ext, hecke = a1.ext, a1.hecke
    s0 = ext.parse_element("s1 : -2")
    # dihedral closed form for the spherical family: v^{len(w)-len(y)}
    assert dict(hecke.spherical_basis(s0)) == {s0: ONE, ext.identity: V}
    assert mbar(hecke, s0, s0) == ONE and mbar(hecke, ext.identity, s0) == V


def test_spherical_m_dihedral_closed_form(a1):
    from alcove_hecke.suite import spherical_window

    ext, hecke = a1.ext, a1.hecke
    window = spherical_window(a1, 8)
    for w in window:
        for y in window:
            m = hecke.spherical_basis(w).get(y, ZERO)
            assert m == mbar(hecke, y, w)
            if ext.bruhat_leq(y, w):
                assert m == LaurentPolynomial.monomial(ext.length(w) - ext.length(y))
            else:
                assert m == ZERO


def test_inverse_m_unitriangular(any_engine):
    from alcove_hecke.suite import spherical_window

    hecke = any_engine.hecke
    window = spherical_window(any_engine, 4)
    for x in window[:8]:
        assert hecke.inverse_m(x, x) == ONE


def test_m_triangle_instances(any_engine):
    from alcove_hecke.suite import spherical_window

    ext, alc, hecke = any_engine.ext, any_engine.alc, any_engine.hecke
    lw0 = ext.length(ext.w0)
    for w in spherical_window(any_engine, 3):
        tri = alc.triangle(w)
        assert hecke.inverse_m(tri, w) == LaurentPolynomial.monomial(lw0)


def test_matrix_identity(any_engine):
    # the defining relation of the inverse family, on several intervals
    from alcove_hecke.suite import spherical_window

    ext, hecke = any_engine.ext, any_engine.hecke
    window = spherical_window(any_engine, 4)
    rng = random.Random(41)
    tops = {window[-1], window[len(window) // 2], window[rng.randrange(len(window))]}
    for x in tops:
        lower = hecke.spherical_lower_set(x)
        for y in lower:
            acc = ZERO
            for z in lower:
                imz = hecke.inverse_m(x, z)
                mz = mbar(hecke, y, z)
                if imz and mz:
                    term = imz * mz
                    acc = acc + (term if (ext.length(z) + ext.length(x)) % 2 == 0 else -term)
            assert acc == (ONE if y == x else ZERO), (x, y)


def test_zeta_compatibility(a2):
    # the image of the spherical canonical element under pairing with the
    # longest-element canonical basis element is the canonical element of w w0
    from alcove_hecke.suite import spherical_window

    ext, hecke = a2.ext, a2.hecke
    for w in spherical_window(a2, 2):
        c_w0 = hecke.kl_basis(ext.w0)
        total = hecke_combination(
            (m, hecke_product(ext, hecke.standard(y), c_w0))
            for y, m in hecke.spherical_basis(w).items()
        )
        assert total == hecke.kl_basis(ext.mul(w, ext.w0))


def test_kl_table_stays_bounded(monkeypatch, a1):
    monkeypatch.setattr(memo, "MEMO_CAP", 4)
    hecke = HeckeAlgebra(a1.alc)
    ext = a1.ext
    real_put = memo.Memo.put
    writes = []

    def checked_put(table, key, value):
        # every write into the KL table, also those deep in the recursion
        real_put(table, key, value)
        if table is hecke._kl:
            writes.append(key)
            assert len(table) <= 4

    monkeypatch.setattr(memo.Memo, "put", checked_put)
    for n in range(8):
        x = ext.translation((-2 * n,))
        # dihedral closed form, also after the table has been emptied
        for y, p in hecke.kl_basis(x).items():
            assert p == LaurentPolynomial.monomial(ext.length(x) - ext.length(y))
    assert len(set(writes)) > 4


def test_kl_and_bar_agree_under_tiny_memo_cap(monkeypatch, b2):
    # every table is emptied again and again in the middle of the
    # recursions; the results must not change
    ext = b2.ext
    rng = random.Random(41)
    xs = [x for x in (ext.random_element(rng, 2) for _ in range(40)) if 2 <= ext.length(x) <= 5]
    assert len(xs) >= 8
    kl = {x: b2.hecke.kl_basis(x) for x in xs}
    bars = {x: b2.hecke.bar(b2.hecke.standard(x)) for x in xs}
    window = spherical_window(b2, 5)
    spherical = {w: dict(b2.hecke.spherical_basis(w)) for w in window}
    top = b2.alc.triangle(window[-1])
    inverse = {z: b2.hecke.inverse_m(top, z) for z in b2.hecke.spherical_lower_set(top)}
    monkeypatch.setattr(memo, "MEMO_CAP", 4)
    tiny = build_engine("B2_adj")
    for x in xs:
        assert tiny.hecke.kl_basis(x) == kl[x]
        assert tiny.hecke.bar(tiny.hecke.standard(x)) == bars[x]
        assert tiny.hecke.bar(kl[x]) == kl[x]
    for w in window:
        assert dict(tiny.hecke.spherical_basis(w)) == spherical[w]
    for z, m in inverse.items():
        assert tiny.hecke.inverse_m(top, z) == m
    assert len(tiny.hecke._spherical) <= 4
    # the rows go with the numbers, which the next query start empties
    # together with every table keyed on them
    tiny.ext.start_query()
    assert not tiny.ext.rows and not tiny.ext.numbers
    assert not tiny.hecke._kl and not tiny.hecke._spherical and not tiny.hecke._splits


@pytest.mark.parametrize("name", ["B2_adj", "G2"])
def test_memoized_values_are_never_written(name):
    # the packed accumulators read memoized coefficients and the module's
    # constants: using them in every product, in bar and in the
    # bar-invariance solver must leave them as they were
    eng = build_engine(G2 if name == "G2" else name)
    ext, alc, hecke = eng.ext, eng.alc, eng.hecke
    rng = random.Random(37)
    xs = rng.sample(sorted(x for x, d in _waff_ball(eng, 5).items() if d >= 3), 6)
    window = spherical_window(eng, 6)
    for x in xs:
        hecke.kl_basis(x)
    for w in window:
        hecke.spherical_basis(w)

    def snapshot():
        return {
            **{("kl", x): str(dict(e)) for x, e in hecke._kl.items()},
            **{("spherical", w): str(dict(e)) for w, e in hecke._spherical.items()},
            "laurent": str((ONE, V, V_INV, ZERO)),
            **{
                n: str(c)
                for n, c in vars(hecke_module).items()
                if n.startswith("_") and not n.startswith("__")
                and isinstance(c, (dict, tuple, int))
            },
        }

    before = snapshot()
    for x in xs:
        c = hecke.kl_basis(x)
        hecke.bar(c)
        bar_invariance_solver(eng, x)
        # bar's recursion leaves its input as it was and writes ints only:
        # rev(bar(c)) = rev(c), c being bar invariant
        packed, slot, low = numbered(hecke, c)
        given = dict(packed)
        out = {}
        hecke_module._bar(hecke.ext, packed, out, slot)
        assert packed == given and all(type(p) is int for p in out.values())
        assert {n: p for n, p in out.items() if p} == {
            ext.number(w): hecke_module._pack({-k: d for k, d in p.coeffs.items()}, slot, low)
            for w, p in c.items()}
        for g in ext.generators:
            hecke.right_mul_gen(c, g)
    for w in window[-4:]:
        hecke.inverse_m(alc.triangle(w), w)
        for y in hecke.spherical_lower_set(w):
            hecke.inverse_m(w, y)
    after = snapshot()  # new entries made on the way are not compared
    assert {k: after[k] for k in before} == before


def test_cancelled_terms_are_dropped(a1):
    # a term of the product that the constant-term corrections cancel to 0 is
    # not stored: for x = sts, C_ts planted without its v^2 H_e term makes
    # (H_s + v) C_ts hold H_s and v H_e, and subtracting C_s = H_s + v H_e
    # leaves H_sts + v H_ts + v H_st + v^2 H_t
    ext = a1.ext
    hecke = HeckeAlgebra(a1.alc)
    x, e = ext.parse_element("s1 : -4"), ext.identity
    i, ts = ext.first_descent(x)
    s = ext.gen_element(ext.generators[i])
    t = next(ext.gen_element(g) for g in ext.generators if ext.gen_element(g) != s)
    st = ext.mul(s, t)
    assert ext.length(x) == 3 and ext.mul(s, ts) == x and ext.mul(t, s) == ts
    kl = ElementTable(hecke, hecke._kl)
    kl[ts] = {ts: {0: 1}, s: {1: 1}, t: {1: 1}}
    assert kl[s] == {s: {0: 1}, e: {1: 1}}
    assert dict(hecke.kl_basis(x).items()) == {x: ONE, ts: V, st: V, t: V * V}
    assert kl[x] == {x: {0: 1}, ts: {1: 1}, st: {1: 1}, t: {2: 1}}


@pytest.mark.parametrize("name", ["B2_adj", "G2"])
def test_stored_coefficients_own_their_dicts(name):
    # every coefficient the tables keep after a sweep window is a nonzero
    # int at the tables' width: 1 << SLOT, the unit at parity 0 (and v at
    # parity 1), exactly at the entry's own element among the terms of
    # parity 0, so each length-zero entry is {x: 1 << SLOT}, and every digit
    # of it within 2^HEAD in size, so it unpacks and packs back to itself at
    # its parity
    eng = build_engine(G2 if name == "G2" else name)
    ext, alc, hecke = eng.ext, eng.alc, eng.hecke
    for w in spherical_window(eng, 6):
        hecke.inverse_m(alc.triangle(w), w)
        hecke.kl_basis(w)
    unit = 1 << hecke_module.SLOT
    coeffs = []
    for table in (hecke._kl, hecke._spherical):
        for n, e in table.items():
            x = ext.elements[n]
            if ext.length(x) == 0:
                assert dict(e) == {n: unit}, x
            for y, c in e.items():
                e = (ext.length(x) - ext.lengths[y]) % 2
                assert type(c) is int and c and (c == unit and e == 0) == (y == n), (x, y)
                assert hecke_module._fits(c)
                assert hecke_module._pack_table(hecke_module._unpack_table(c, e), e) == c
                coeffs.append(c)
    assert len(coeffs) > 100


@pytest.mark.parametrize("name, maxlen", [("A2_adj", 14), ("B2_adj", 14), ("G2", 4)])
def test_answers_have_kazhdan_lusztig_parity(name, maxlen):
    # the tables store a coefficient at y of the entry of x with one digit
    # per degree of v^2, its parity len(x) - len(y) read from the lengths:
    # after the m-triangle sweep window and the C_w of its elements, every
    # stored coefficient, as kl_basis and spherical_basis decode it, and
    # every m^{x,y} answered over the window and the lower sets of its four
    # longest elements, has only exponents of that parity
    eng = build_engine(G2 if name == "G2" else name)
    ext, alc, hecke = eng.ext, eng.alc, eng.hecke
    window = spherical_window(eng, maxlen)
    answers = {}
    for w in window:
        tri = alc.triangle(w)
        answers[tri, w] = hecke.inverse_m(tri, w)
        hecke.kl_basis(w)
    for w in window[-4:]:
        for y in hecke.spherical_lower_set(w):
            answers[w, y] = hecke.inverse_m(w, y)
    entries = [(ext.elements[n], hecke.kl_basis) for n in list(hecke._kl)]
    entries += [(ext.elements[n], hecke.spherical_basis) for n in list(hecke._spherical)]
    terms = 0
    for x, basis in entries:
        for y, p in dict(basis(x).items()).items():
            assert {(k - ext.length(x) + ext.length(y)) % 2 for k in p.coeffs} == {0}, (x, y, p)
            terms += 1
    for (x, y), m in answers.items():
        assert {(k - ext.length(x) + ext.length(y)) % 2 for k in m.coeffs} <= {0}, (x, y, m)
    assert terms > 100 and sum(1 for m in answers.values() if m) > 10


@pytest.mark.parametrize("name", ["A2_adj", "B2_adj", "G2"])
def test_wrong_parity_coefficient_is_refused(name):
    # a coefficient of the other parity than len(x) - len(y) has no digit
    # to go in: planting one, alone or next to a right one, at a lower term
    # or at x, raises InvariantViolation, and the entry and its canonical
    # element stay as they were
    eng = build_engine(G2 if name == "G2" else name)
    ext, hecke = eng.ext, eng.hecke
    x = spherical_window(eng, 6)[-1]
    want = dict(hecke.kl_basis(x).items())
    kl = ElementTable(hecke, hecke._kl)
    entry = kl[x]
    for y in (min(entry, key=ext.length), x):
        odd = (ext.length(x) - ext.length(y) + 1) % 2
        for plant in ({odd: 1}, {**entry[y], odd + 2: -3}):
            with pytest.raises(InvariantViolation, match="other than"):
                kl[x] = {**entry, y: plant}
            assert kl[x] == entry
    assert dict(hecke.kl_basis(x).items()) == want


def test_no_laurent_temporaries_in_the_hot_loops(monkeypatch):
    # kl_basis, bar(C_x), one sweep inverse_m and the bar-invariance solver
    # on B2 build every coefficient in packed ints: no Laurent operator runs,
    # and a polynomial is constructed only for a finished, unpacked coefficient
    eng = build_engine("B2_adj")
    ext, alc, hecke = eng.ext, eng.alc, eng.hecke
    x = min(x for x, d in _waff_ball(eng, 6).items() if d == 6)
    w = spherical_window(eng, 8)[-1]
    tri = alc.triangle(w)
    want = LaurentPolynomial.monomial(ext.length(ext.w0))
    ops = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            ops[name] = ops.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "bar"):
        monkeypatch.setattr(LaurentPolynomial, name, counted(name, getattr(LaurentPolynomial, name)))
    # a polynomial adopting a finished dict counts as one constructed
    adopt = LaurentPolynomial._adopt.__func__
    monkeypatch.setattr(LaurentPolynomial, "_adopt", classmethod(counted("__init__", adopt)))
    unpacked = []
    real_unpack = hecke_module._unpack

    def unpack(*args):
        unpacked.append(1)
        return real_unpack(*args)

    monkeypatch.setattr(hecke_module, "_unpack", unpack)
    c = hecke.kl_basis(x)
    assert hecke.bar(c) == c
    assert hecke.inverse_m(tri, w) == want
    constructed = ops.pop("__init__")
    assert ops == {}
    assert 0 < constructed <= len(unpacked) + 1  # and the value inverse_m returns
    unpacked.clear()
    solved = bar_invariance_solver(eng, x)
    assert solved == dict(c.items())
    constructed = ops.pop("__init__")
    assert ops == {}
    # the bar expansions of the H_y, and one polynomial per solved coefficient
    assert len(solved) < constructed <= len(unpacked) + len(solved)


def test_inverse_m_makes_one_polynomial_per_back_substitution(monkeypatch):
    # the tables hold raw dicts, so a cold m-triangle sweep makes no polynomial
    # for a stored term: exactly one, its answer, per `_inverse` miss
    eng = build_engine("A2_adj")
    ext, alc, hecke = eng.ext, eng.alc, eng.hecke
    window = spherical_window(eng, 6)
    want = LaurentPolynomial.monomial(ext.length(ext.w0))
    made = collections.Counter()
    init, adopt = LaurentPolynomial.__init__, LaurentPolynomial._adopt.__func__
    monkeypatch.setattr(
        LaurentPolynomial, "__init__", lambda p, *a: made.update(["__init__"]) or init(p, *a))
    monkeypatch.setattr(
        LaurentPolynomial, "_adopt", classmethod(lambda cls, c: made.update(["_adopt"]) or adopt(cls, c)))
    misses = []
    real = hecke._inverse.fn
    hecke._inverse.fn = lambda key: misses.append(key) or real(key)
    for w in window:
        assert hecke.inverse_m(alc.triangle(w), w) == want
    assert len(misses) == len(hecke._inverse) > 10
    assert dict(made) == {"__init__": len(misses)}


def test_degree_bound_assertion(a2):
    from alcove_hecke.suite import spherical_window

    ext, hecke = a2.ext, a2.hecke
    lw0 = ext.length(ext.w0)
    for w in spherical_window(a2, 3):
        for m in hecke.spherical_basis(w).values():
            assert -(ext.length(w) + lw0) <= m.min_exponent()
            assert m.max_exponent() <= ext.length(w) + lw0


# -- the native spherical module against the full-group route -----------------

# datum -> (window length for spherical_basis, window length and number of
# triangle tops for inverse_m); the G2 and A3 tops are long (length 23-25 and
# 12-13), so one each
SPHERICAL_ORACLE = {
    "A1_adj": (8, 4, 3),
    "A2_adj": (8, 4, 3),
    "B2_adj": (8, 4, 3),
    "A1xA1_adj": (6, 4, 3),
    "G2": (7, 3, 1),
    "A3": (5, 2, 1),
}


@pytest.fixture(scope="module", params=list(SPHERICAL_ORACLE))
def spherical_engine(request):
    return request.param, build_engine({"G2": G2, "A3": A3}.get(request.param, request.param))


def _inverse_m_full_group(hecke, x):
    """m^{x,z} for every z in the spherical lower set of x, by back-substitution
    over the full-group canonical elements C_{u w0}, u below x."""
    ext = hecke.ext
    rows = [
        (u, ext.length(u), hecke.kl_basis(ext.mul(u, ext.w0)))
        for u in hecke.spherical_lower_set(x)
    ]
    values = {x: ONE}
    for z, lz, _ in rows[1:]:
        zw0 = ext.mul(z, ext.w0)
        acc = ZERO
        for u, lu, table in rows:
            if lu <= lz:
                break
            coeff = table.coeff(zw0)
            if coeff:
                term = values[u] * coeff
                acc = acc + (term if (lz + lu) % 2 else -term)
        values[z] = acc
    return values


def test_spherical_basis_matches_full_group(spherical_engine):
    name, eng = spherical_engine
    hecke = eng.hecke
    for w in spherical_window(eng, SPHERICAL_ORACLE[name][0]):
        element = hecke.spherical_basis(w)
        lower = hecke.spherical_lower_set(w)
        assert set(element) <= set(lower)
        for y in lower:
            assert element.get(y, ZERO) == mbar(hecke, y, w), (w, y)


def test_inverse_m_matches_full_group(spherical_engine):
    name, eng = spherical_engine
    _, maxlen, tops = SPHERICAL_ORACLE[name]
    for w in spherical_window(eng, maxlen)[-tops:]:
        x = eng.alc.triangle(w)
        want = _inverse_m_full_group(eng.hecke, x)
        assert {z: eng.hecke.inverse_m(x, z) for z in want} == want


@pytest.mark.parametrize("name", ["A2_adj", "B2_adj", "G2"])
def test_inverse_m_does_not_depend_on_the_order_of_an_entry(monkeypatch, name):
    # every canonical element stored in reverse order: back-substitution
    # must give the same m^{x,y} over the m-triangle window and the lower
    # sets of its elements as an engine that stores them as built
    datum = G2 if name == "G2" else name
    plain = build_engine(datum)
    alc, hecke = plain.alc, plain.hecke
    want = {}
    for w in spherical_window(plain, 8):
        for x, y in [(alc.triangle(w), w), *((w, y) for y in hecke.spherical_lower_set(w))]:
            want[x, y] = hecke.inverse_m(x, y)
    canonical = HeckeAlgebra._canonical

    def reversed_canonical(hecke, x, table, in_module):
        entry = canonical(hecke, x, table, in_module)
        return MappingProxyType({y: entry[y] for y in reversed(list(entry))})

    monkeypatch.setattr(HeckeAlgebra, "_canonical", reversed_canonical)
    hecke = build_engine(datum).hecke
    assert {key: hecke.inverse_m(*key) for key in want} == want
    stored, built = (ElementTable(h, h._spherical) for h in (hecke, plain.hecke))
    assert any(list(stored[w]) != list(built[w]) for w in stored)


def test_spherical_basis_rejects_non_minimal(a1):
    with pytest.raises(NotSpherical):
        a1.hecke.spherical_basis(a1.ext.parse_element("s1 : 0"))


def test_spherical_basis_unitriangularity_check_raises(a1):
    ext = a1.ext
    hecke = HeckeAlgebra(a1.alc)
    w = ext.parse_element("s1 : -4")
    rest = next(sw for sw, down in ext.left_steps(w) if down)
    spherical = ElementTable(hecke, hecke._spherical)
    wrong = dict(spherical[rest])
    del wrong[rest]  # (H_s + v) N_rest then has no M_w term
    spherical[rest] = wrong
    with pytest.raises(InvariantViolation):
        hecke.spherical_basis(w)


def test_length_bound_is_a_typed_error():
    # at the bound both recursions finish under the default recursion limit;
    # one step above it they refuse before recursing
    eng = build_engine("A1_adj")
    ext, hecke = eng.ext, eng.hecke
    at = ext.translation((-MAX_HECKE_LENGTH,))
    above = ext.translation((-MAX_HECKE_LENGTH - 1,))
    assert ext.length(at) == MAX_HECKE_LENGTH and ext.length(above) == MAX_HECKE_LENGTH + 1
    assert hecke.kl_poly(ext.identity, at) == LaurentPolynomial.monomial(MAX_HECKE_LENGTH)
    assert hecke.spherical_basis(at)[ext.identity] == LaurentPolynomial.monomial(MAX_HECKE_LENGTH)
    with pytest.raises(BoundsTooLarge):
        hecke.kl_basis(above)
    with pytest.raises(BoundsTooLarge):
        hecke.spherical_basis(above)


HUGE = "99999999999999999999"


def _refused_at_once(eng, literal):
    """Both entry points refuse the element typed as literal, within 1 s
    each, by a `BoundsTooLarge` that names it."""
    x = eng.ext.parse_element(literal)
    for query in (eng.hecke.kl_basis, lambda x: eng.hecke.inverse_m(x, x)):
        start = time.perf_counter()
        with pytest.raises(BoundsTooLarge, match=f"^{literal} has length"):
            query(x)
        assert time.perf_counter() - start < 1


def test_a_huge_element_of_a_known_class_is_refused_at_once():
    # once "s1 : -1" has found the length-zero element of its class, the
    # guard reads the length of omega^{-1} x, which equals x's
    eng = build_engine("A1_adj")
    ext = eng.ext
    x = ext.parse_element("s1 : -1")
    eng.hecke.kl_basis(x)
    eng.hecke.inverse_m(x, x)
    literal = f"s1 : -{HUGE}"
    assert ext.known_omega(ext.parse_element(literal)) is not None
    _refused_at_once(eng, literal)


def test_a_huge_element_of_a_new_torus_class_is_refused_at_once():
    # its central-torus class lies far outside TORUS_WINDOW, so no omega is
    # known for it and x's own length is checked before omega_of would walk
    # its ~10^20 letters
    eng = build_engine(CUSTOM["GL2"])
    ext = eng.ext
    ext.omegas()
    literal = f"s1 : 0,{HUGE}"
    assert ext.known_omega(ext.parse_element(literal)) is None
    _refused_at_once(eng, literal)
    assert ext.known_omega(ext.parse_element(literal)) is None


@pytest.mark.parametrize("name, lam", [("A1_adj", (2000,)), ("A1_adj", (-151,)), ("A1_adj", (-152,)),
                                       ("GL2", (0, 151))])
def test_bar_refuses_every_term_past_the_length_bound(name, lam):
    # in W_aff or not, one guard for bar as for kl_basis: a term longer than
    # MAX_HECKE_LENGTH is refused by a typed error naming it, before any
    # recursion ("e : 2000" used to end in a RecursionError)
    eng = build_engine(CUSTOM.get(name, name))
    ext, hecke = eng.ext, eng.hecke
    x = ext.translation(lam)
    assert ext.length(x) > MAX_HECKE_LENGTH
    a = HeckeElement({ext.identity: ONE, x: V})
    with pytest.raises(BoundsTooLarge, match=f"^{ext.format_element(x)} has length"):
        hecke.bar(a)
    with pytest.raises(BoundsTooLarge, match=f"^{ext.format_element(x)} has length"):
        hecke.kl_basis(x)


@pytest.mark.parametrize("name", ["A2_adj", "B2_adj", "G2", "GL2"])
def test_a_second_query_of_a_known_class_costs_no_length(monkeypatch, name):
    # counted calls, not time.  The first queries, kl_basis(w) for w = omega a
    # with a spherical in W_aff, and inverse_m(triangle(w), y) for the
    # shortest term y of N_triangle(w), find omega's class and fill the tables
    # below a and over the closure of the triangle's W_aff part.  A second
    # element of that class whose W_aff part those tables hold, omega s a for
    # a left descent s of a, or another term u of N_triangle(w), then costs
    # no length formula and no reduced word in kl_basis or in inverse_m.
    # G2's omega is the identity, so there every query lies in W_aff.
    calls = collections.Counter()
    for method in ("_length_formula", "reduced_expression"):
        real = getattr(ExtWeyl, method)
        monkeypatch.setattr(
            ExtWeyl, method, lambda *a, real=real, m=method: calls.update([m]) or real(*a))
    probe = build_engine(CUSTOM.get(name, name))
    omega = max(probe.ext.omegas(), key=lambda om: om != probe.ext.identity)
    ball = _waff_ball(probe, 4)
    a = max((x for x in ball if probe.alc.in_wexts(x)), key=ball.get)
    eng = build_engine(CUSTOM.get(name, name))
    ext, alc, hecke = eng.ext, eng.alc, eng.hecke
    w = ext.mul(omega, a)
    assert ext.in_affine_subgroup(w) == (name == "G2") and ext.known_omega(w) is None
    hecke.kl_basis(w)
    tri = alc.triangle(w)
    # lengths from the probe, so that the engine takes none of its own
    terms = sorted(hecke.spherical_basis(tri), key=probe.ext.length)
    y = terms[0]
    hecke.inverse_m(tri, y)
    sa = ext.mul(omega, probe.ext.first_descent(a)[1])
    u = max((z for z in terms[1:-1] if z not in (w, sa)), key=probe.ext.length)
    calls.clear()
    assert hecke.kl_basis(sa).coeff(sa) == ONE
    assert calls == {}
    got = hecke.inverse_m(u, y)
    assert calls == {}
    assert got == probe.hecke.inverse_m(u, y)


@pytest.mark.parametrize("preset", ["A1_adj", "A1xA1_adj"])
def test_planted_down_case_fails_bar_invariance(monkeypatch, preset):
    # the regular and the spherical module share one recursion, so a fault in
    # its down case, (H_s + v) M_y = M_sy + v^{-1} M_y planted as M_sy + v M_y,
    # reaches kl_basis and the suite's bar-invariance check must report it
    monkeypatch.setattr(hecke_module, "_DOWN_SHIFT", 1)
    report = run_suite(preset, names=["kl-bar-invariance"])
    assert [c.name for c in report.checks] == ["kl-bar-invariance"]
    assert not report.passed


def _plant_factored_entry(eng):
    """The `_kl` entry of the suite's first kl-bar-invariance draw x replaced
    by C_x + (H_s + v) v^2 H_sx, for a left descent s of x: it still factors
    through s, so bar takes its factor step, but it is not bar invariant."""
    ext, hecke = eng.ext, eng.hecke
    kl = ElementTable(hecke, hecke._kl)
    x = kl.element(hecke._waff_part(ext.random_element(random.Random("0:kl-bar"), 3))[-1])
    i, sx = ext.first_descent(x)
    wrong = as_polys(kl[x])
    wrong[x] = wrong[x] + V * V
    wrong[sx] = wrong[sx] + V * V * V
    assert i in _factor_descents(hecke, HeckeElement(wrong))
    kl[x] = {y: p.coeffs for y, p in wrong.items()}
    return eng


@pytest.mark.parametrize("preset", ["A2_adj", "B2_adj"])
def test_planted_factored_entry_fails_bar_invariance(monkeypatch, preset):
    # the planted entry factors, so the suite's bar takes its factor step on
    # it; that step is exact, so the check must still see bar(c) != c
    build = suite.build_engine
    monkeypatch.setattr(suite, "build_engine", lambda datum: _plant_factored_entry(build(datum)))
    check = run_suite(preset, names=["kl-bar-invariance"]).checks[0]
    assert (check.status, check.detail) == ("fail", "canonical basis element is not bar invariant")


def _drop_identity_term(eng):
    """C_{s0 w0} on A1 without its H_e term, so h(e, s0 w0) no longer matches
    h(w0, s0 w0) = mbar(e, s0)."""
    ext = eng.ext
    top = ext.mul(ext.parse_element("s1 : -2"), ext.w0)
    kl = ElementTable(eng.hecke, eng.hecke._kl)
    wrong = dict(kl[top])
    del wrong[ext.identity]
    kl[top] = wrong
    return eng


@pytest.mark.parametrize("plant, name", [
    *(("third-case", name) for name in SEMISIMPLE + ["G2", "A3"]),
    ("coset", "A1_adj"),
])
def test_spherical_identities_catches_planted_faults(monkeypatch, tmp_path, capsys, plant, name):
    # the third case of the spherical recursion planted as v^{-1} M_y on every
    # datum, and one full-group coefficient off a coset of W: the zeta
    # identity, compared on every coefficient, must see both
    preset = name
    if name in CUSTOM:
        preset = str(tmp_path / f"{name}.json")
        Path(preset).write_text(json.dumps(CUSTOM[name]), encoding="utf-8")
    if plant == "third-case":
        monkeypatch.setattr(hecke_module, "_V_PLUS_VINV", hecke_module._pack({-1: 1}))
    else:
        build = suite.build_engine
        monkeypatch.setattr(suite, "build_engine", lambda datum: _drop_identity_term(build(datum)))
    check = run_suite(preset, names=["spherical-identities"]).checks[0]
    assert (check.status, check.detail) == ("fail", "zeta compatibility fails")
    # the payload names w and the first differing label y u of C_{w w0}
    ce = check.counterexample
    argv = shlex.split(ce["command"])
    ext = engine_for(name).ext
    top = ext.mul(ext.parse_element(ce["w"]), ext.w0)
    assert argv[1:3] == ["hecke", "kl"]
    assert argv[argv.index("--x") + 1] == ce["label"]
    assert argv[argv.index("--y") + 1] == ext.format_element(top)
    # without the plant the command prints the true coefficient: the
    # full-group one when the spherical side is planted, and vice versa
    monkeypatch.undo()
    capsys.readouterr()
    assert cli.main(argv[1:]) == 0
    assert json.loads(capsys.readouterr().out)["h"] == ce["want" if plant == "third-case" else "got"]


# -- the numbered store against the element-keyed route ----------------------


def _relabeled_window(eng, seed, count, radius):
    """`count` seeded elements of W_aff within `radius` steps of the identity,
    each moved into the coset of a seeded length-zero omega."""
    rng = random.Random(seed)
    omegas = eng.ext.omegas()
    ball = sorted(_waff_ball(eng, radius))
    return [eng.ext.mul(rng.choice(omegas), a) for a in rng.sample(ball, min(count, len(ball)))]


@pytest.mark.parametrize("name", EVERY_DATUM)
def test_numbered_engine_matches_the_element_keyed_oracle(name):
    # kl_basis, spherical_basis, inverse_m and bar of a cold engine, on
    # seeded elements moved out of W_aff by a length-zero omega, against the
    # element-keyed recursion and back-substitution run in each coset itself
    # and against bar term by term
    eng = build_engine(descriptor(name))
    ext, hecke = eng.ext, eng.hecke
    regular, spherical = per_coset_tables(hecke)
    rank2 = eng.datum.rank <= 2
    rng = random.Random(f"numbered:{name}")
    for x in _relabeled_window(eng, f"numbered:{name}", 12, 4 if rank2 else 3):
        c = hecke.kl_basis(x)
        assert dict(c.items()) == as_polys(regular[x]), x
        assert hecke.bar(c) == c
        # one coefficient changed, so no longer bar invariant
        w = rng.choice(sorted(c.support))
        near = HeckeElement({**c.support, w: c.coeff(w) + LaurentPolynomial.monomial(rng.randint(-2, 2))})
        assert hecke.bar(near) == _bar_by_operators(hecke, near)
    window = sorted((w for w in _relabeled_window(eng, f"spherical:{name}", 80, 6 if rank2 else 4)
                     if eng.alc.in_wexts(w)), key=ext.length)
    assert len(window) >= 3
    for w in window:
        assert dict(hecke.spherical_basis(w)) == as_polys(spherical[w]), w
    for x in window[-2:]:
        closure = sorted(inverse_m_per_coset(hecke, spherical, x))
        assert len(closure) > 1
        for z in rng.sample(closure, min(8, len(closure))):
            assert hecke.inverse_m(x, z) == back_substitute(ext, spherical, x, z), (x, z)


STORE_CAP = 40


def _track_recursions(monkeypatch):
    """A list holding the depth of the walks and Hecke recursions running now,
    and of the Hecke edge's splits, kept by wrappers that also check, on
    leaving, that the numbers have not shrunk while they ran: a running walk
    or recursion holds numbers."""
    depth = [0]

    def tracked(fn, ext_of):
        def wrapper(*args):
            ext = ext_of(args)
            held = len(ext.elements)
            depth[0] += 1
            try:
                return fn(*args)
            finally:
                depth[0] -= 1
                assert len(ext.elements) >= held

        return wrapper

    for name in ("_canonical", "_back_substitute", "_waff_part"):
        monkeypatch.setattr(HeckeAlgebra, name, tracked(getattr(HeckeAlgebra, name), lambda a: a[0].ext))
    for name in ("_walk", "_bruhat_aff"):
        monkeypatch.setattr(ExtWeyl, name, tracked(getattr(ExtWeyl, name), lambda a: a[0]))
    monkeypatch.setattr(hecke_module, "_bar", tracked(hecke_module._bar, lambda a: a[0]))
    return depth


def _fresh_class_bars(eng, count):
    """`count` sums of two standard elements of GL2, each term in a W_aff-coset
    class of its own, met by no other sum: `bar` walks each term's class
    while it holds the numbers of the terms before."""
    ext = eng.ext
    a = ext.parse_element("s1 s0a : 0,0")
    return [HeckeElement({ext.mul(ext.translation((k, 0)), a): ONE,
                          ext.mul(ext.translation((k + 1, 0)), a): V})
            for k in range(10, 10 + 2 * count, 2)]


@pytest.mark.parametrize("name", ["A2_adj", "B2_adj", "G2"])
def test_store_empties_only_as_a_query_starts(monkeypatch, name):
    # under a small cap, every table emptied again and again, with the group's
    # walks and the Hecke queries interleaved on one numbering, and GL2 bars
    # whose terms' classes are walked mid-query: the answers are an
    # unbounded engine's, fewer than the cap are numbered whenever a query
    # starts, and the numbers empty only there, outside every walk and
    # recursion
    datum = G2 if name == "G2" else name
    plain, plain_gl2 = build_engine(datum), build_engine(CUSTOM["GL2"])
    ext, alc = plain.ext, plain.alc
    xs = _relabeled_window(plain, f"cap:{name}", 10, 4)
    window = spherical_window(plain, 4)
    queries = [("hecke", "kl_basis", (x,)) for x in xs]
    queries += [("ext", "reduced_expression", (x,)) for x in xs[:4]]
    queries += [("ext", "bruhat_lower_set", (x,)) for x in xs[4:7]]
    queries += [("hecke", "spherical_basis", (w,)) for w in window[-6:]]
    queries += [("ext", "bruhat_leq", (y, x)) for x in xs[:3] for y in sorted(ext.bruhat_lower_set(x))[::3]]
    queries += [("hecke", "inverse_m", (alc.triangle(w), w)) for w in window]
    queries += [("gl2", "bar", (a,)) for a in _fresh_class_bars(plain_gl2, 4)]
    random.Random(f"interleave:{name}").shuffle(queries)
    layers = {"ext": plain.ext, "hecke": plain.hecke, "gl2": plain_gl2.hecke}
    want = [getattr(layers[layer], query)(*args) for layer, query, args in queries]
    kl = [c for (_, query, _), c in zip(queries, want) if query == "kl_basis"]
    bars = [plain.hecke.bar(c) for c in kl]
    monkeypatch.setattr(memo, "MEMO_CAP", STORE_CAP)
    depth = _track_recursions(monkeypatch)
    emptied = []
    real_start = ExtWeyl.start_query

    def spied_start(ext, held=0):
        assert depth[0] == 0
        numbered = len(ext.elements)
        real_start(ext, held)
        if len(ext.elements) < numbered:
            emptied.append(numbered)
            # the numbers and every live table keyed on them, together
            assert not any([ext.numbers, ext.elements, ext.lengths, ext.rows,
                            *(ref() for ref in ext._numbered)])
        else:
            assert numbered + held < STORE_CAP

    monkeypatch.setattr(ExtWeyl, "start_query", spied_start)
    tiny, tiny_gl2 = build_engine(datum), build_engine(CUSTOM["GL2"])
    layers = {"ext": tiny.ext, "hecke": tiny.hecke, "gl2": tiny_gl2.hecke}
    for (layer, query, args), value in zip(queries, want):
        assert getattr(layers[layer], query)(*args) == value, (query, args)
    for c, barred in zip(kl, bars):
        assert tiny.hecke.bar(c) == barred
    assert len(emptied) > 3 and max(emptied) >= STORE_CAP


def test_registry_holds_the_hecke_tables_weakly(monkeypatch):
    # an extra algebra on the engine's alcove model is freed once dropped:
    # the numbering registers its tables weakly, and they are all it holds of
    # the algebra; a live second algebra's tables still empty with the numbers
    eng = build_engine("A1_adj")
    ext, x = eng.ext, eng.ext.translation((-2,))
    dropped = HeckeAlgebra(eng.alc)
    dropped.kl_basis(x)
    gone = weakref.ref(dropped)
    del dropped
    gc.collect()
    assert gone() is None
    second = HeckeAlgebra(eng.alc)
    second.inverse_m(eng.alc.triangle(x), x)
    second.bar(second.kl_basis(ext.mul(ext.omegas()[-1], x)))
    tables = [second._kl, second._spherical, second._inverse, second._bits,
              second._splits, second._relabels]
    assert all(tables)
    monkeypatch.setattr(memo, "MEMO_CAP", len(ext.elements))
    eng.hecke.kl_basis(x)
    assert not any(tables)
    assert second.kl_basis(x) == eng.hecke.kl_basis(x)


def test_a_cold_sweep_takes_one_length_and_one_row_per_number(monkeypatch):
    # counted calls: a cold m-triangle sweep over the A2 window of length 6
    # builds the row of each number once, and takes the length formula once
    # for each element asked or split at the Hecke edge, where a walk may
    # start, and for no row's neighbour, whose length its descent bit gives;
    # outside W_aff that is one element per coset class met
    calls = collections.Counter()
    for method in ("_length_formula", "row"):
        real = getattr(ExtWeyl, method)
        monkeypatch.setattr(
            ExtWeyl, method, lambda ext, x, real=real, m=method: calls.update([(m, x)]) or real(ext, x))
    eng = build_engine("A2_adj")
    ext, alc, hecke = eng.ext, eng.alc, eng.hecke
    pairs = [(alc.triangle(w), w) for w in spherical_window(eng, 6)]
    calls.clear()
    want = LaurentPolynomial.monomial(len(eng.datum.positive_roots))
    for x, w in pairs:
        assert hecke.inverse_m(x, w) == want
    assert set(calls.values()) == {1}
    rows = [n for method, n in calls if method == "row"]
    assert len(rows) > 10 and max(rows) < len(ext.elements)
    lengths = {x for method, x in calls if method == "_length_formula"}
    asked = {z for pair in pairs for z in pair}
    asked |= {ext.mul(ext.inv(ext.omega_of(z)), z) for z in asked}
    assert lengths <= asked and len(lengths) < len(ext.elements) / 4
    outside = [x for x in lengths if not ext.in_affine_subgroup(x)]
    assert len(outside) == len(ext.omegas()) - 1


@pytest.mark.parametrize("name", EVERY_DATUM)
def test_lengths_read_off_descent_bits_match_the_formula(name):
    # after a seeded Hecke sweep, a Bruhat pass and reduced words, every
    # numbered length, most of them read off a neighbour's descent bit,
    # equals the length formula
    eng = build_engine(descriptor(name))
    ext, hecke = eng.ext, eng.hecke
    rank2 = eng.datum.rank <= 2
    for x in _relabeled_window(eng, f"lengths:{name}", 6, 4 if rank2 else 3):
        hecke.kl_basis(x)
        hecke.bar(hecke.standard(x))
        ext.reduced_expression(x, "max")
    for w in _relabeled_window(eng, f"spherical:{name}", 20, 4 if rank2 else 3):
        if eng.alc.in_wexts(w):
            hecke.spherical_basis(w)
    rng = random.Random(f"lengths:{name}")
    for _ in range(40):
        x = ext.random_element(rng, 2)
        ext.bruhat_leq(x, ext.mul(x, ext.random_element(rng, 1)))
    formula = [ext._length_formula(x) for x in ext.elements]
    assert len(formula) > 15 and formula == ext.lengths
