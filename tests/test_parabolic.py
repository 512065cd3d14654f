import itertools
import random

import pytest

from alcove_hecke.engine import build_engine
from alcove_hecke.errors import InvariantViolation, NotFinitary
from alcove_hecke.ext_weyl import ExtWeylElement
from alcove_hecke.parabolic import (
    in_awext,
    in_awext_res,
    in_awext_s,
    is_finitary,
    make_parabolic,
    min_rep,
)
from alcove_hecke.root_datum import pair
from conftest import EVERY_DATUM, descriptor


def test_make_parabolic_examples(a1):
    ext = a1.ext
    empty = make_parabolic(ext, [])
    assert empty.order == 1 and empty.longest == ext.identity
    p = make_parabolic(ext, [ext.gen_by_name("s1")])
    assert p.order == 2 and p.longest == ext.parse_element("s1 : 0")
    with pytest.raises(NotFinitary):
        make_parabolic(ext, [ext.gen_by_name("s1"), ext.gen_by_name("s0a")])


def test_finitary_subsets_of_b2(b2):
    ext = b2.ext
    # every proper subset of the affine generator set is finitary
    names = ["s1", "s2", "s0a"]
    for drop in names:
        gens = [ext.gen_by_name(n) for n in names if n != drop]
        assert is_finitary(ext, gens)
        p = make_parabolic(ext, gens)
        lengths = [ext.length(e) for e in p.elements]
        # palindromic length distribution
        top = max(lengths)
        for k in range(top + 1):
            assert lengths.count(k) == lengths.count(top - k)
    assert not is_finitary(ext, [ext.gen_by_name(n) for n in names])
    full_finite = make_parabolic(ext, [ext.gen_by_name("s1"), ext.gen_by_name("s2")])
    assert full_finite.order == 8
    assert ext.length(full_finite.longest) == 4


def test_membership_examples(a1):
    alc, ext = a1.alc, a1.ext
    p = a1.parabolic(["s1"])
    st = ext.parse_element("s1 : -1")
    assert not in_awext_s(alc, ext.identity, p)
    assert in_awext_res(alc, st, p)
    assert in_awext(alc, ext.parse_element("s1 : 0"), p)
    assert not in_awext(alc, ext.identity, p)


def test_min_rep_examples(a1):
    alc, ext = a1.alc, a1.ext
    p = a1.parabolic(["s1"])
    s = ext.parse_element("s1 : 0")
    assert min_rep(alc, ext.identity, p) == s
    assert min_rep(alc, s, p) == s  # idempotence on representatives


def coset_window(eng, p, count):
    """Deterministic window of distinct cosets, grown until `count` found."""
    import itertools

    ext = eng.ext
    seen = set()
    bound = 1
    while len(seen) < count and bound < 64:
        for w in range(eng.datum.weyl_order):
            for t in itertools.product(range(-bound, bound + 1), repeat=eng.datum.y_rank):
                x = ExtWeylElement(w, t)
                coset = frozenset(ext.mul(v, x) for v in p.elements)
                if coset not in seen:
                    seen.add(coset)
                    yield x
                    if len(seen) >= count:
                        return
        bound *= 2


def test_min_rep_uniqueness_window(any_engine):
    alc, ext = any_engine.alc, any_engine.ext
    cases = [any_engine.parabolic([]), any_engine.parabolic(["s1"])]
    if any_engine.datum.name == "B2_adj":
        cases.append(any_engine.parabolic(["s1", "s2"]))
    for p in cases:
        for x in coset_window(any_engine, p, 500):
            members = [c for v in p.elements if in_awext(alc, (c := ext.mul(v, x)), p)]
            assert len(members) == 1
            rep = members[0]
            assert min_rep(alc, x, p) == rep
            # constant on the coset, and the representative is its minimum
            for v in p.elements:
                assert min_rep(alc, ext.mul(v, x), p) == rep
                assert any_engine.order.leq(rep, ext.mul(v, x))


def test_per_order_coset_lemma(any_engine):
    alc, ext, order = any_engine.alc, any_engine.ext, any_engine.order
    p = any_engine.parabolic(["s1"])
    rng = random.Random(53)
    found = 0
    while found < 200:
        y = min_rep(alc, ext.random_element(rng, 3), p)
        y2 = min_rep(alc, ext.random_element(rng, 3), p)
        assert order.leq(y, y2) == order.leq(
            ext.mul(p.longest, y), ext.mul(p.longest, y2)
        )
        found += 1


def test_ws_wres_whit_equivalence(any_engine):
    # the Whittaker-minimal set consists of the periodic representatives
    # whose restricted decomposition has antidominant translation part
    alc, ext, d = any_engine.alc, any_engine.ext, any_engine.datum
    p = any_engine.parabolic(["s1"])
    rng = random.Random(59)
    for _ in range(400):
        x = ext.random_element(rng, 3)
        _, lam = alc.res_decompose(x)
        lhs = in_awext_s(alc, x, p)
        rhs = in_awext(alc, x, p) and all(pair(a, lam) <= 0 for a in d.simple_roots)
        assert lhs == rhs


def test_awext_subset_of_wexts(any_engine):
    alc, ext = any_engine.alc, any_engine.ext
    p = any_engine.parabolic(["s1"])
    rng = random.Random(61)
    for _ in range(300):
        x = ext.random_element(rng, 3)
        if in_awext_s(alc, x, p):
            assert alc.in_wexts(x)
            # all coset members land in the minimal-representative set
            for v in p.elements:
                assert alc.in_wexts(ext.mul(v, x))


def _length_sum(ext, x, a):
    """The spherical test by its definition: lengths add in w_A x w0."""
    prod = ext.mul_many(a.longest, x, ext.w0)
    return ext.length(prod) == ext.length(a.longest) + ext.length(x) + ext.length(ext.w0)


def test_memoized_spherical_test_matches_length_sum(any_engine):
    # one fresh engine, so every answer is computed and stored here; the
    # subsets share one table, keyed on their longest elements
    eng = build_engine(any_engine.datum)
    alc, ext = eng.alc, eng.ext
    subsets = [eng.parabolic([g.name]) for g in ext.generators]
    pairs = [(g, h) for g, h in itertools.combinations(ext.generators, 2) if is_finitary(ext, (g, h))]
    if pairs:
        subsets.append(eng.parabolic([g.name for g in pairs[0]]))
    restricted = alc.restricted_elements()
    for a in subsets:
        for x in restricted:
            want = _length_sum(ext, x, a)
            assert in_awext_s(alc, x, a) == want
            assert ext.lengths_add_w0[(a.longest, x)] == want
    rng = random.Random(97)
    for _ in range(200):
        # in_awext skips the restricted test on res_decompose's factor
        x, a = ext.random_element(rng, 3), rng.choice(subsets)
        assert in_awext(alc, x, a) == in_awext_res(alc, alc.res_decompose(x)[0], a)


@pytest.mark.parametrize("name", EVERY_DATUM)
def test_in_awext_reads_the_weyl_index(name, monkeypatch):
    # in_awext decides on restricted_reps[x.w] with no split, against its
    # definition, the spherical test on x's restricted factor, over every finitary
    # generator subset and seeded draws; on GL2 the draws' translations have
    # a central part, so the factor and the representative differ
    eng = build_engine(descriptor(name))
    alc, ext = eng.alc, eng.ext
    gens = ext.generators
    subsets = [make_parabolic(ext, sub) for k in range(len(gens) + 1)
               for sub in itertools.combinations(gens, k) if is_finitary(ext, sub)]
    rng = random.Random(89)
    draws = [(a, ext.random_element(rng, 4)) for a in subsets for _ in range(100)]
    want = [in_awext_s(alc, alc.res_decompose(x)[0], a) for a, x in draws]
    assert any(want) and not all(want)
    calls = []
    split = alc.res_decompose
    monkeypatch.setattr(alc, "res_decompose", lambda x: calls.append(x) or split(x))
    assert [in_awext(alc, x, a) for a, x in draws] == want
    assert calls == []


def test_unique_longest_element_check_raises():
    # every element planted at length 0: {e, s1} has no unique longest element
    ext = build_engine("A1_adj").ext
    ext.length = lambda x: 0
    with pytest.raises(InvariantViolation, match="unique longest"):
        make_parabolic(ext, [ext.gen_by_name("s1")])


def test_parabolic_closure_is_bounded_by_the_weyl_order(monkeypatch):
    # s1's element planted as a translation: the closure {t^k} is infinite,
    # and must be refused once it holds more than |W| elements
    ext = build_engine("A1_adj").ext
    s1 = ext.gen_by_name("s1")
    real = ext.gen_element
    t = ext.translation(ext.datum.simple_coroots[0])
    monkeypatch.setattr(ext, "gen_element", lambda g: t if g == s1 else real(g))
    with pytest.raises(InvariantViolation, match="more than"):
        make_parabolic(ext, [s1])
