import itertools
import random
from typing import NamedTuple

import pytest

from alcove_hecke.alcove import AlcoveModel
from alcove_hecke.engine import build_engine
from alcove_hecke.errors import InvariantViolation, NotFinitary
from alcove_hecke.ext_weyl import ExtWeyl, ExtWeylElement
from alcove_hecke.root_datum import Vector, load_root_datum, pair, vec_add, vec_scale
from conftest import EVERY_DATUM, descriptor
from oracles import (denominator, in_wexts_positive_roots, restricted_by_scan,
                     simple_label_by_lift, simple_rows_by_action, triangle_by_products,
                     triangle_inverse_by_products)


# -- the action on rational points, the oracle for the per-Weyl-index tables --


class AlcovePoint(NamedTuple):
    """Numerators of a rational point of Y x R over the datum's denominator."""

    nums: Vector


def base_point(alc):
    """p0 = varsigma / h, the interior sample point of the fundamental alcove."""
    return AlcovePoint(alc.datum.varsigma)


def act(alc, x, p):
    """(w t_lambda) . p = w(p) + w(lambda), exactly."""
    d = alc.datum
    moved = d.act_y(x.w, p.nums)
    shift = vec_scale(denominator(d), d.act_y(x.w, x.t))
    return AlcovePoint(vec_add(moved, shift))


def res_decompose_oracle(eng, x, bound=6):
    """Exhaustive-search oracle for the restricted decomposition."""
    hits = []
    for y in eng.alc.restricted_elements():
        for t in itertools.product(range(-bound, bound + 1), repeat=eng.datum.y_rank):
            if eng.ext.mul(y, eng.ext.translation(t)) == x:
                hits.append((y, t))
    return hits


def test_act_examples(a1):
    alc, ext = a1.alc, a1.ext
    p0 = base_point(alc)
    assert act(alc, ext.identity, p0) == p0
    moved = act(alc, ext.translation(a1.datum.varsigma), p0)
    assert moved.nums == tuple(
        a + denominator(a1.datum) * b for a, b in zip(p0.nums, a1.datum.varsigma)
    )


def test_act_group_law(datum_engine):
    alc, ext = datum_engine.alc, datum_engine.ext
    rng = random.Random(3)
    for _ in range(300):
        x = ext.random_element(rng, 3)
        y = ext.random_element(rng, 3)
        p = act(alc, ext.random_element(rng, 2), base_point(alc))
        assert act(alc, ext.mul(x, y), p) == act(alc, x, act(alc, y, p))


def test_in_wexts_intervals(a1):
    alc, ext = a1.alc, a1.ext
    s = ext.parse_element("s1 : 0")
    assert alc.in_wexts(ext.identity)
    for n in range(-5, 6):
        assert alc.in_wexts(ext.translation((n,))) == (n <= 0)
        assert alc.in_wexts(ext.mul(s, ext.translation((n,)))) == (n <= -1)


def test_in_wres_scan(a1):
    alc, ext = a1.alc, a1.ext
    found = set()
    for w in range(a1.datum.weyl_order):
        for n in range(-3, 4):
            x = ExtWeylElement(w, (n,))
            if alc.in_wres(x):
                found.add(x)
    assert found == {ext.identity, ext.parse_element("s1 : -1")}


def test_box_examples(a1):
    alc, ext, lift = a1.alc, a1.ext, a1.datum.section_lift
    assert lift(alc.box_coords(ext.translation((-2,)))) == (3,)
    assert lift(alc.box_coords(ext.identity)) == (1,)


def test_triangle_examples(a1):
    alc, ext = a1.alc, a1.ext
    assert alc.triangle(ext.identity) == ext.parse_element("s1 : -2")
    assert alc.triangle(ext.parse_element("s1 : -1")) == ext.translation((-1,))


def test_triangle_round_trip(any_engine):
    alc, ext = any_engine.alc, any_engine.ext
    rng = random.Random(7)
    for _ in range(1000):
        x = ext.random_element(rng, 4)
        assert alc.triangle_inverse(alc.triangle(x)) == x
        assert alc.triangle(alc.triangle_inverse(x)) == x


@pytest.mark.parametrize("name", EVERY_DATUM)
def test_triangle_matches_the_product_route(name):
    # mu read off the alcove data as varsigma - lambda and one product by w0,
    # against the lift of the box coordinates and three products, on every
    # datum, GL2's central torus included, on seeded elements and one element
    # of each Weyl index, which short draws miss on rank 4
    alc = AlcoveModel(ExtWeyl(load_root_datum(descriptor(name))))
    d = alc.datum
    rng = random.Random(71)
    xs = [alc.ext.random_element(rng, 3) for _ in range(200)]
    xs += [ExtWeylElement(w, tuple(rng.randint(-2, 2) for _ in range(d.y_rank)))
           for w in range(d.weyl_order)]
    for x in xs:
        assert alc.triangle(x) == triangle_by_products(alc, x), x


def test_triangle_translation_equivariance(any_engine):
    alc, ext = any_engine.alc, any_engine.ext
    rng = random.Random(9)
    for _ in range(300):
        x = ext.random_element(rng, 3)
        lam = tuple(rng.randint(-3, 3) for _ in range(any_engine.datum.y_rank))
        t = ext.translation(lam)
        assert alc.triangle(ext.mul(x, t)) == ext.mul(alc.triangle(x), t)


def test_triangle_stays_spherical_and_parity(any_engine):
    alc, ext = any_engine.alc, any_engine.ext
    lw0 = ext.length(ext.w0)
    rng = random.Random(13)
    for _ in range(500):
        x = ext.random_element(rng, 3)
        tri = alc.triangle(x)
        assert (ext.length(x) + ext.length(tri) + lw0) % 2 == 0
        if alc.in_wexts(x):
            assert alc.in_wexts(tri)


def test_res_decompose_examples(a1):
    alc, ext = a1.alc, a1.ext
    assert alc.res_decompose(ext.translation((-2,))) == (ext.identity, (-2,))
    st = ext.parse_element("s1 : -1")
    assert alc.res_decompose(ext.parse_element("s1 : -3")) == (st, (-2,))
    assert alc.res_decompose(st) == (st, (0,))
    assert alc.res_decompose(ext.parse_element("s1 : 0")) == (st, (1,))


def test_res_decompose_vs_exhaustive_oracle(any_engine):
    alc, ext = any_engine.alc, any_engine.ext
    rng = random.Random(19)
    for _ in range(60):
        x = ext.random_element(rng, 3)
        got = alc.res_decompose(x)
        hits = res_decompose_oracle(any_engine, x)
        # unique for semisimple data, and equals the canonical output
        assert hits == [got]
        assert ext.mul(got[0], ext.translation(got[1])) == x


def test_ws_wres_equivalence(any_engine):
    alc, ext = any_engine.alc, any_engine.ext
    rng = random.Random(29)
    for _ in range(500):
        x = ext.random_element(rng, 4)
        _, lam = alc.res_decompose(x)
        assert alc.in_wexts(x) == all(pair(a, lam) <= 0 for a in any_engine.datum.simple_roots)


def test_complement_length_relations(any_engine):
    # the complement element sends x to t_varsigma w0 and the triangle image
    # to the twisted translation, with lengths adding resp. subtracting
    alc, ext, d = any_engine.alc, any_engine.ext, any_engine.datum
    base = ext.mul(ext.translation(d.varsigma), ext.w0)
    twist = ext.translation(d.act_y(d.w0, d.varsigma))
    for x in alc.restricted_elements():
        y = ext.mul(base, ext.inv(x))
        assert ext.mul(y, x) == base
        assert ext.mul(y, alc.triangle(x)) == twist
        assert ext.length(x) + ext.length(y) == ext.length(base)
        assert ext.length(ext.mul(y, alc.triangle(x))) == ext.length(alc.triangle(x)) - ext.length(y)


def test_base_point_is_interior(any_engine):
    alc = any_engine.alc
    from alcove_hecke.root_datum import pair

    for beta in any_engine.datum.positive_roots:
        c = pair(beta, base_point(alc).nums)
        assert 0 < c < denominator(any_engine.datum)


# -- the per-Weyl-index tables against the action on the base point ----------


def _oracle_pairings(alc, x, roots):
    """<beta, x^{-1}.p0> for each beta, through `inv` and `act`."""
    p = act(alc, alc.ext.inv(x), base_point(alc))
    return [pair(beta, p.nums) for beta in roots]


def _oracle_in_wexts(alc, x):
    return all(c > 0 for c in _oracle_pairings(alc, x, alc.datum.positive_roots))


def test_alcove_tests_match_action_oracle(datum_engine):
    alc, ext, d = datum_engine.alc, datum_engine.ext, datum_engine.datum
    h = denominator(d)
    rng = random.Random(101)
    for _ in range(1000):
        x = ext.random_element(rng, 5)
        simple = _oracle_pairings(alc, x, d.simple_roots)
        assert alc.in_wexts(x) == _oracle_in_wexts(alc, x)
        assert alc.in_wres(x) == all(0 < c < h for c in simple)
        assert alc.box_coords(x) == tuple(-((-c) // h) for c in simple)


@pytest.mark.parametrize("name", EVERY_DATUM)
def test_simple_rows_match_the_y_action_oracle(name):
    # the signs [w alpha > 0] read off the root permutations against the sign
    # of <alpha, w^{-1}(varsigma)>, by the Y-action of w^{-1}
    d = load_root_datum(descriptor(name))
    alc = AlcoveModel(ExtWeyl(d))
    signs = tuple(tuple(int(r > 0) for r in row) for row in simple_rows_by_action(alc))
    assert alc._signs == signs


@pytest.mark.parametrize("name", EVERY_DATUM)
def test_restricted_elements_match_the_scan(name):
    # one restricted element per Weyl index, restricted_reps[w], against the
    # scan of the 2^rank lifts on the rational base point; the reps are
    # restricted on GL2 too, whose restricted elements form an infinite set
    alc = AlcoveModel(ExtWeyl(load_root_datum(descriptor(name))))
    d = alc.datum
    reps = [alc.restricted_reps[w] for w in range(d.weyl_order)]
    assert all(y.w == w and alc.in_wres(y) for w, y in enumerate(reps))
    if d.orthogonal_basis:
        with pytest.raises(NotFinitary):
            alc.restricted_elements()
        return
    restricted = alc.restricted_elements()
    assert restricted == restricted_by_scan(alc) == sorted(reps)
    assert len(restricted) == d.weyl_order


@pytest.mark.parametrize("name", EVERY_DATUM)
def test_triangle_inverse_and_labels_match_the_old_routes(name):
    # triangle_inverse as y w0 t_lambda off the split, against three products
    # by mul, and the simple labels read off restricted_reps, against the
    # section lift of the restricted factor's pairings, on seeded elements and
    # one element of each Weyl index; on GL2 the label's rep drops the
    # central part of the restricted factor's translation
    eng = build_engine(descriptor(name))
    alc, groth, d = eng.alc, eng.groth, eng.datum
    rng = random.Random(73)
    xs = [alc.ext.random_element(rng, 3) for _ in range(200)]
    xs += [ExtWeylElement(w, tuple(rng.randint(-2, 2) for _ in range(d.y_rank)))
           for w in range(d.weyl_order)]
    moved = 0
    for x in xs:
        assert alc.triangle_inverse(x) == triangle_inverse_by_products(alc, x), x
        label = groth.simple_label(x)
        assert label == simple_label_by_lift(groth, x), x
        moved += label.rep != alc.res_decompose(x)[0]
    assert (moved > 0) == bool(d.orthogonal_basis)


def test_fast_routes_skip_the_old_work(monkeypatch):
    # restricted_elements scans nothing, a label lifts nothing once the reps
    # are known, and triangle_inverse makes one product
    eng = build_engine("B2_adj")
    alc, ext = eng.alc, eng.ext
    xs = [ext.random_element(random.Random(k), 4) for k in range(50)]
    for x in xs:
        alc.res_decompose(x)
    calls = {"in_wres": 0, "section_lift": 0, "mul": 0}

    def counted(cls, name):
        real = getattr(cls, name)

        def spy(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(cls, name, spy)

    counted(AlcoveModel, "in_wres")
    assert len(alc.restricted_elements()) == eng.datum.weyl_order
    assert calls["in_wres"] == 0
    counted(type(eng.datum), "section_lift")
    for x in xs:
        eng.groth.simple_label(x)
    assert calls["section_lift"] == 0
    counted(ExtWeyl, "mul")
    for x in xs:
        alc.triangle_inverse(x)
    assert calls["mul"] == len(xs)


def test_push_steps_is_smallest_push(datum_engine):
    alc, ext, order = datum_engine.alc, datum_engine.ext, datum_engine.order
    varsigma = datum_engine.datum.varsigma
    rng = random.Random(103)
    for _ in range(1000):
        x = ext.random_element(rng, 4)
        n = 0
        while not _oracle_in_wexts(alc, ext.mul(x, ext.translation(vec_scale(-n, varsigma)))):
            n += 1
        assert order._push_steps(x) == n


def test_common_push_is_smallest(datum_engine):
    # x t_mu and y t_mu lie in W_ext^S, and raising any simple-root pairing of
    # mu by one takes one of them out
    alc, ext, order, d = datum_engine.alc, datum_engine.ext, datum_engine.order, datum_engine.datum
    rng = random.Random(107)
    for _ in range(300):
        x, y = ext.random_element(rng, 4), ext.random_element(rng, 4)
        mu = order._common_push(x, y)
        assert all(_oracle_in_wexts(alc, ext.mul(z, ext.translation(mu))) for z in (x, y))
        for i in range(d.rank):
            up = vec_add(mu, d.section_lift(tuple(int(i == j) for j in range(d.rank))))
            assert not all(_oracle_in_wexts(alc, ext.mul(z, ext.translation(up))) for z in (x, y))


def test_push_check_raises():
    order = build_engine("A1_adj").order
    ext = order.ext
    # t_2 and e share a coset, and t_2 lies outside W_ext^S
    order._common_push = lambda x, y: (0,)
    with pytest.raises(InvariantViolation, match="leaves W_ext"):
        order.leq(ext.translation((2,)), ext.identity)


def test_res_decompose_check_raises():
    # the per-element table computes box coordinates with the private helper
    alc = build_engine("A1_adj").alc
    alc._box_coords = lambda x: (0,)
    with pytest.raises(InvariantViolation, match="is not restricted"):
        alc.res_decompose(alc.ext.identity)


def test_in_wexts_matches_positive_root_oracle(datum_engine):
    # the simple-root chamber test against every positive root, on W times a
    # translation box
    alc, d = datum_engine.alc, datum_engine.datum
    for w in range(d.weyl_order):
        for t in itertools.product(range(-2, 3), repeat=d.y_rank):
            x = ExtWeylElement(w, t)
            assert alc.in_wexts(x) == in_wexts_positive_roots(alc, x), x
