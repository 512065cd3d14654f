import random

import pytest

from alcove_hecke.engine import build_engine
from alcove_hecke.ext_weyl import ExtWeylElement
from alcove_hecke.root_datum import pair, vec_add, vec_scale
from oracles import deep_recursion, porder_recursive, pushed


def test_examples(a1):
    ext, order = a1.ext, a1.order
    s0 = ext.parse_element("s1 : -2")
    st = ext.parse_element("s1 : -1")
    assert order.leq(ext.identity, ext.identity)
    assert order.leq(ext.identity, s0)  # e below its triangle image
    assert order.leq(st, ext.translation((-1,)))
    # different affine cosets are incomparable
    assert not order.leq(ext.identity, st)
    assert not order.leq(st, ext.identity)


def test_properties_random(any_engine):
    ext, order = any_engine.ext, any_engine.order
    rng = random.Random(71)
    gens = ext.generators
    for _ in range(500):
        y = ext.random_element(rng, 3)
        y2 = ext.random_element(rng, 3)
        g = gens[rng.randrange(len(gens))]
        sy = ext.mul(ext.gen_element(g), y)
        sy2 = ext.mul(ext.gen_element(g), y2)
        # (1) comparability along a generator
        assert order.leq(sy, y) or order.leq(y, sy)
        # (2) translation invariance
        mu = tuple(rng.randint(-2, 2) for _ in range(any_engine.datum.y_rank))
        tmu = ext.translation(mu)
        assert order.leq(y, y2) == order.leq(ext.mul(y, tmu), ext.mul(y2, tmu))
        if order.leq(y, y2):
            # (4) descent compatibility
            if order.leq(sy, y):
                assert order.leq(sy, y2)
                assert order.leq(sy, sy2)
            # (5) ascent compatibility
            if order.leq(y2, sy2):
                assert order.leq(y, sy2)
                assert order.leq(sy, sy2)


def test_agrees_with_bruhat_on_spherical(any_engine):
    # (3): on the minimal-representative set the orders coincide
    from alcove_hecke.suite import spherical_window

    ext, order = any_engine.ext, any_engine.order
    window = spherical_window(any_engine, 5)
    for x in window:
        for y in window:
            assert order.leq(x, y) == ext.bruhat_leq(x, y)


def test_pushdown_independence(any_engine):
    ext, order, alc = any_engine.ext, any_engine.order, any_engine.alc
    rng = random.Random(73)
    for _ in range(200):
        x = ext.random_element(rng, 3)
        y = ext.random_element(rng, 3)
        base = max(order._push_steps(x), order._push_steps(y))
        results = []
        for extra in (0, 2, 5):
            push = ext.translation(vec_scale(-(base + extra), any_engine.datum.varsigma))
            xs, ys = ext.mul(x, push), ext.mul(y, push)
            assert alc.in_wexts(xs) and alc.in_wexts(ys)
            results.append(ext.bruhat_leq(xs, ys))
        assert len(set(results)) == 1
        assert results[0] == order.leq(x, y)


def test_per_order_weights(any_engine):
    ext, order, d = any_engine.ext, any_engine.order, any_engine.datum
    rng = random.Random(79)
    w0 = d.w0
    for _ in range(200):
        y = rng.choice(any_engine.alc.restricted_elements())
        nu = tuple(rng.randint(-2, 2) for _ in range(d.y_rank))
        mu = nu
        for cv in d.positive_coroots:
            mu = vec_add(mu, vec_scale(rng.randint(0, 1), cv))
        lhs = ext.mul(y, ext.translation(d.act_y(w0, nu)))
        rhs = ext.mul(y, ext.translation(d.act_y(w0, mu)))
        assert order.leq(lhs, rhs)


def test_antisymmetry_and_transitivity(any_engine):
    from alcove_hecke.suite import spherical_window

    order = any_engine.order
    window = spherical_window(any_engine, 4)
    rng = random.Random(83)
    for x in window:
        for y in window:
            if x != y:
                assert not (order.leq(x, y) and order.leq(y, x))
    for _ in range(500):
        x, y, z = (window[rng.randrange(len(window))] for _ in range(3))
        if order.leq(x, y) and order.leq(y, z):
            assert order.leq(x, z)


def same_coset(ext, x, y):
    return ext.in_affine_subgroup(ext.mul(x, ext.inv(y)))


def test_direct_push_matches_group_product(datum_engine):
    # the pair handed to the Bruhat test is x t_mu, y t_mu for the common push
    # mu; a pair in two cosets is handed over not at all
    eng = build_engine(datum_engine.datum)
    ext, order = eng.ext, eng.order
    handed = []
    real = ext.bruhat_leq
    ext.bruhat_leq = lambda xs, ys: handed.append((xs, ys)) or real(xs, ys)
    rng = random.Random(89)
    for _ in range(150):
        x, y = ext.random_element(rng, 3), ext.random_element(rng, 3)
        if x == y or (x, y) in order._leq:
            continue
        before = len(handed)
        answer = order.leq(x, y)
        if same_coset(ext, x, y):
            t_mu = ext.translation(order._common_push(x, y))
            assert handed[before:] == [(ext.mul(x, t_mu), ext.mul(y, t_mu))]
        else:
            assert handed[before:] == []
        assert answer == porder_recursive(eng, x, y)


def test_leq_matches_push_oracle(datum_engine):
    # the smallest common push against the N varsigma push of the oracle, on
    # random pairs, pairs with far-apart boxes, pairs deep in W_ext^S (where
    # the common push is a pull) and pairs in two cosets
    eng = build_engine(datum_engine.datum)
    ext, order, alc, d = eng.ext, eng.order, eng.alc, eng.datum
    calls = []
    real_push, real_in_wexts = order._common_push, alc.in_wexts
    order._common_push = lambda x, y: calls.append("push") or real_push(x, y)
    alc.in_wexts = lambda z: calls.append("in_wexts") or real_in_wexts(z)
    rng = random.Random(97)

    def far(x):
        # x u for u in W_aff with a long translation: same coset, far box
        lam = (0,) * d.y_rank
        for cv in d.simple_coroots:
            lam = vec_add(lam, vec_scale(rng.randint(-6, 6), cv))
        return ext.mul(x, ExtWeylElement(rng.randrange(d.weyl_order), lam))

    def deep(x, y):
        n = max(order._push_steps(x), order._push_steps(y)) + 4
        return pushed(eng, x, n), pushed(eng, y, n), True

    pairs = []
    for _ in range(60):
        x, y = ext.random_element(rng, 3), ext.random_element(rng, 3)
        pairs += [(x, y, False), (x, far(x), False), (far(y), y, False), deep(x, far(x))]
    crossed = 0
    for x, y, pull in pairs:
        if x == y or (x, y) in order._leq:
            continue
        del calls[:]
        got = order.leq(x, y)
        if not same_coset(ext, x, y):
            crossed += 1
            assert got is False and calls == []
            continue
        assert calls == ["push", "in_wexts", "in_wexts"]
        if pull:
            assert all(pair(alpha, order._common_push(x, y)) > 0 for alpha in d.simple_roots)
        with deep_recursion():
            assert got == porder_recursive(eng, x, y), (x, y)
    # two cosets meet unless the coroots span Y (G2 here)
    unit = [tuple(int(i == j) for j in range(d.y_rank)) for i in range(d.y_rank)]
    assert crossed or all(ext.in_affine_subgroup(ext.translation(e)) for e in unit)


@pytest.mark.parametrize("n", [80, 150])
def test_long_periodic_order_queries(n):
    eng = build_engine("A2_adj")
    ext = eng.ext
    y = ext.translation((-n, -n))
    xs = [ext.parse_element(s) for s in ("e : -2,-2", f"s1 s2 s1 : {-n - 2},{1 - n}")]
    got = [eng.order.leq(x, y) for x in xs]
    with deep_recursion():
        assert got == [porder_recursive(eng, x, y) for x in xs] == [True, False]
