import random

import pytest

from alcove_hecke.engine import build_engine
from alcove_hecke.errors import (
    FlavorMismatch,
    InvariantViolation,
    MalformedInput,
    NotRestricted,
    NotSpherical,
)
from alcove_hecke.ext_weyl import ExtWeylElement
from alcove_hecke.groth_calc import COVERMA, VERMA, FiltrationMultiset
from alcove_hecke.parabolic import min_rep
from alcove_hecke.root_datum import vec_sub
from conftest import CUSTOM, RANK3, SEMISIMPLE, engine_for
from oracles import projective_filtration_conjugated


def test_seed_filtration(any_engine):
    groth, ext, d = any_engine.groth, any_engine.ext, any_engine.datum
    seed = groth.seed_filtration()
    assert seed.flavor == COVERMA
    assert seed.total() == d.weyl_order
    assert len(seed.support()) == d.weyl_order
    shift = ext.translation(d.act_y(d.w0, d.varsigma))
    want = {ext.mul(ExtWeylElement(w, ext.identity.t), shift) for w in range(d.weyl_order)}
    assert set(seed.support()) == want


def test_seed_a1_labels(a1):
    ext = a1.ext
    seed = a1.groth.seed_filtration()
    assert seed.mults == {
        ext.translation((-1,)): 1,
        ext.parse_element("s1 : -1"): 1,
    }


def test_xi_omega_example(a1):
    ext, groth = a1.ext, a1.groth
    omega_inv = ext.inv(ext.parse_element("s1 : -1"))  # (t_varsigma s)^{-1}
    out = groth.xi_omega(groth.seed_filtration(), omega_inv)
    assert out.mults == {ext.identity: 1, ext.parse_element("s1 : -2"): 1}


def test_xi_omega_rejects_positive_length(a1):
    groth, ext = a1.groth, a1.ext
    with pytest.raises(InvariantViolation):
        groth.xi_omega(groth.seed_filtration(), ext.gen_element(ext.generators[0]))


def test_xi_s_doubles(any_engine):
    groth, ext = any_engine.groth, any_engine.ext
    seed = groth.seed_filtration()
    for g in ext.generators:
        assert groth.xi_s(seed, g).total() == 2 * seed.total()
    assert groth.xi_omega(seed, ext.identity).mults == seed.mults


def test_xi_requires_coverma(a1):
    groth = a1.groth
    verma = groth.duality(groth.seed_filtration())
    with pytest.raises(FlavorMismatch):
        groth.xi_s(verma, a1.ext.generators[0])
    with pytest.raises(FlavorMismatch):
        groth.xi_omega(verma, a1.ext.identity)


def test_unknown_flavor_is_rejected():
    with pytest.raises(FlavorMismatch):
        FiltrationMultiset({}, "Tilting")


def test_grading_shift(a1):
    ext, groth = a1.ext, a1.groth
    f = FiltrationMultiset({ext.identity: 1}, COVERMA)
    shifted = groth.grading_shift(f, (1,))
    assert shifted.mults == {ext.translation((-1,)): 1}
    assert groth.grading_shift(shifted, (-1,)).mults == f.mults
    assert groth.grading_shift(f, (0,)).mults == f.mults


def test_projective_filtration_examples(a1):
    ext, groth = a1.ext, a1.groth
    pf_e = groth.projective_filtration(ext.identity)
    assert pf_e.mults == {ext.identity: 1, ext.parse_element("s1 : -2"): 1}
    st = ext.parse_element("s1 : -1")
    pf_st = groth.projective_filtration(st)
    assert pf_st.mults == {st: 1, ext.translation((-1,)): 1}
    with pytest.raises(NotRestricted):
        groth.projective_filtration(ext.translation((-2,)))


def test_projective_filtration_sweep(any_engine):
    ext, alc, groth, d = any_engine.ext, any_engine.alc, any_engine.groth, any_engine.datum
    base = ext.mul(ext.translation(d.varsigma), ext.w0)
    for x in alc.restricted_elements():
        filt = groth.projective_filtration(x)
        r = ext.length(ext.mul(base, ext.inv(x)))
        assert filt.total() == d.weyl_order * 2**r
        assert filt.mult(x) == 1
        assert filt.mult(alc.triangle(x)) == 1
        for z in filt.support():
            assert any_engine.order.leq(x, z)
            assert any_engine.order.leq(z, alc.triangle(x))


@pytest.mark.parametrize("name", SEMISIMPLE + ["G2", "A3"] + list(RANK3))
def test_projective_filtration_matches_the_conjugated_route(name):
    # the word of y = s_1 ... s_r omega crossed first, then relabelled by
    # omega^{-1}, against relabelling first and crossing the conjugated word
    eng = engine_for(name) if name in SEMISIMPLE + list(CUSTOM) else build_engine(RANK3[name])
    for x in eng.alc.restricted_elements():
        for strategy in ("min", "max"):
            want = projective_filtration_conjugated(eng.groth, x, strategy)
            assert eng.groth.projective_filtration(x, strategy).mults == want.mults, (x, strategy)


@pytest.mark.parametrize("strategy", ["mni", ""])
def test_unknown_strategy_is_rejected(a1, strategy):
    with pytest.raises(MalformedInput):
        a1.groth.projective_filtration(a1.ext.identity, strategy=strategy)


def test_projective_filtration_sandwich_check_raises():
    eng = build_engine("A2_adj")
    x = eng.ext.identity
    z = next(z for z in sorted(eng.groth.projective_filtration(x).support()) if z != x)
    eng.order._leq[(x.w, z.w, vec_sub(z.t, x.t))] = False
    with pytest.raises(InvariantViolation):
        eng.groth.projective_filtration(x)


def test_reciprocity_shape(any_engine):
    # the dual filtration carries the same multiset with the other flavor
    groth = any_engine.groth
    for x in any_engine.alc.restricted_elements():
        filt = groth.projective_filtration(x)
        dual = groth.duality(filt)
        assert dual.flavor == VERMA
        assert dual.mults == filt.mults
        assert groth.duality(dual) == filt


def test_dim_hom(a1):
    ext, groth = a1.ext, a1.groth
    w = ext.parse_element("s1 : -1")
    single_v = FiltrationMultiset({w: 1}, VERMA)
    single_c = FiltrationMultiset({w: 1}, COVERMA)
    assert groth.dim_hom(single_v, single_c) == 1
    other = FiltrationMultiset({ext.identity: 1}, COVERMA)
    assert groth.dim_hom(single_v, other) == 0
    pf = groth.projective_filtration(ext.identity)
    assert groth.dim_hom(groth.duality(pf), pf) == 2
    with pytest.raises(FlavorMismatch):
        groth.dim_hom(single_c, single_c)
    with pytest.raises(FlavorMismatch):
        groth.dim_hom(single_v, single_v)


def test_phi_of_simple_examples(a1):
    ext, groth = a1.ext, a1.groth
    cv = groth.phi_of_simple(ext.translation((-2,)))
    labels = {groth.label_element(l): m for l, m in cv.items()}
    assert labels == {
        ext.translation((2,)): 1,
        ext.identity: 1,
        ext.translation((-2,)): 1,
    }
    st = ext.parse_element("s1 : -1")
    cv2 = groth.phi_of_simple(st)
    assert {groth.label_element(l): m for l, m in cv2.items()} == {st: 1}
    with pytest.raises(NotSpherical):
        groth.phi_of_simple(ext.translation((1,)))


def test_phi_of_simple_dominance_check_raises():
    # res_decompose planted to return -lambda, so w0 lambda is antidominant
    eng = build_engine("A1_adj")
    ext, alc = eng.ext, eng.alc
    w = ext.translation((-2,))
    x, lam = alc.res_decompose(w)
    alc.res_decompose = lambda z: (x, tuple(-c for c in lam))
    with pytest.raises(InvariantViolation, match="not dominant"):
        eng.groth.phi_of_simple(w)


def test_phi_order_and_total(any_engine):
    from alcove_hecke.suite import spherical_window

    groth, order = any_engine.groth, any_engine.order
    rng = random.Random(3)
    window = spherical_window(any_engine, 5)
    for _ in range(40):
        w = window[rng.randrange(len(window))]
        cv = groth.phi_of_simple(w)
        _, lam = any_engine.alc.res_decompose(w)
        mu = any_engine.datum.act_y(any_engine.datum.w0, lam)
        assert cv.total() == any_engine.satake.weyl_dimension(mu)
        for label, m in cv.items():
            assert m >= 1
            assert order.leq(groth.label_element(label), w)


def test_phi_whittaker_nontrivial(a2):
    from alcove_hecke.parabolic import in_awext, in_awext_res, in_awext_s

    ext, alc, groth = a2.ext, a2.alc, a2.groth
    p = a2.parabolic(["s1"])
    reps = [y for y in alc.restricted_elements() if in_awext_res(alc, y, p)]
    assert reps
    lam = a2.datum.section_lift((-1, -1))  # antidominant, nonzero character
    for x in reps:
        w = ext.mul(x, ext.translation(lam))
        assert in_awext_s(alc, w, p)
        cv = groth.phi_of_simple(w)
        mu = a2.datum.act_y(a2.datum.w0, lam)
        assert cv.total() == a2.satake.weyl_dimension(mu)
        for label in cv.coords:
            assert in_awext(alc, groth.label_element(label), p)
            assert a2.order.leq(groth.label_element(label), w)


def test_averaging_examples(a1):
    ext, groth = a1.ext, a1.groth
    p = a1.parabolic(["s1"])
    s = ext.parse_element("s1 : 0")
    out = groth.av_psi(FiltrationMultiset({ext.identity: 1}, COVERMA), p)
    assert out.mults == {s: 1}
    spread = groth.av_star(FiltrationMultiset({s: 1}, COVERMA), p)
    assert spread.mults == {s: 1, ext.identity: 1}
    with pytest.raises(NotSpherical):
        groth.av_star(FiltrationMultiset({ext.identity: 1}, COVERMA), p)
    # empty subset: both transforms are the identity
    empty = a1.parabolic([])
    f = FiltrationMultiset({ext.identity: 2, s: 1}, COVERMA)
    assert groth.av_psi(f, empty).mults == f.mults
    assert groth.av_star(f, empty).mults == f.mults


def test_av_composition(any_engine):
    ext, groth = any_engine.ext, any_engine.groth
    p = any_engine.parabolic(["s1"])
    rng = random.Random(5)
    for _ in range(50):
        w = min_rep(any_engine.alc, ext.random_element(rng, 2), p)
        f = FiltrationMultiset({w: 1}, COVERMA)
        spread = groth.av_star(f, p)
        assert spread.total() == p.order
        assert set(spread.support()) == {ext.mul(v, w) for v in p.elements}
        back = groth.av_psi(spread, p)
        assert back.mults == {w: p.order}


def test_duality_on_classes(a1):
    groth = a1.groth
    cv = groth.phi_of_simple(a1.ext.translation((-2,)))
    assert groth.duality(cv) == cv


def test_grading_shift_on_classes(a1):
    groth = a1.groth
    cv = groth.phi_of_simple(a1.ext.translation((-2,)))
    shifted = groth.grading_shift(cv, (3,))
    assert shifted.total() == cv.total()
    assert groth.grading_shift(shifted, (-3,)).coords == cv.coords
    # the shift relabels w -> w t_{-nu}
    tneg = a1.ext.translation((-3,))
    want = {
        groth.simple_label(a1.ext.mul(groth.label_element(l), tneg)): m
        for l, m in cv.items()
    }
    assert shifted.coords == want


def test_simple_label_split(any_engine):
    ext, groth = any_engine.ext, any_engine.groth
    rng = random.Random(7)
    for _ in range(200):
        x = ext.random_element(rng, 4)
        label = groth.simple_label(x)
        assert groth.label_element(label) == x
        assert any_engine.alc.in_wres(label.rep)


def test_forget_grading(any_engine):
    ext, groth = any_engine.ext, any_engine.groth
    rng = random.Random(11)
    for _ in range(200):
        x = ext.random_element(rng, 3)
        nu = tuple(rng.randint(-3, 3) for _ in range(any_engine.datum.y_rank))
        # semisimple presets: classes are singleton restricted representatives
        assert groth.forget_grading(x) == any_engine.alc.res_decompose(x)[0]
        # translation shifts are absorbed
        assert groth.forget_grading(ext.mul(x, ext.translation(nu))) == groth.forget_grading(x)


def test_filtration_validation(a1):
    with pytest.raises(MalformedInput):
        FiltrationMultiset({a1.ext.identity: -1}, COVERMA)
    f = FiltrationMultiset({a1.ext.identity: 0}, COVERMA)
    assert f.total() == 0 and f.support() == []
