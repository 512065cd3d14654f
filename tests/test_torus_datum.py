"""Data with a central torus direction (GL2- and GL3-style).

The exhaustive sweeps elsewhere restrict to the semisimple presets; this
module exercises the lattice machinery that only wakes up when the
root-orthogonal sublattice is nonzero: the section solve, class
canonicalization modulo orthogonal translations, and the infinite
length-zero subgroup.
"""

import itertools
import random

import pytest

from alcove_hecke.engine import build_engine
from alcove_hecke.errors import NotFinitary
from alcove_hecke.ext_weyl import TORUS_WINDOW, ExtWeyl
from alcove_hecke.root_datum import load_root_datum, pair
from oracles import hermite_reduce, hermite_rows

GL2 = {"simple_roots": [[1, -1]], "simple_coroots": [[1, -1]]}
GL3 = {"simple_roots": [[1, -1, 0], [0, 1, -1]], "simple_coroots": [[1, -1, 0], [0, 1, -1]]}


@pytest.fixture(scope="module")
def gl2():
    return build_engine(load_root_datum(GL2))


def test_loader_accepts_torus_datum(gl2):
    d = gl2.datum
    assert d.weyl_order == 2
    assert pair(d.simple_roots[0], d.varsigma) == 1
    assert len(d.orthogonal_basis) == 1
    ortho = d.orthogonal_basis[0]
    assert pair(d.simple_roots[0], ortho) == 0 and ortho != (0, 0)


def test_central_translations_have_length_zero(gl2):
    ext = gl2.ext
    for k in range(-3, 4):
        assert ext.length(ext.translation((k, k))) == 0
    # the length-zero subgroup is infinite; a window still enumerates finitely
    omegas = ext.omegas()
    assert all(ext.length(om) == 0 for om in omegas)
    assert ext.translation((1, 1)) in omegas


@pytest.mark.parametrize("spec", [GL2, GL3], ids=["GL2", "GL3"])
def test_omegas_list_one_element_per_class_of_the_window(spec):
    # the classes are infinitely many; omegas lists those of TORUS_WINDOW on
    # the torus row, each as the length-zero element of its own coset
    ext = ExtWeyl(load_root_datum(spec))
    omegas = ext.omegas()
    assert len(omegas) == len(TORUS_WINDOW)
    for om in omegas:
        assert ext.length(om) == 0 and ext.omega_of(om) == om
    for a, b in itertools.combinations(omegas, 2):
        assert not ext.same_coset(a, b)


def test_arithmetic_and_triangle_round_trips(gl2):
    ext, alc = gl2.ext, gl2.alc
    rng = random.Random(3)
    for _ in range(300):
        x = ext.random_element(rng, 3)
        word, om = ext.reduced_expression(x)
        assert len(word) == ext.length(x)
        assert ext.mul(ext.word_to_element(word), om) == x
        assert alc.triangle_inverse(alc.triangle(x)) == x
        y, lam = alc.res_decompose(x)
        assert alc.in_wres(y)
        assert ext.mul(y, ext.translation(lam)) == x
        assert alc.in_wexts(x) == all(pair(a, lam) <= 0 for a in gl2.datum.simple_roots)


def test_orthogonal_translations_preserve_everything(gl2):
    ext, alc = gl2.ext, gl2.alc
    central = ext.translation((1, 1))
    rng = random.Random(5)
    for _ in range(100):
        x = ext.random_element(rng, 3)
        moved = ext.mul(x, central)
        assert ext.length(moved) == ext.length(x)
        assert alc.in_wres(moved) == alc.in_wres(x)
        assert alc.in_wexts(moved) == alc.in_wexts(x)
        assert alc.triangle(moved) == ext.mul(alc.triangle(x), central)


def test_class_canonicalization_collapses_orthogonal_shifts(gl2):
    groth, ext = gl2.groth, gl2.ext
    rng = random.Random(7)
    for _ in range(100):
        x = ext.random_element(rng, 3)
        for k in (-2, 1, 3):
            shifted = ext.mul(x, ext.translation((k, k)))
            assert groth.forget_grading(shifted) == groth.forget_grading(x)
            # the split still reassembles both elements exactly
            assert groth.label_element(groth.simple_label(shifted)) == shifted
        assert groth.label_element(groth.simple_label(x)) == x
    # forgetting the grading quotients all translations, not just orthogonal
    # ones: every pure translation lands in the class of the identity
    a = groth.forget_grading(ext.identity)
    b = groth.forget_grading(ext.translation((1, 0)))
    assert a == b


def test_restricted_enumeration_refuses_infinite_set(gl2):
    with pytest.raises(NotFinitary):
        gl2.alc.restricted_elements()


def test_kl_and_periodic_order_still_work(gl2):
    ext, hecke, order = gl2.ext, gl2.hecke, gl2.order
    rng = random.Random(11)
    for _ in range(40):
        x = ext.random_element(rng, 2)
        table = hecke.kl_basis(x)
        assert table.coeff(x).coeffs == {0: 1}
        assert hecke.bar(table) == table
    # the periodic order is insensitive to central translations
    for _ in range(60):
        x = ext.random_element(rng, 2)
        y = ext.random_element(rng, 2)
        central = ext.translation((2, 2))
        assert order.leq(x, y) == order.leq(ext.mul(x, central), ext.mul(y, central))


def test_weight_multiplicities_for_torus_datum(gl2):
    d, sat = gl2.datum, gl2.satake
    # dominant coweight pairing to 2 against the single root
    mu = tuple(a + b for a, b in zip(d.section_lift((2,)), (0, 0)))
    wm = sat.weight_multiplicities(mu)
    assert wm.total() == sat.weyl_dimension(mu) == 3
    for nu, m in wm.items():
        assert sat.kostant_multiplicity(mu, nu) == m


@pytest.mark.parametrize("spec", [GL2, GL3], ids=["GL2", "GL3"])
def test_section_representative_matches_hermite_oracle(spec):
    # the class representative is the section lift of tau's pairings; the
    # oracle reduces tau modulo the root-orthogonal sublattice by its Hermite
    # form.  Both pick one point per coset, so the Hermite forms agree and
    # the class partitions are the same.
    eng = build_engine(load_root_datum(spec))
    ext, alc, groth, d = eng.ext, eng.alc, eng.groth, eng.datum
    rows = hermite_rows(d.orthogonal_basis)
    rng = random.Random(13)
    central = [ext.translation([k] * d.y_rank) for k in (-2, 0, 1)]
    pairs = set()
    for _ in range(150):
        x0 = ext.random_element(rng, 3)
        for c in central:
            x = ext.mul(x0, c)
            label = groth.simple_label(x)
            y, _ = alc.res_decompose(x)
            assert groth.label_element(label) == x
            assert label.rep.w == y.w
            assert hermite_reduce(rows, label.rep.t) == hermite_reduce(rows, y.t)
            pairs.add((groth.forget_grading(x), (y.w, hermite_reduce(rows, y.t))))
    assert len({a for a, _ in pairs}) == len({b for _, b in pairs}) == len(pairs)
