import dataclasses
import hashlib
import json
import random
import time
import tracemalloc
from pathlib import Path

import pytest

from alcove_hecke.alcove import AlcoveModel
from alcove_hecke.engine import build_engine
from alcove_hecke.errors import (
    BoundsTooLarge,
    CartanNotFiniteType,
    DimensionMismatch,
    InvariantViolation,
    MalformedInput,
    TorsionQuotient,
    UnknownPreset,
)
from alcove_hecke import root_datum
from alcove_hecke.ext_weyl import ExtWeyl, ExtWeylElement
from alcove_hecke.laurent import ONE, LaurentPolynomial
from alcove_hecke.root_datum import (
    MAX_WEYL_ORDER,
    load_root_datum,
    mat_apply,
    pair,
    smith_normal_form,
    solve_smith,
    vec_neg,
)
from conftest import (
    CUSTOM,
    EVERY_DATUM,
    INTERLEAVED,
    RANK3,
    RANK4,
    SEMISIMPLE,
    descriptor,
    type_a,
)
from oracles import (cartan_components, coroot_lattice_contains, highest_root_index,
                     weyl_tables_by_products, x_actions_by_words)

# degrees of the fundamental invariants, used as the Poincare-series oracle
DEGREES = {
    "A1_adj": (2,),
    "A2_adj": (2, 3),
    "B2_adj": (2, 4),
    "A1xA1_adj": (2, 2),
    "G2": (2, 6),
    "A3": (2, 3, 4),
    "B3": (2, 4, 6),
    "C3": (2, 4, 6),
}


def test_a1_preset_forced_values():
    d = load_root_datum("A1_adj")
    assert d.rank == 1
    assert len(d.positive_roots) == 1
    assert d.weyl_elements[d.w0].word == (0,)
    assert d.two_rho == d.positive_roots[0]
    assert pair(d.simple_roots[0], d.varsigma) == 1
    assert pair(d.simple_roots[0], d.simple_coroots[0]) == 2


def test_a2_preset_closure_derived():
    d = load_root_datum("A2_adj")
    assert len(d.positive_roots) == 3
    assert d.weyl_elements[d.w0].length == 3
    # closure oracle: positive roots are the two simples and their sum
    assert set(d.positive_roots) == {(1, 0), (0, 1), (1, 1)}
    assert pair(d.two_rho, d.varsigma) == 4


def test_torsion_quotient_rejected():
    # SL2-style datum: X the weight lattice, alpha twice the fundamental weight
    with pytest.raises(TorsionQuotient):
        load_root_datum({"simple_roots": [[2]], "simple_coroots": [[1]]})


def test_non_finite_type_rejected():
    # affine A1 Cartan matrix
    with pytest.raises(CartanNotFiniteType):
        load_root_datum(
            {"simple_roots": [[1, 0], [0, 1]], "simple_coroots": [[2, -2], [-2, 2]]}
        )
    with pytest.raises(CartanNotFiniteType):
        load_root_datum(
            {"simple_roots": [[1, 0], [0, 1]], "simple_coroots": [[2, 1], [1, 2]]}
        )


def test_malformed_input():
    with pytest.raises(UnknownPreset):
        load_root_datum("E8_adj")
    with pytest.raises(UnknownPreset):
        load_root_datum({"preset": "nope"})
    with pytest.raises(MalformedInput):
        load_root_datum({"simple_roots": [[1]]})
    with pytest.raises(MalformedInput):
        load_root_datum({"simple_roots": [[1, 0]], "simple_coroots": [[2]]})
    with pytest.raises(MalformedInput):
        load_root_datum({"simple_roots": [], "simple_coroots": []})


def test_descriptor_file_round_trip(tmp_path):
    path = tmp_path / "datum.json"
    path.write_text('{"preset": "B2_adj"}')
    d = load_root_datum(str(path))
    assert d.name == "B2_adj"
    assert len(d.positive_roots) == 4


def test_dominance(a1):
    d = a1.datum
    zero = (0,)
    assert d.is_dominant(zero) and d.is_dominant(d.varsigma)
    assert not d.is_dominant(vec_neg(d.varsigma))
    with pytest.raises(DimensionMismatch):
        d.is_dominant((0, 0))


@pytest.mark.parametrize("name", list(DEGREES))
def test_poincare_polynomial(name):
    d = load_root_datum(descriptor(name))
    got = LaurentPolynomial()
    for el in d.weyl_elements:
        got = got + LaurentPolynomial.monomial(2 * el.length)
    want = ONE
    for deg in DEGREES[name]:
        want = want * LaurentPolynomial({2 * i: 1 for i in range(deg)})
    assert got == want


def test_simple_reflection_permutes_other_positive_roots(any_engine):
    d = any_engine.datum
    pos = set(d.positive_roots)
    for i, beta in enumerate(d.simple_roots):
        image = {
            tuple(g - pair(gamma, d.simple_coroots[i]) * b for g, b in zip(gamma, beta))
            for gamma in d.positive_roots
            if gamma != beta
        }
        assert image == pos - {beta}


def test_two_rho_pairs_to_two(any_engine):
    d = any_engine.datum
    for alpha_vee in d.simple_coroots:
        assert pair(d.two_rho, alpha_vee) == 2


def test_w0_negates_positive_roots(any_engine):
    d = any_engine.datum
    n_pos = len(d.positive_roots)
    sent = {d.roots[j] for j in d.root_perms[d.w0][:n_pos]}
    assert sent == {vec_neg(beta) for beta in d.positive_roots}
    assert d.weyl_elements[d.w0].length == len(d.positive_roots)


def test_varsigma_unique_for_semisimple(any_engine):
    d = any_engine.datum
    assert d.orthogonal_basis == ()
    assert all(pair(alpha, d.varsigma) == 1 for alpha in d.simple_roots)


def test_smith_normal_form_random():
    rng = random.Random(11)
    for _ in range(80):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        mat = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        u, d, v = smith_normal_form(mat)
        # U*mat*V == D
        um = [[sum(u[i][k] * mat[k][j] for k in range(rows)) for j in range(cols)] for i in range(rows)]
        umv = [[sum(um[i][k] * v[k][j] for k in range(cols)) for j in range(cols)] for i in range(rows)]
        for i in range(rows):
            for j in range(cols):
                assert umv[i][j] == d[i][j]
                if i != j:
                    assert d[i][j] == 0
        # divisibility chain
        diag = [d[i][i] for i in range(min(rows, cols)) if d[i][i] != 0]
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0


def test_solve_integer_round_trip():
    rng = random.Random(5)
    for _ in range(60):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        mat = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        x = [rng.randint(-3, 3) for _ in range(cols)]
        rhs = [sum(mat[i][j] * x[j] for j in range(cols)) for i in range(rows)]
        sol = solve_smith(smith_normal_form(mat), rhs)
        assert sol is not None
        assert [sum(mat[i][j] * sol[j] for j in range(cols)) for i in range(rows)] == rhs


def test_coroot_solves_use_the_stored_factors(monkeypatch, datum_engine):
    # the Smith solve is an independent route to the coroot coordinates the
    # closure carries
    d = datum_engine.datum

    def refactor(mat):
        raise AssertionError("smith_normal_form called after load")

    monkeypatch.setattr(root_datum, "smith_normal_form", refactor)
    for k, cv in enumerate(d.positive_coroots):
        assert tuple(solve_smith(d.coroot_smith, cv)) == d.coroot_in_simple[k]
        assert coroot_lattice_contains(d, cv)
    assert coroot_lattice_contains(d, vec_neg(d.positive_coroots[-1]))


def test_coroot_lattice_check_at_load_raises(monkeypatch):
    # a closure whose last carried coroot coordinates, those of the highest
    # coroot (1, 1) of A2_adj, are (1, 0): they rebuild the simple coroot
    # (2, -1) instead
    real = root_datum._generate_root_system

    def planted(simple_roots, simple_coroots):
        roots, coroots, coords, coroot_coords, perms = real(simple_roots, simple_coroots)
        return roots, coroots, coords, coroot_coords[:-1] + ((1, 0),), perms

    monkeypatch.setattr(root_datum, "_generate_root_system", planted)
    with pytest.raises(InvariantViolation, match=r"\(1, 0\) do not rebuild coroot \(1, 1\)"):
        load_root_datum("A2_adj")


def test_length_check_at_load_raises(monkeypatch):
    # s1 of A2_adj with the images of the root (0, 1) and of its negative
    # swapped: it sends (0, 1) to -(1, 1), so it makes two positive roots
    # negative while its word has length one
    real = root_datum._enumerate_weyl

    def planted(*args):
        elements, inv, perms = real(*args)
        perm = list(perms[1])
        n = len(perm) // 2
        perm[0], perm[n] = perm[n], perm[0]
        return elements, inv, perms[:1] + (tuple(perm),) + perms[2:]

    monkeypatch.setattr(root_datum, "_enumerate_weyl", planted)
    with pytest.raises(InvariantViolation, match=r"length 1 makes 2 positive roots negative"):
        load_root_datum("A2_adj")


@pytest.mark.parametrize("name", EVERY_DATUM)
def test_root_permutations_match_the_x_actions(name):
    # each element's root permutation and sign flips against its X-action,
    # the product of reflections along its word, applied to every root; and
    # against its Y-action applied to the coroots, as w(beta^vee) = w(beta)^vee
    d = load_root_datum(descriptor(name))
    assert d.roots == d.positive_roots + tuple(map(vec_neg, d.positive_roots))
    coroots = d.positive_coroots + tuple(map(vec_neg, d.positive_coroots))
    positive = set(d.positive_roots)
    x_actions = x_actions_by_words(d)
    for el, perm, x_action in zip(d.weyl_elements, d.root_perms, x_actions, strict=True):
        images = [mat_apply(x_action, beta) for beta in d.roots]
        assert [d.roots[j] for j in perm] == images
        assert [coroots[j] for j in perm] == [mat_apply(el.y_action, cv) for cv in coroots]
        flips = [j >= len(positive) for j in perm[: len(positive)]]
        assert flips == [image not in positive for image in images[: len(positive)]]


def test_per_element_tables_apply_no_matrix(monkeypatch):
    # the sign flips, descent rows, generator indices and alcove rows of F4
    # are read off the root permutations: loading the datum and building its
    # ExtWeyl and AlcoveModel apply a matrix fewer times than |W|
    calls = []
    real = root_datum.mat_apply
    monkeypatch.setattr(root_datum, "mat_apply", lambda m, v: calls.append(v) or real(m, v))
    d = load_root_datum(RANK4["F4"])
    AlcoveModel(ExtWeyl(d))
    assert 0 < len(calls) < d.weyl_order


@pytest.mark.parametrize("name", SEMISIMPLE + list(CUSTOM) + list(RANK3) + list(INTERLEAVED))
def test_components_and_highest_roots_from_supports(name):
    # the maximal root supports and the last root on each against a search of
    # the Dynkin graph and the root of greatest height on each component
    d = load_root_datum(descriptor(name))
    comps = cartan_components(d.cartan)
    assert d.components == tuple(map(tuple, comps))
    tops = [highest_root_index(d, comp) for comp in comps]
    assert d.highest_roots == tuple(d.positive_roots[k] for k in tops)
    assert d.highest_short_coroots == tuple(d.positive_coroots[k] for k in tops)


def test_varsigma_check_at_load_raises(monkeypatch):
    # a doubled section of Y -> Hom(ZR, Z): varsigma pairs to 2 with each simple root
    real = root_datum.solve_smith
    monkeypatch.setattr(root_datum, "solve_smith", lambda factors, rhs: [2 * c for c in real(factors, rhs)])
    with pytest.raises(InvariantViolation, match="varsigma"):
        load_root_datum("A2_adj")


def field_digests(d):
    """A short digest of every `RootDatum` field, the Weyl elements spelled
    out as (index, word, Y-action)."""
    values = {f.name: getattr(d, f.name) for f in dataclasses.fields(d)}
    values["weyl_elements"] = [(e.index, e.word, e.y_action) for e in d.weyl_elements]
    return {k: hashlib.sha256(json.dumps(v).encode()).hexdigest()[:16] for k, v in values.items()}


LOADER_DIGESTS = Path(__file__).parent / "data" / "loader_digests.json"


@pytest.mark.parametrize("name", SEMISIMPLE + list(CUSTOM) + list(RANK3) + list(RANK4))
def test_loaded_fields_match_pinned_digests(name):
    # every field the loader derives, against the digests in tests/data; a
    # mismatch names the field that changed
    want = json.loads(LOADER_DIGESTS.read_text(encoding="utf-8"))[name]
    assert field_digests(load_root_datum(descriptor(name))) == want


@pytest.mark.parametrize("name", SEMISIMPLE + list(CUSTOM) + list(RANK3) + list(INTERLEAVED) + ["A4"])
def test_weyl_tables_match_the_product_oracle(name):
    # the search's words, Y-actions and inverses, and the Weyl products that
    # ExtWeyl reads off the root permutations, against matrix products per pair
    d = load_root_datum(descriptor(name))
    words, _, y_actions, mult, inv = weyl_tables_by_products(d.simple_roots, d.simple_coroots)
    assert [e.word for e in d.weyl_elements] == words
    assert [e.y_action for e in d.weyl_elements] == y_actions
    ext, zero = ExtWeyl(d), (0,) * d.y_rank
    weyl = [ExtWeylElement(w, zero) for w in range(d.weyl_order)]
    assert tuple(tuple(ext.mul(a, b).w for b in weyl) for a in weyl) == mult
    assert d.weyl_inv == inv


def test_weyl_order_bound():
    # W(F4) is the largest group loaded; W(A6), of order 5040, is refused by
    # the search itself, before its 5040 permutations and actions are built
    assert MAX_WEYL_ORDER == 1_152
    assert load_root_datum(RANK4["F4"]).weyl_order == MAX_WEYL_ORDER
    start = time.perf_counter()
    with pytest.raises(BoundsTooLarge, match="more than 1152 elements"):
        load_root_datum(type_a(6))
    assert time.perf_counter() - start < 10


def test_f4_engine_builds_in_little_memory():
    # the finite Weyl group is kept as its 1,152 root permutations: products
    # are built in rows on demand, so no |W|^2 table is allocated at build
    tracemalloc.start()
    try:
        build_engine(RANK4["F4"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_weyl_order_bound_refuses_one_element_more(monkeypatch):
    # |W(A3)| = 24: the search stops at its 24th element when the bound is 23
    monkeypatch.setattr(root_datum, "MAX_WEYL_ORDER", 23)
    with pytest.raises(BoundsTooLarge, match="more than 23 elements"):
        load_root_datum(CUSTOM["A3"])
