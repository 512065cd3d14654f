"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All tolerances are exact (integer Laurent polynomials and integer counts);
random checks are seed-fixed.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import itertools
import random
from fractions import Fraction

from alcove_hecke.engine import build_engine
from alcove_hecke.ext_weyl import ExtWeylElement
from alcove_hecke.laurent import LaurentPolynomial
from alcove_hecke.parabolic import in_awext, min_rep
from alcove_hecke.root_datum import vec_scale
from alcove_hecke.suite import antidominant_translations, awext_window, spherical_window

SEMISIMPLE = ["A1_adj", "A2_adj", "B2_adj", "A1xA1_adj"]

_engines = {}


def eng(preset):
    if preset not in _engines:
        _engines[preset] = build_engine(preset)
    return _engines[preset]


def report(num, name, checked):
    print(f"criterion {num} ({name}): PASS [{checked}]")


def mtriangle_values(preset, maxlen):
    e = eng(preset)
    out = {}
    for w in spherical_window(e, maxlen):
        tri = e.alc.triangle(w)
        out[w] = (tri, e.hecke.inverse_m(tri, w))
    return out


def test_criterion_1_m_triangle():
    for preset, maxlen in [("A1_adj", 12), ("A2_adj", 8)]:
        e = eng(preset)
        want = LaurentPolynomial.monomial(e.ext.length(e.ext.w0))
        values = mtriangle_values(preset, maxlen)
        assert values, preset
        for w, (tri, poly) in values.items():
            assert poly == want, (preset, e.ext.format_element(w), str(poly))
    report(1, "m-triangle", "A1 len<=12, A2 len<=8, exact")


def test_criterion_2_mult_triangle():
    for preset, maxlen in [("A1_adj", 12), ("A2_adj", 8)]:
        e = eng(preset)
        lw0 = e.ext.length(e.ext.w0)
        for w, (tri, poly) in mtriangle_values(preset, maxlen).items():
            sign = -1 if (e.ext.length(w) + e.ext.length(tri)) % 2 else 1
            assert sign * poly.evaluate(-1) == 1, (preset, e.ext.format_element(w))
            assert (e.ext.length(w) + e.ext.length(tri) + lw0) % 2 == 0
    report(2, "mult-triangle", "signed value 1 at v=-1, parity even")


def test_criterion_3_res_complement():
    total_checked = 0
    for preset in SEMISIMPLE:
        e = eng(preset)
        base = e.ext.mul(e.ext.translation(e.datum.varsigma), e.ext.w0)
        for x in e.alc.restricted_elements():
            y = e.ext.mul(base, e.ext.inv(x))
            assert e.ext.length(x) + e.ext.length(y) == e.ext.length(base), (preset, x)
            total_checked += 1
    report(3, "res-complement", f"exhaustive, {total_checked} restricted elements")


def test_criterion_4_lengths_add():
    pairs = 0
    for preset in SEMISIMPLE:
        e = eng(preset)
        window = spherical_window(e, 10)
        lams = list(antidominant_translations(e, 10))
        for w in window:
            lw = e.ext.length(w)
            for lam in lams:
                t = e.ext.translation(lam)
                assert e.ext.length(e.ext.mul(w, t)) == lw + e.ext.length(t), (preset, w, lam)
                pairs += 1
    report(4, "lengths-add", f"exhaustive, {pairs} pairs")


def test_criterion_5_per_order_properties():
    target = 500
    for preset in SEMISIMPLE:
        e = eng(preset)
        ext, order = e.ext, e.order
        rng = random.Random(f"acceptance:{preset}")
        gens = ext.generators
        counts = {1: 0, 2: 0, 4: 0, 5: 0}
        attempts = 0
        while min(counts.values()) < target:
            attempts += 1
            assert attempts < 200_000, (preset, counts)
            y = ext.random_element(rng, 2)
            g = gens[rng.randrange(len(gens))]
            sy = ext.mul(ext.gen_element(g), y)
            if counts[1] < target:
                # (1) comparability along a generator
                assert order.leq(sy, y) or order.leq(y, sy), (preset, y, g)
                counts[1] += 1
            # a partner biased toward comparability: same affine coset
            word = [gens[rng.randrange(len(gens))] for _ in range(rng.randrange(3))]
            shift = e.datum.simple_coroots[rng.randrange(e.datum.rank)]
            y2 = ext.mul(ext.word_to_element(word), y)
            if rng.randrange(2):
                y2 = ext.mul(y2, ext.translation(vec_scale(rng.randint(-1, 1), shift)))
            if counts[2] < target:
                # (2) translation invariance, any pair
                mu = tuple(rng.randint(-2, 2) for _ in range(e.datum.y_rank))
                tmu = ext.translation(mu)
                assert order.leq(y, y2) == order.leq(ext.mul(y, tmu), ext.mul(y2, tmu))
                counts[2] += 1
            if order.leq(y, y2):
                a, b = y, y2
            elif order.leq(y2, y):
                a, b = y2, y
            else:
                continue
            sa = ext.mul(ext.gen_element(g), a)
            sb = ext.mul(ext.gen_element(g), b)
            if counts[4] < target and order.leq(sa, a):
                # (4) descent compatibility, premise satisfied
                assert order.leq(sa, b) and order.leq(sa, sb), (preset, a, b, g)
                counts[4] += 1
            if counts[5] < target and order.leq(b, sb):
                # (5) ascent compatibility, premise satisfied
                assert order.leq(a, sb) and order.leq(sa, sb), (preset, a, b, g)
                counts[5] += 1
        # (3): exhaustive on a spherical window
        window = spherical_window(e, 5)
        for x in window:
            for z in window:
                assert order.leq(x, z) == ext.bruhat_leq(x, z), (preset, x, z)
    report(5, "per-order-properties", f"parts 1-5, >= {target} instances per part per preset")


def _parabolic_cases(e):
    cases = [e.parabolic([]), e.parabolic(["s1"])]
    if e.datum.name == "B2_adj":
        cases.append(e.parabolic(["s1", "s2"]))
    return cases


def test_criterion_6_representatives_and_tri_bijection():
    cosets = 0
    points = 0
    for preset in SEMISIMPLE:
        e = eng(preset)
        ext, alc = e.ext, e.alc
        for a in _parabolic_cases(e):
            # windowed exhaustive: every coset meets the representative set once
            seen = set()
            for w in range(e.datum.weyl_order):
                for t in itertools.product(range(-2, 3), repeat=e.datum.y_rank):
                    x = ExtWeylElement(w, t)
                    coset = frozenset(ext.mul(v, x) for v in a.elements)
                    if coset in seen:
                        continue
                    seen.add(coset)
                    members = [c for c in coset if in_awext(alc, c, a)]
                    assert len(members) == 1, (preset, x)
                    assert min_rep(alc, x, a) == members[0]
                    cosets += 1
            # tri-bijection on the representative window: injective with
            # pointwise inverse through the triangle inverse
            window = awext_window(e, a, 2)
            image = set()
            for w in window:
                target = ext.mul(a.longest, alc.triangle(w))
                assert in_awext(alc, target, a), (preset, w)
                assert target not in image
                image.add(target)
            for v in window:
                w = alc.triangle_inverse(ext.mul(a.longest, v))
                assert in_awext(alc, w, a), (preset, v)
                assert ext.mul(a.longest, alc.triangle(w)) == v
                points += 1
    report(6, "representatives+tri-bijection", f"{cosets} cosets, {points} window points")


def test_criterion_7_projective_filtration():
    checked = 0
    for preset in SEMISIMPLE:
        e = eng(preset)
        ext, alc, groth = e.ext, e.alc, e.groth
        base = ext.mul(ext.translation(e.datum.varsigma), ext.w0)
        for x in alc.restricted_elements():
            filt = groth.projective_filtration(x)
            tri = alc.triangle(x)
            assert filt.mult(x) == 1, (preset, x)
            assert filt.mult(tri) == 1, (preset, x)
            for z in filt.support():
                assert e.order.leq(x, z) and e.order.leq(z, tri), (preset, x, z)
            r = ext.length(ext.mul(base, ext.inv(x)))
            assert filt.total() == e.datum.weyl_order * 2**r, (preset, x)
            checked += 1
    report(7, "projective-filtration", f"exhaustive, {checked} restricted elements")


def test_criterion_8_word_independence():
    for preset in SEMISIMPLE:
        e = eng(preset)
        groth = e.groth
        for x in e.alc.restricted_elements():
            a = groth.projective_filtration(x, strategy="min")
            b = groth.projective_filtration(x, strategy="max")
            assert a.mults == b.mults, (preset, x)
            assert groth.dim_hom(groth.duality(a), a) == groth.dim_hom(groth.duality(b), b)
    report(8, "word-independence", "min/max strategies agree exactly")


def test_criterion_9_freudenthal_vs_kostant():
    weights = 0
    for preset in SEMISIMPLE:
        e = eng(preset)
        d, sat = e.datum, e.satake
        bound = 3 if d.rank > 1 else 6
        for cs in itertools.product(range(bound + 1), repeat=d.rank):
            mu = d.section_lift(cs)
            wm = sat.weight_multiplicities(mu)
            assert wm.total() == sat.weyl_dimension(mu), (preset, mu)
            for nu, m in wm.items():
                assert sat.kostant_multiplicity(mu, nu) == m, (preset, mu, nu)
                weights += 1
    report(9, "freudenthal-vs-kostant", f"{weights} weight multiplicities, exact")


def test_criterion_10_phi_order():
    for preset in SEMISIMPLE:
        e = eng(preset)
        for w in spherical_window(e, 5):
            cv = e.groth.phi_of_simple(w)
            _, lam = e.alc.res_decompose(w)
            mu = e.datum.act_y(e.datum.w0, lam)
            assert cv.total() == e.satake.weyl_dimension(mu), (preset, w)
            for label in cv.coords:
                assert e.order.leq(e.groth.label_element(label), w), (preset, w, label)
    report(10, "phi-order", "labels below input, totals equal dimensions")


# -- criterion 11: an independent dihedral model -----------------------------
#
# The oracle below is self-contained: it encodes the infinite dihedral affine
# Weyl group of A1_adj by (first letter, length), implements the Hecke
# relations and the bar involution from scratch on plain dicts, and solves
# the bar-invariance linear system by Gaussian elimination.


def dh_add(p, q):
    out = dict(p)
    for k, c in q.items():
        out[k] = out.get(k, 0) + c
        if out[k] == 0:
            del out[k]
    return out


def dh_scale(p, k0, c0):
    return {k + k0: c * c0 for k, c in p.items()}


def dh_word(code):
    start, length = code
    return [start if i % 2 == 0 else 1 - start for i in range(length)]


def dh_left_mul_gen(g, code):
    start, length = code
    if length == 0:
        return (g, 1)
    if start == g:
        return (1 - start, length - 1) if length > 1 else (0, 0)
    return (g, length + 1)


def dh_elem_right_mul_geninv(elem, g):
    # multiply each H_code on the right by H_g^{-1} = H_g + (v - v^{-1}) H_e
    out = {}
    for code, poly in elem.items():
        word = dh_word(code)
        if word and word[-1] == g:
            newcode = (code[0], code[1] - 1) if code[1] > 1 else (0, 0)
            # H_code * H_g = H_short + (v^{-1}-v) H_code
            out[newcode] = dh_add(out.get(newcode, {}), poly)
            out[code] = dh_add(out.get(code, {}), dh_add(dh_scale(poly, -1, 1), dh_scale(poly, 1, -1)))
        else:
            newcode = (code[0] if code[1] else g, code[1] + 1)
            out[newcode] = dh_add(out.get(newcode, {}), poly)
        # + (v - v^{-1}) * original
        out[code] = dh_add(out.get(code, {}), dh_add(dh_scale(poly, 1, 1), dh_scale(poly, -1, -1)))
    return {k: p for k, p in out.items() if p}


def dh_bar_standard(code):
    # bar(H_w) = (H_{w^{-1}})^{-1} = H_{g_1}^{-1} ... H_{g_r}^{-1}
    # for w = g_1 ... g_r
    elem = {(0, 0): {0: 1}}
    for g in dh_word(code):
        elem = dh_elem_right_mul_geninv(elem, g)
    return elem


def dh_solver(code):
    """Canonical basis element at `code` via the bar-invariance linear system."""
    start, length = code
    lower = [(0, 0)] + [(s, k) for k in range(1, length) for s in (0, 1)]
    lower = [c for c in lower if c != code and c[1] < length]
    variables = [(y, k) for y in lower for k in range(1, length - y[1] + 1)]
    bars = {y: dh_bar_standard(y) for y in lower + [code]}
    rows = {}

    def bump(key, var, c):
        rows.setdefault(key, {})
        rows[key][var] = rows[key].get(var, 0) + c

    for z, poly in bars[code].items():
        for exp, c in poly.items():
            bump((z, exp), "rhs", -c)
    bump((code, 0), "rhs", 1)
    for (y, k) in variables:
        for z, poly in bars[y].items():
            for exp, c in poly.items():
                bump((z, exp - k), (y, k), c)
        bump((y, k), (y, k), -1)
    var_index = {v: i for i, v in enumerate(variables)}
    matrix = []
    for key in sorted(rows, key=str):
        row = [Fraction(0)] * (len(variables) + 1)
        for var, c in rows[key].items():
            if var == "rhs":
                row[-1] = Fraction(c)
            else:
                row[var_index[var]] = Fraction(c)
        matrix.append(row)
    r = 0
    pivots = []
    for col in range(len(variables)):
        piv = next((i for i in range(r, len(matrix)) if matrix[i][col] != 0), None)
        assert piv is not None, "underdetermined system"
        matrix[r], matrix[piv] = matrix[piv], matrix[r]
        matrix[r] = [c / matrix[r][col] for c in matrix[r]]
        for i in range(len(matrix)):
            if i != r and matrix[i][col] != 0:
                f = matrix[i][col]
                matrix[i] = [a - f * b for a, b in zip(matrix[i], matrix[r])]
        pivots.append((r, col))
        r += 1
    for i in range(r, len(matrix)):
        assert matrix[i][-1] == 0, "inconsistent system"
    out = {code: {0: 1}}
    for rrow, col in pivots:
        val = matrix[rrow][-1]
        assert val.denominator == 1
        y, k = variables[col]
        if val:
            out.setdefault(y, {})[k] = int(val)
    return {k: p for k, p in out.items() if p}


def test_criterion_11_dihedral_kl():
    e = eng("A1_adj")
    ext, hecke = e.ext, e.hecke
    s_elt = ext.gen_element(ext.gen_by_name("s1"))
    s0_elt = ext.gen_element(ext.gen_by_name("s0a"))
    gens = {0: s_elt, 1: s0_elt}

    def code_to_element(code):
        acc = ext.identity
        for g in dh_word(code):
            acc = ext.mul(acc, gens[g])
        return acc

    codes = [(0, 0)] + [(s, k) for k in range(1, 11) for s in (0, 1)]
    solved_count = 0
    for code in codes:
        x = code_to_element(code)
        assert ext.length(x) == code[1]
        table = hecke.kl_basis(x)
        # closed form against the engine for the whole window
        for y, p in table.items():
            assert p == LaurentPolynomial.monomial(ext.length(x) - ext.length(y)), (code, y)
        # independent brute-force bar-invariance solver (to length 8)
        if code[1] <= 8:
            solved = dh_solver(code)
            got = {}
            for c in [(0, 0)] + [(s, k) for k in range(1, code[1] + 1) for s in (0, 1)]:
                poly = table.coeff(code_to_element(c))
                if poly:
                    got[c] = dict(poly.coeffs)
            assert solved == got, (code, solved, got)
            solved_count += 1
    report(11, "dihedral-kl", f"closed form to length 10; solver on {solved_count} elements")
