import itertools

import pytest

from alcove_hecke import satake_char
from alcove_hecke.errors import InvariantViolation, NotDominant
from alcove_hecke.root_datum import pair, solve_smith, vec_add, vec_scale, vec_sub
from alcove_hecke.satake_char import SatakeChar
from oracles import kostant_multiplicity_per_term


def test_trivial_module(any_engine):
    sat = any_engine.satake
    zero = (0,) * any_engine.datum.y_rank
    wm = sat.weight_multiplicities(zero)
    assert dict(wm.items()) == {zero: 1}
    assert sat.weyl_dimension(zero) == 1


def test_a1_adjoint_module(a1):
    # highest weight 2*varsigma: the three-dimensional module
    wm = a1.satake.weight_multiplicities((2,))
    assert dict(wm.items()) == {(-2,): 1, (0,): 1, (2,): 1}
    assert a1.satake.weyl_dimension((2,)) == 3


def test_a1_string_modules(a1):
    # V(n varsigma) has weights n, n-2, ..., -n each once
    for n in range(7):
        wm = a1.satake.weight_multiplicities((n,))
        assert dict(wm.items()) == {(k,): 1 for k in range(-n, n + 1, 2)}


def test_a2_fundamental(a2):
    mu = a2.datum.section_lift((1, 0))
    wm = a2.satake.weight_multiplicities(mu)
    assert wm.total() == 3
    assert all(m == 1 for _, m in wm.items())
    assert wm.mult(mu) == 1


def test_not_dominant_rejected(a1):
    with pytest.raises(NotDominant):
        a1.satake.weight_multiplicities((-1,))
    with pytest.raises(NotDominant):
        a1.satake.weyl_dimension((-2,))
    with pytest.raises(NotDominant):
        a1.satake.kostant_multiplicity((-1,), (0,))


def test_freudenthal_vs_kostant_exhaustive(any_engine):
    d, sat = any_engine.datum, any_engine.satake
    bound = 3 if d.rank > 1 else 6
    for cs in itertools.product(range(bound + 1), repeat=d.rank):
        mu = d.section_lift(cs)
        wm = sat.weight_multiplicities(mu)
        assert wm.total() == sat.weyl_dimension(mu)
        for nu, m in wm.items():
            assert sat.kostant_multiplicity(mu, nu) == m
        # a point strictly below the lowest weight has multiplicity zero
        lowest = d.act_y(d.w0, mu)
        probe = tuple(a - b for a, b in zip(lowest, d.simple_coroots[0]))
        assert wm.mult(probe) == 0
        assert sat.kostant_multiplicity(mu, probe) == 0


def test_weyl_invariance(any_engine):
    d, sat = any_engine.datum, any_engine.satake
    mu = d.section_lift((2,) * d.rank)
    wm = sat.weight_multiplicities(mu)
    for nu, m in wm.items():
        for w in range(d.weyl_order):
            assert wm.mult(d.act_y(w, nu)) == m


def test_support_in_hull(any_engine):
    d, sat = any_engine.datum, any_engine.satake
    mu = d.section_lift((1,) * d.rank)
    wm = sat.weight_multiplicities(mu)
    for nu, _ in wm.items():
        coords = solve_smith(d.coroot_smith, vec_sub(mu, nu))
        assert all(c >= 0 for c in coords)


def test_b2_adjoint_dimension(b2):
    # the highest root of the dual system: the adjoint module has dim 10
    d = b2.datum
    # highest short coroot of B2 = highest root of the dual C2 system is long;
    # use the coweight pairing (1,1) module instead and check against Kostant
    mu = d.section_lift((1, 1))
    wm = b2.satake.weight_multiplicities(mu)
    assert wm.total() == b2.satake.weyl_dimension(mu)
    assert wm.mult(mu) == 1


def test_partition_function_base_cases(a2):
    sat = a2.satake
    assert sat.kostant_partition((0, 0)) == 1
    # alpha1^vee + alpha2^vee: as itself, or as the highest coroot
    assert sat.kostant_partition((1, 1)) == 2
    assert sat.kostant_partition((-1, 0)) == 0


def test_kostant_off_the_coroot_lattice(a1):
    # (1,) is no weight of V(2): every Kostant argument lies off the coroot lattice
    assert a1.satake.kostant_multiplicity((2,), (1,)) == 0


# -- the former grid route, kept as an oracle for the orbit fill ---------------


def dominant_representative(d, nu):
    """The dominant W-conjugate of nu, by simple reflections."""
    cur = tuple(nu)
    while True:
        for alpha, coroot in zip(d.simple_roots, d.simple_coroots):
            c = pair(alpha, cur)
            if c < 0:
                cur = vec_sub(cur, vec_scale(c, coroot))
                break
        else:
            return cur


def grid_multiplicities(sat, mu):
    """Freudenthal on the dominant points of the gap grid, then one dominant
    representative per grid point to fill in every other weight."""
    d = sat.datum
    span = sat._gap_coords(mu, d.act_y(d.w0, mu))
    grid = []
    for cs in itertools.product(*(range(c + 1) for c in span)):
        nu = mu
        for i, k in enumerate(cs):
            nu = vec_sub(nu, vec_scale(k, d.simple_coroots[i]))
        grid.append((nu, cs))
    dominant = sorted(
        ((nu, cs) for nu, cs in grid if d.is_dominant(nu)), key=lambda t: (sum(t[1]), t[0])
    )

    def form(x, y):  # the W-invariant form, summed over the positive roots
        return sum(pair(alpha, x) * pair(alpha, y) for alpha in d.positive_roots)

    mult = {}
    for nu, cs in dominant:
        if nu == mu:
            mult[nu] = 1
            continue
        numerator = 0
        for beta, bc in zip(d.positive_coroots, d.coroot_in_simple):
            k = 1
            while all(a - k * b >= 0 for a, b in zip(cs, bc)):
                higher = vec_add(nu, vec_scale(k, beta))
                m_h = mult.get(dominant_representative(d, higher), 0)
                numerator += 2 * m_h * form(higher, beta)
                k += 1
        denom = form(vec_add(vec_add(mu, nu), sat._two_rho_vee), vec_sub(mu, nu))
        assert numerator % denom == 0
        mult[nu] = numerator // denom
    full = {nu: mult.get(dominant_representative(d, nu), 0) for nu, _ in grid}
    return {nu: m for nu, m in full.items() if m}


def test_orbit_fill_matches_grid_route(datum_engine):
    d, sat = datum_engine.datum, datum_engine.satake
    bound = 2 if d.rank > 1 else 5
    for cs in itertools.product(range(bound + 1), repeat=d.rank):
        mu = d.section_lift(cs)
        assert dict(sat.weight_multiplicities(mu).items()) == grid_multiplicities(sat, mu)
    for nu in [d.section_lift(cs) for cs in itertools.product(range(-3, 4), repeat=d.rank)]:
        rep = dominant_representative(d, nu)
        assert d.is_dominant(rep)
        assert any(d.act_y(w, nu) == rep for w in range(d.weyl_order))


def test_kostant_linear_form_matches_per_term_oracle(datum_engine, monkeypatch):
    # nu runs over a box of Y, off the support and off mu's coroot coset too;
    # once the Weyl rows are filled, a query solves the lattice once
    d = datum_engine.datum
    sat = SatakeChar(d)
    zero = (0,) * d.y_rank
    assert sat.kostant_multiplicity(zero, zero) == 1
    solves = []

    def counted(factors, rhs):
        solves.append(rhs)
        return solve_smith(factors, rhs)

    monkeypatch.setattr(satake_char, "solve_smith", counted)
    queries = 0
    bound = 2 if d.rank > 2 else 3
    for cs in itertools.product(range(bound), repeat=d.rank):
        mu = d.section_lift(cs)
        for nu in itertools.product(range(-2, 3), repeat=d.y_rank):
            assert sat.kostant_multiplicity(mu, nu) == kostant_multiplicity_per_term(sat, mu, nu)
            queries += 1
    assert len(solves) == queries


# -- planted faults: each library check raises InvariantViolation --------------


def _faulty(a2, **attrs):
    sat = SatakeChar(a2.datum)
    for name, value in attrs.items():
        setattr(sat, name, value)
    return sat


def test_lowest_weight_check_raises(a2):
    sat = _faulty(a2, _gap_coords=lambda mu, nu: None)
    with pytest.raises(InvariantViolation, match="lowest weight"):
        sat.weight_multiplicities((1, 1))


@pytest.mark.parametrize("scale,match", [(-1, "denominator"), (2, "not integral")])
def test_freudenthal_checks_raise(a2, scale, match):
    # a wrong rho shifts the Freudenthal denominators: negative, or no
    # longer dividing the numerators
    sat = SatakeChar(a2.datum)
    sat._two_rho_vee = vec_scale(scale, sat._two_rho_vee)
    with pytest.raises(InvariantViolation, match=match):
        sat.weight_multiplicities((1, 1))


def test_highest_weight_multiplicity_check_raises(a2):
    # a wrong Weyl action sends every orbit fill to -nu, so mu itself stays empty
    minus = tuple(vec_scale(-1, row) for row in ((1, 0), (0, 1)))
    sat = _faulty(a2, _y_actions=(minus,) * a2.datum.weyl_order)
    with pytest.raises(InvariantViolation, match="highest weight"):
        sat.weight_multiplicities((1, 1))


def test_kostant_parity_check_raises(a2):
    sat = SatakeChar(a2.datum)
    sat._two_rho_vee = a2.datum.simple_coroots[0]
    with pytest.raises(InvariantViolation, match="not even"):
        sat.kostant_multiplicity((1, 1), (1, 1))


def test_weyl_dimension_integrality_check_raises(a2):
    sat = SatakeChar(a2.datum)
    sat._two_rho_vee = vec_scale(2, sat._two_rho_vee)
    with pytest.raises(InvariantViolation, match="not integral"):
        sat.weyl_dimension((1, 1))
