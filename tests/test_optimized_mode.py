"""The library's own invariant checks must survive `python -O`."""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

SCRIPT = """
from alcove_hecke.engine import build_engine
from alcove_hecke.errors import FlavorMismatch, InvariantViolation
from alcove_hecke.groth_calc import FiltrationMultiset
from alcove_hecke.hecke import HeckeElement
from oracles import ElementTable

if __debug__:
    raise SystemExit("not running under -O")
try:
    FiltrationMultiset({}, "Tilting")
except FlavorMismatch:
    pass
else:
    raise SystemExit("flavor check vanished")

from alcove_hecke import suite

eng = build_engine("A1_adj")
ext, hecke = eng.ext, eng.hecke
top = ext.mul(ext.parse_element("s1 : -2"), ext.w0)
kl = ElementTable(hecke, hecke._kl)
wrong = dict(kl[top])
del wrong[ext.identity]
kl[top] = wrong
suite.build_engine = lambda datum: eng
if suite.run_suite("A1_adj", names=["spherical-identities"]).passed:
    raise SystemExit("zeta coset check vanished")
suite.build_engine = build_engine

eng = build_engine("A1_adj")
ext, hecke = eng.ext, eng.hecke

w = ext.parse_element("s1 : -4")
rest = next(sw for sw, down in ext.left_steps(w) if down)
spherical = ElementTable(hecke, hecke._spherical)
wrong = dict(spherical[rest])
del wrong[rest]
spherical[rest] = wrong
try:
    hecke.spherical_basis(w)
except InvariantViolation:
    pass
else:
    raise SystemExit("spherical unitriangularity check vanished")

planted = build_engine("A1_adj").hecke
y = ext.parse_element("s1 : -2")
spherical = ElementTable(planted, planted._spherical)
wrong = dict(spherical[rest])
try:
    spherical[rest] = {**wrong, y: {**wrong[y], 0: 1}}  # len(rest) - len(y) is odd
except InvariantViolation:
    pass
else:
    raise SystemExit("coefficient parity check vanished")
wrong[y] = {**wrong[y], -1: wrong[y].get(-1, 0) + 1}  # plus v^{-1}, outside vZ[v]
spherical[rest] = wrong
try:
    planted.spherical_basis(w)
except InvariantViolation:
    pass
else:
    raise SystemExit("spherical vZ[v] check vanished")

from alcove_hecke.errors import BoundsTooLarge
from alcove_hecke.hecke import HEAD

oversized = build_engine("A1_adj").hecke
x = ext.parse_element("e : -2")
sx = ext.first_descent(x)[1]
kl = ElementTable(oversized, oversized._kl)
wrong = dict(kl[sx])
wrong[ext.identity] = {1: 1 << HEAD}  # v 2^HEAD, past the packed digit bound
kl[sx] = wrong
try:
    oversized.kl_basis(x)
except BoundsTooLarge:
    pass
else:
    raise SystemExit("packed coefficient size check vanished")

groth = eng.groth
try:
    groth.xi_omega(groth.seed_filtration(), ext.gen_element(ext.generators[0]))
except InvariantViolation:
    pass
else:
    raise SystemExit("xi_omega length-zero check vanished")

from alcove_hecke.root_datum import vec_sub

x = ext.identity
z = next(z for z in sorted(groth.projective_filtration(x).support()) if z != x)
eng.order._leq[(x.w, z.w, vec_sub(z.t, x.t))] = False
try:
    groth.projective_filtration(x)
except InvariantViolation:
    pass
else:
    raise SystemExit("projective filtration sandwich check vanished")
from fractions import Fraction
from alcove_hecke.laurent import LaurentPolynomial
from alcove_hecke.root_datum import vec_scale
from alcove_hecke.satake_char import SatakeChar
from alcove_hecke.suite import bar_invariance_solver

sat = SatakeChar(build_engine("A2_adj").datum)
sat._two_rho_vee = vec_scale(2, sat._two_rho_vee)
try:
    sat.weight_multiplicities((1, 1))
except InvariantViolation:
    pass
else:
    raise SystemExit("Freudenthal divisibility check vanished")

x = ext.parse_element("e : -2")
real_bar = hecke.bar
half = LaurentPolynomial({0: Fraction(1, 2)})
hecke.bar = lambda a: HeckeElement(
    {w: p if w == x or x not in a.support else p * half for w, p in real_bar(a).items()}
)
try:
    bar_invariance_solver(eng, x)
except InvariantViolation:
    pass
else:
    raise SystemExit("solver integrality check vanished")

hecke.bar = lambda a: HeckeElement(
    {w: p for w, p in real_bar(a).items() if x in a.support or w not in a.support}
)
try:
    bar_invariance_solver(eng, x)
except ArithmeticError:
    pass
else:
    raise SystemExit("solver equation check vanished")

order = build_engine("A1_adj").order
order._lift = lambda low: (0,)
try:
    order.leq(order.ext.identity, order.ext.translation((2,)))
except InvariantViolation:
    pass
else:
    raise SystemExit("periodic-order push check vanished")

alc = build_engine("A1_adj").alc
alc._box_coords = lambda z: (0,)
try:
    alc.res_decompose(alc.ext.identity)
except InvariantViolation:
    pass
else:
    raise SystemExit("restricted split check vanished")

from alcove_hecke import root_datum
from alcove_hecke.parabolic import make_parabolic

eng = build_engine("A1_adj")
w = eng.ext.translation((-2,))
x, lam = eng.alc.res_decompose(w)
eng.alc.res_decompose = lambda z: (x, tuple(-c for c in lam))
try:
    eng.groth.phi_of_simple(w)
except InvariantViolation:
    pass
else:
    raise SystemExit("phi_of_simple dominance check vanished")

ext = build_engine("A1_adj").ext
ext.length = lambda z: 0
try:
    make_parabolic(ext, [ext.gen_by_name("s1")])
except InvariantViolation:
    pass
else:
    raise SystemExit("unique longest element check vanished")

real_closure = root_datum._generate_root_system


def planted_closure(simple_roots, simple_coroots):
    roots, coroots, coords, coroot_coords, perms = real_closure(simple_roots, simple_coroots)
    return roots, coroots, coords, coroot_coords[:-1] + ((1, 0),), perms


root_datum._generate_root_system = planted_closure
try:
    build_engine("A2_adj")
except InvariantViolation:
    pass
else:
    raise SystemExit("coroot coordinate check vanished")
root_datum._generate_root_system = real_closure

real_search = root_datum._enumerate_weyl


def planted_search(*args):
    elements, inv, perms = real_search(*args)
    perm = list(perms[1])
    n = len(perm) // 2
    perm[0], perm[n] = perm[n], perm[0]
    return elements, inv, perms[:1] + (tuple(perm),) + perms[2:]


root_datum._enumerate_weyl = planted_search
try:
    build_engine("A2_adj")
except InvariantViolation:
    pass
else:
    raise SystemExit("length check vanished")
root_datum._enumerate_weyl = real_search

real_solve = root_datum.solve_smith
root_datum.solve_smith = lambda factors, rhs: [2 * c for c in real_solve(factors, rhs)]
try:
    build_engine("A2_adj")
except InvariantViolation:
    pass
else:
    raise SystemExit("varsigma check vanished")
root_datum.solve_smith = real_solve

import random
from alcove_hecke.ext_weyl import ExtWeyl

for name in ("A2_adj", "B2_adj"):
    ext = ExtWeyl(build_engine(name).datum)
    ext._descent_rows = tuple(ext._descent_rows[w_inv] for w_inv in ext.datum.weyl_inv)
    rng = random.Random(37)
    try:
        for _ in range(300):
            ext.bruhat_leq(ext.random_element(rng, 3), ext.random_element(rng, 3))
    except InvariantViolation:
        pass
    else:
        raise SystemExit("Bruhat walk check vanished")
print("checks raise under -O")
"""


def test_checks_survive_optimized_mode():
    # the tests directory for the element-keyed table view of `oracles`
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "checks raise under -O"
