"""Deterministic property/acceptance suite over one root-datum preset.

Every check is seeded per-name, so the report is byte-stable for a fixed
preset, seed, and bounds.  A failing check always carries a counterexample
payload with element literals and a command line that reproduces the
offending computation.  Checks are mutually independent (each builds its
state from the engine and its own seed) and could run in parallel; this
runner executes them sequentially and assembles the report in order.
"""

from __future__ import annotations

import gc
import itertools
import json
import random
import shlex
import time
from dataclasses import dataclass, field

from .engine import Engine, build_engine
from .errors import BoundsTooLarge, InvariantViolation, MalformedInput, Unrepresentable
from .ext_weyl import ExtWeylElement
from .groth_calc import COVERMA, FiltrationMultiset
from .laurent import ONE, ZERO, LaurentPolynomial
from .parabolic import in_awext, in_awext_s, min_rep
from .root_datum import PRESETS, load_root_datum, pair, vec_add, vec_neg, vec_scale

MAX_KL_LEN = 14
MAX_SAMPLES = 20000

# per preset type: the default KL length, and the parabolic cases beyond the
# empty one and the first generator
DEFAULT_KL_LEN = {"A1_adj": 12, "A2_adj": 8, "B2_adj": 6, "A1xA1_adj": 8}
_MORE_PARABOLICS = {
    "A1_adj": [["s0a"]], "A2_adj": [["s1", "s2"]], "B2_adj": [["s1", "s2"], ["s1", "s0a"]],
}


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" or "fail"
    detail: str = ""
    counterexample: dict | None = None
    duration: float = 0.0


@dataclass
class SuiteReport:
    preset: str
    seed: int
    samples: int
    kl_maxlen: int
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def to_dict(self, timings: bool = False) -> dict:
        out = {
            "preset": self.preset,
            "seed": self.seed,
            "samples": self.samples,
            "kl_maxlen": self.kl_maxlen,
            "passed": self.passed,
            "checks": [],
        }
        for c in self.checks:
            entry = {"name": c.name, "status": c.status, "detail": c.detail}
            if c.counterexample is not None:
                entry["counterexample"] = c.counterexample
            if timings:
                entry["duration_s"] = round(c.duration, 3)
            out["checks"].append(entry)
        return out

    def to_tsv(self, timings: bool = False) -> str:
        lines = []
        for c in self.checks:
            cols = [c.name, c.status, c.detail]
            if c.counterexample is not None:
                cols.append(json.dumps(c.counterexample, sort_keys=True))
            if timings:
                cols.append(f"{c.duration:.3f}")
            lines.append("\t".join(cols))
        lines.append(f"overall\t{'pass' if self.passed else 'fail'}\t")
        return "\n".join(lines) + "\n"


def _command(*args) -> str:
    """A reproducer command line, every argument shell-quoted."""
    return shlex.join(["alcove-hecke", *map(str, args)])


def _preset_type(datum) -> str | None:
    """The preset whose Cartan matrix the datum has, if any."""
    for name, spec in PRESETS.items():
        roots, coroots = spec["simple_roots"], spec["simple_coroots"]
        if datum.cartan == tuple(tuple(pair(a, c) for c in coroots) for a in roots):
            return name
    return None


class _Env:
    def __init__(self, engine: Engine | None, preset, kind, seed, samples, kl_maxlen):
        self.engine = engine
        self.preset = preset
        self.kind = kind  # the preset type of the datum, or None
        self.seed = seed
        self.samples = samples
        self.kl_maxlen = kl_maxlen
        self.shared: dict = {}

    def rng(self, name: str) -> random.Random:
        return random.Random(f"{self.seed}:{name}")

    def fmt(self, x: ExtWeylElement) -> str:
        return self.engine.ext.format_element(x)

    def cmd(self, group: str, op: str, *args) -> str:
        """The command line running `group op` on this datum; elements are formatted."""
        args = [self.fmt(a) if isinstance(a, ExtWeylElement) else a for a in args]
        return _command(group, op, "--datum", self.preset, *args)


# -- enumeration helpers ----------------------------------------------------


def antidominant_translations(engine: Engine, maxlen: int):
    d = engine.datum
    for cs in itertools.product(range(-maxlen, 1), repeat=d.rank):
        lam = d.section_lift(cs)
        if engine.ext.length(ExtWeylElement(0, lam)) <= maxlen:
            yield lam


def spherical_window(engine: Engine, maxlen: int) -> list[ExtWeylElement]:
    lams = list(antidominant_translations(engine, maxlen))
    out = set()
    for y in engine.alc.restricted_elements():
        for lam in lams:
            w = engine.ext.mul(y, ExtWeylElement(0, lam))
            if engine.ext.length(w) <= maxlen:
                out.add(w)
    return sorted(out)


def awext_window(engine: Engine, a, bound: int) -> list[ExtWeylElement]:
    out = []
    reps = [
        y for y in engine.alc.restricted_elements() if in_awext_s(engine.alc, y, a)
    ]
    for y in reps:
        for t in itertools.product(range(-bound, bound + 1), repeat=engine.datum.y_rank):
            out.append(engine.ext.mul(y, ExtWeylElement(0, t)))
    return sorted(set(out))


def _parabolic_cases(env: _Env):
    eng = env.engine
    gens = [[], [eng.ext.generators[0].name], *_MORE_PARABOLICS.get(env.kind, ())]
    return [("+".join(names) or "empty", eng.parabolic(names)) for names in gens]


# -- individual checks --------------------------------------------------------


def check_datum_invariants(env: _Env):
    eng = env.engine
    d = eng.datum
    for i, alpha_vee in enumerate(d.simple_coroots):
        if pair(d.two_rho, alpha_vee) != 2:
            return False, f"<2rho, coroot {i}> != 2", None
    # a simple reflection permutes the positive roots other than its own
    pos = set(d.positive_roots)
    for i, beta in enumerate(d.simple_roots):
        beta_vee = d.simple_coroots[i]
        image = set()
        for gamma in d.positive_roots:
            if gamma == beta:
                continue
            refl = tuple(
                g - pair(gamma, beta_vee) * b for g, b in zip(gamma, beta)
            )
            image.add(refl)
        if not image <= pos or len(image) != len(pos) - 1:
            return False, f"reflection in simple root {beta} does not permute the rest", None
    # the degrees of the fundamental invariants are 1 + the exponents, and the
    # exponents are the dual partition of the count of positive roots per height
    counts = [d.root_heights.count(k) for k in range(1, max(d.root_heights) + 1)]
    degrees = [1 + sum(1 for n in counts if n > j) for j in range(d.rank)]
    got = LaurentPolynomial()
    for el in d.weyl_elements:
        got = got + LaurentPolynomial.monomial(2 * el.length)
    want = ONE
    for deg in degrees:
        want = want * LaurentPolynomial({2 * i: 1 for i in range(deg)})
    if got != want:
        return False, f"Poincare polynomial {got} != {want}", None
    return True, f"|W|={d.weyl_order}, |R+|={len(d.positive_roots)}", None


def check_length_formula(env: _Env):
    eng = env.engine
    ext = eng.ext
    radius = 6
    dist = _waff_ball(eng, radius)
    for x, d0 in dist.items():
        if ext.length(x) != d0:
            ce = {"element": env.fmt(x), "formula": ext.length(x), "bfs": d0,
                  "command": env.cmd("wext", "len", "--elt", x)}
            return False, "length formula disagrees with Cayley-graph distance", ce
    rng = env.rng("length-formula")
    omegas = ext.omegas()
    for _ in range(env.samples):
        x = ext.random_element(rng, 4)
        word, _ = ext.reduced_expression(x)
        if len(word) != ext.length(x):
            return False, "reduced word length mismatch", {"element": env.fmt(x)}
        om = omegas[rng.randrange(len(omegas))]
        if ext.length(ext.mul(om, x)) != ext.length(x) or ext.length(ext.mul(x, om)) != ext.length(x):
            return False, "length not invariant under length-zero factors", {"element": env.fmt(x)}
        y = ext.random_element(rng, 4)
        if ext.length(ext.mul(x, y)) > ext.length(x) + ext.length(y):
            return False, "length superadditive", {"lhs": env.fmt(x), "rhs": env.fmt(y)}
    return True, f"BFS ball of radius {radius}: {len(dist)} elements", None


def check_res_complement(env: _Env):
    eng = env.engine
    ext = eng.ext
    base = ext.mul(ExtWeylElement(0, eng.datum.varsigma), ext.w0)
    total = ext.length(base)
    for x in eng.alc.restricted_elements():
        y = ext.mul(base, ext.inv(x))
        if ext.length(x) + ext.length(y) != total:
            ce = {
                "x": env.fmt(x),
                "y": env.fmt(y),
                "lengths": [ext.length(x), ext.length(y), total],
                "command": env.cmd("wext", "len", "--elt", x),
            }
            return False, "length complement identity fails", ce
    return True, f"exhaustive over {len(eng.alc.restricted_elements())} restricted elements", None


def check_lengths_add(env: _Env):
    eng = env.engine
    ext = eng.ext
    bound = min(10, env.kl_maxlen + 2)
    count = 0
    lams = list(antidominant_translations(eng, bound))
    for w in spherical_window(eng, bound):
        for lam in lams:
            t = ExtWeylElement(0, lam)
            if ext.length(ext.mul(w, t)) != ext.length(w) + ext.length(t):
                ce = {"w": env.fmt(w), "lambda": list(lam),
                      "command": env.cmd("wext", "len", "--elt", ext.mul(w, t))}
                return False, "lengths do not add", ce
            count += 1
    return True, f"exhaustive over {count} pairs (bound {bound})", None


def check_per_order_properties(env: _Env):
    eng = env.engine
    ext, order = eng.ext, eng.order
    rng = env.rng("per-order")
    target = env.samples
    gens = ext.generators
    counts = {1: 0, 2: 0, 4: 0, 5: 0}
    attempts = 0
    while min(counts.values()) < target and attempts < 400 * target:
        attempts += 1
        y = ext.random_element(rng, 2)
        g = gens[rng.randrange(len(gens))]
        sy = ext.mul(ext.gen_element(g), y)
        ce = {"y": env.fmt(y), "gen": g.name,
              "command": env.cmd("wext", "porder", "--lhs", sy, "--rhs", y)}
        if counts[1] < target:
            if not (order.leq(sy, y) or order.leq(y, sy)):
                return False, "part 1: neither sy nor y is below the other", ce
            counts[1] += 1
        # a partner biased toward comparability: stay in one affine coset
        word = [gens[rng.randrange(len(gens))] for _ in range(rng.randrange(3))]
        y2 = ext.mul(ext.word_to_element(word), y)
        if rng.randrange(2):
            shift = eng.datum.simple_coroots[rng.randrange(eng.datum.rank)]
            y2 = ext.mul(y2, ExtWeylElement(0, vec_scale(rng.randint(-1, 1), shift)))
        ce["y2"] = env.fmt(y2)
        if counts[2] < target:
            mu = tuple(rng.randint(-2, 2) for _ in range(eng.datum.y_rank))
            tmu = ExtWeylElement(0, mu)
            if order.leq(y, y2) != order.leq(ext.mul(y, tmu), ext.mul(y2, tmu)):
                return False, "part 2: order not translation invariant", ce
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
            if not (order.leq(sa, b) and order.leq(sa, sb)):
                return False, "part 4: descent compatibility fails", ce
            counts[4] += 1
        if counts[5] < target and order.leq(b, sb):
            if not (order.leq(a, sb) and order.leq(sa, sb)):
                return False, "part 5: ascent compatibility fails", ce
            counts[5] += 1
    if min(counts.values()) < target:
        return False, f"could not collect {target} instances per part", None
    # part 3: on the spherical window the periodic order is the Bruhat order
    window = spherical_window(eng, min(6, env.kl_maxlen))
    for x in window:
        for y in window:
            if order.leq(x, y) != ext.bruhat_leq(x, y):
                return False, "part 3: orders disagree on W_ext^S", {
                    "lhs": env.fmt(x), "rhs": env.fmt(y)}
    return True, f"{target} instances per part; part 3 on {len(window)} elements", None


def check_per_order_lambda_independence(env: _Env):
    eng = env.engine
    ext = eng.ext
    rng = env.rng("lambda-independence")
    for _ in range(200):
        x = ext.random_element(rng, 3)
        y = ext.random_element(rng, 3)
        # two different admissible pushdowns
        npush = max(eng.order._push_steps(x), eng.order._push_steps(y))
        results = []
        for extra in (0, 1, 3):
            push = ExtWeylElement(0, vec_scale(-(npush + extra), eng.datum.varsigma))
            xs, ys = ext.mul(x, push), ext.mul(y, push)
            if not (eng.alc.in_wexts(xs) and eng.alc.in_wexts(ys)):
                return False, "pushdown landed outside W_ext^S", {"lhs": env.fmt(x)}
            results.append(ext.bruhat_leq(xs, ys))
        # the order's own smallest common push is one more pushdown
        results.append(eng.order.leq(x, y))
        if len(set(results)) != 1:
            return False, "comparison depends on the pushdown", {
                "lhs": env.fmt(x), "rhs": env.fmt(y),
                "command": env.cmd("wext", "porder", "--lhs", x, "--rhs", y)}
    return True, "200 random pairs, three pushdowns each", None


def check_per_order_weights(env: _Env):
    eng = env.engine
    ext, d = eng.ext, eng.datum
    rng = env.rng("per-order-weights")
    w0 = d.w0
    restricted = eng.alc.restricted_elements()
    for _ in range(min(200, env.samples)):
        y = rng.choice(restricted)
        nu = tuple(rng.randint(-2, 2) for _ in range(d.y_rank))
        mu = nu
        for cv in d.positive_coroots:
            mu = vec_add(mu, vec_scale(rng.randint(0, 1), cv))
        lhs = ext.mul(y, ExtWeylElement(0, d.act_y(w0, nu)))
        rhs = ext.mul(y, ExtWeylElement(0, d.act_y(w0, mu)))
        if not eng.order.leq(lhs, rhs):
            return False, "dominance-order monotonicity fails", {
                "lhs": env.fmt(lhs), "rhs": env.fmt(rhs),
                "command": env.cmd("wext", "porder", "--lhs", lhs, "--rhs", rhs)}
    return True, "random dominance steps from restricted elements", None


def check_bruhat_order(env: _Env):
    eng = env.engine
    ext = eng.ext
    rng = env.rng("bruhat")
    # members of each lower set come from a stream of their own, drawn from
    # the sorted set, so they depend on the seed only
    members = env.rng("bruhat-lower")
    # the lifting walk (descent bits) vs the subword closure (row products)
    for _ in range(min(300, env.samples)):
        x = ext.random_element(rng, 2)
        lower = ext.bruhat_lower_set(x)
        sample = [ext.random_element(rng, 2) for _ in range(10)]
        sample += members.sample(sorted(lower), min(10, len(lower)))
        for y in sample:
            if ext.bruhat_leq(y, x) != (y in lower):
                return False, "lifting recursion disagrees with subword test", {
                    "lhs": env.fmt(y), "rhs": env.fmt(x),
                    "command": env.cmd("wext", "bruhat", "--lhs", y, "--rhs", x)}
    # antisymmetry and transitivity on a small window
    window = spherical_window(eng, 4)
    for x in window:
        for y in window:
            if ext.bruhat_leq(x, y) and ext.bruhat_leq(y, x) and x != y:
                return False, "antisymmetry fails", {"lhs": env.fmt(x), "rhs": env.fmt(y)}
    for _ in range(300):
        x, y, z = (window[rng.randrange(len(window))] for _ in range(3))
        if ext.bruhat_leq(x, y) and ext.bruhat_leq(y, z) and not ext.bruhat_leq(x, z):
            return False, "transitivity fails", {"lhs": env.fmt(x), "rhs": env.fmt(z)}
    return True, "subword cross-check plus order axioms", None


def check_awext_representatives(env: _Env):
    eng = env.engine
    ext = eng.ext
    for label, a in _parabolic_cases(env):
        seen = set()
        rng = env.rng(f"awext-{label}")
        for _ in range(500):
            x = ext.random_element(rng, 3)
            key = frozenset(ext.mul(v, x) for v in a.elements)
            if key in seen:
                continue
            seen.add(key)
            try:
                rep = min_rep(eng.alc, x, a)
            except Unrepresentable as exc:
                gens = ("--gens", ",".join(g.name for g in a.generators)) if a.generators else ()
                return False, f"A={label}: {exc}", {
                    "element": env.fmt(x),
                    "command": env.cmd("parabolic", "rep", *gens, "--elt", x)}
            for v in a.elements:
                if min_rep(eng.alc, ext.mul(v, x), a) != rep:
                    return False, f"A={label}: representative not coset-constant", {
                        "element": env.fmt(x)}
    return True, "unique representative on all sampled cosets", None


def check_tri_bijection(env: _Env):
    eng = env.engine
    ext, alc = eng.ext, eng.alc
    for label, a in _parabolic_cases(env):
        window = awext_window(eng, a, 2)
        image = {}
        for w in window:
            target = ext.mul(a.longest, alc.triangle(w))
            if not in_awext(alc, w, a):
                return False, f"A={label}: window element outside the representative set", {
                    "element": env.fmt(w)}
            if not in_awext(alc, target, a):
                return False, f"A={label}: image leaves the representative set", {
                    "element": env.fmt(w)}
            if target in image:
                return False, f"A={label}: map not injective", {
                    "element": env.fmt(w), "other": env.fmt(image[target])}
            image[target] = w
        # pointwise surjectivity: invert through the triangle inverse
        for v in window:
            w = alc.triangle_inverse(ext.mul(a.longest, v))
            if not in_awext(alc, w, a) or ext.mul(a.longest, alc.triangle(w)) != v:
                return False, f"A={label}: inversion fails", {
                    "element": env.fmt(v),
                    "command": env.cmd("wext", "triangle", "--elt", w)}
    return True, "bijection verified pointwise on translation windows", None


def check_triangle_geometry(env: _Env):
    eng = env.engine
    ext, alc = eng.ext, eng.alc
    rng = env.rng("triangle")
    lw0 = ext.length(ext.w0)
    for _ in range(env.samples):
        x = ext.random_element(rng, 4)
        tri = alc.triangle(x)
        if alc.triangle_inverse(tri) != x:
            return False, "triangle round trip fails", {"element": env.fmt(x)}
        if (ext.length(x) + ext.length(tri) + lw0) % 2 != 0:
            return False, "parity of the length sum fails", {"element": env.fmt(x)}
        lam = tuple(rng.randint(-2, 2) for _ in range(eng.datum.y_rank))
        if alc.triangle(ext.mul(x, ExtWeylElement(0, lam))) != ext.mul(tri, ExtWeylElement(0, lam)):
            return False, "triangle does not commute with translations", {"element": env.fmt(x)}
        if alc.in_wexts(x) and not alc.in_wexts(tri):
            return False, "triangle leaves W_ext^S", {"element": env.fmt(x)}
    # the complement element sends x to t_varsigma w0 and the triangle to its twist
    base = ext.mul(ExtWeylElement(0, eng.datum.varsigma), ext.w0)
    top = ExtWeylElement(0, eng.datum.act_y(eng.datum.w0, eng.datum.varsigma))
    for x in alc.restricted_elements():
        y = ext.mul(base, ext.inv(x))
        if ext.mul(y, x) != base:
            return False, "complement product is off", {"element": env.fmt(x)}
        if ext.mul(y, alc.triangle(x)) != top:
            return False, "complement does not send the triangle to the twist", {
                "element": env.fmt(x)}
        if ext.length(ext.mul(y, alc.triangle(x))) != ext.length(alc.triangle(x)) - ext.length(y):
            return False, "triangle length drop is off", {"element": env.fmt(x)}
    return True, "round trips, parity, translation equivariance, complements", None


def check_kl_dihedral(env: _Env):
    if env.kind != "A1_adj":
        return True, "dihedral closed form is specific to A1_adj; skipped", None
    eng = env.engine
    ext, hecke = eng.ext, eng.hecke
    maxlen = min(10, env.kl_maxlen)
    checked = 0
    for x in sorted(_waff_ball(eng, maxlen)):
        table = hecke.kl_basis(x)
        for y, p in table.items():
            want = LaurentPolynomial.monomial(ext.length(x) - ext.length(y))
            if p != want:
                return False, "closed form fails", {
                    "x": env.fmt(x), "y": env.fmt(y), "got": str(p),
                    "command": env.cmd("hecke", "kl", "--x", y, "--y", x)}
        if ext.length(x) <= 6:
            solved = bar_invariance_solver(eng, x)
            if solved != {y: p for y, p in table.items()}:
                return False, "bar-invariance solver disagrees", {"x": env.fmt(x)}
        checked += 1
    return True, f"{checked} elements against closed form (solver to length 6)", None


def _waff_ball(engine: Engine, radius: int) -> dict[ExtWeylElement, int]:
    """Cayley-graph distance from the identity, for every element of W_aff
    within `radius` steps, in breadth-first order."""
    ext = engine.ext
    dist = {ext.identity: 0}
    frontier = [ext.identity]
    for step in range(1, radius + 1):
        nxt = []
        for x in frontier:
            for g in ext.generators:
                y = ext.mul(ext.gen_element(g), x)
                if y not in dist:
                    dist[y] = step
                    nxt.append(y)
        frontier = nxt
    return dist


def bar_invariance_solver(engine: Engine, x: ExtWeylElement):
    """Solve the defining conditions of the canonical basis directly.

    The unknowns are the polynomials c_y in v*Z[v], for y < x, of
    u = H_x + sum c_y H_y with bar(u) = u.  Since bar(H_y) is H_y plus
    shorter terms, they are found by back-substitution in order of decreasing
    length (Kazhdan-Lusztig 1979): c_y is minus the bar of the negative-degree
    part of the coefficient at H_y of the running raw sum
    bar(H_x) + sum bar(c_y') bar(H_y') over the longer y' already solved.
    Every equation of bar(u) = u, at every element and every exponent, is
    checked at the end (`ArithmeticError` when one fails), and a
    non-integral coefficient raises `InvariantViolation`.  Each bar(H_y) comes
    from `HeckeAlgebra.bar`, so this is independent of the canonical-basis
    recursion and valid over any preset.
    """
    ext, hecke = engine.ext, engine.hecke
    fmt = ext.format_element
    lower = sorted(ext.bruhat_lower_set(x) - {x}, key=lambda z: (-ext.length(z), z))
    total = {z: dict(p.coeffs) for z, p in hecke.bar(hecke.standard(x)).items()}
    u = {x: {0: 1}}  # the raw coefficients of u found so far
    for y in lower:
        c = {}
        for k, a in total.get(y, {}).items():
            if k < 0 and a:
                if a.denominator != 1:
                    raise InvariantViolation(
                        f"non-integral coefficient {-a} of v^{-k} in c_y, y = {fmt(y)}, in the solver")
                c[-k] = -int(a)
        u[y] = c
        for z, p in hecke.bar(hecke.standard(y)).items():
            acc = total.setdefault(z, {})
            for k, a in c.items():
                for j, b in p.coeffs.items():
                    acc[j - k] = acc.get(j - k, 0) + a * b
    for y, c in u.items():
        acc = total.setdefault(y, {})
        for k, a in c.items():
            acc[k] = acc.get(k, 0) - a
    for z, acc in total.items():
        for k, a in acc.items():
            if a:
                raise ArithmeticError(f"bar(u) - u has {a} at v^{k} H_{fmt(z)} for x = {fmt(x)}")
    return {y: LaurentPolynomial(c) for y, c in u.items() if c}


def _negative_coefficient(env: _Env, x: ExtWeylElement, table):
    """A failure naming x if its canonical element has a negative coefficient,
    which can only be a fault (Kazhdan-Lusztig 1980: they are nonnegative)."""
    for y, p in table.items():
        if any(c < 0 for c in p.coeffs.values()):
            return False, "negative Kazhdan-Lusztig coefficient", {
                "element": env.fmt(x), "label": env.fmt(y), "polynomial": str(p),
                "command": env.cmd("hecke", "kl", "--x", y, "--y", x)}


def check_kl_invariance(env: _Env):
    eng = env.engine
    ext, hecke = eng.ext, eng.hecke
    rng = env.rng("kl-bar")
    solver_hits = 0
    solved = set()
    omegas = ext.omegas()
    for _ in range(min(40, env.samples)):
        x = ext.random_element(rng, 3)
        table = hecke.kl_basis(x)
        if failure := _negative_coefficient(env, x, table):
            return failure
        if hecke.bar(table) != table:
            return False, "canonical basis element is not bar invariant", {
                "element": env.fmt(x)}
        om = omegas[rng.randrange(len(omegas))]
        shifted = hecke.kl_basis(ext.mul(om, x))
        if {ext.mul(om, y): p for y, p in table.items()} != dict(shifted.items()):
            return False, "length-zero relabeling fails", {"element": env.fmt(x)}
        # independent cross-check: re-derive the element from bar invariance
        if solver_hits < 3 and 2 <= ext.length(x) <= 5:
            if bar_invariance_solver(eng, x) != dict(table.items()):
                return False, "bar-invariance solver disagrees", {"element": env.fmt(x)}
            solver_hits += 1
            solved.add(x)
    # few draws are that short on rank-3 and G2 data: top up from the Cayley
    # ball, where the distance from the identity is the length
    if solver_hits < 3:
        ball = _waff_ball(eng, 5)
        short = sorted(x for x, d in ball.items() if d >= 2 and x not in solved)
        for x in rng.sample(short, min(3 - solver_hits, len(short))):
            table = hecke.kl_basis(x)
            if failure := _negative_coefficient(env, x, table):
                return failure
            if bar_invariance_solver(eng, x) != dict(table.items()):
                return False, "bar-invariance solver disagrees", {"element": env.fmt(x)}
            solver_hits += 1
    return True, f"all computed coefficients nonnegative; solver cross-check on {solver_hits} elements", None


def check_spherical_identities(env: _Env):
    eng = env.engine
    ext, hecke = eng.ext, eng.hecke
    window = spherical_window(eng, min(4, env.kl_maxlen))
    # matrix identity on one interval: the inverse family m^{x,z} against the
    # canonical elements N_z
    x = window[-1]
    lower = hecke.spherical_lower_set(x)
    # m^{x,z}, its sign (-1)^{len(z) + len(x)} and N_z, once per z
    rows = [(hecke.inverse_m(x, z), (ext.length(z) + ext.length(x)) % 2, hecke.spherical_basis(z))
            for z in lower]
    for y in lower:
        acc = ZERO
        for imz, odd, nz in rows:
            mz = nz.get(y, ZERO)
            if imz and mz:
                term = imz * mz
                acc = acc + (-term if odd else term)
        want = ONE if y == x else ZERO
        if acc != want:
            return False, "inverse matrix identity fails", {
                "x": env.fmt(x), "y": env.fmt(y),
                "command": env.cmd("hecke", "inverse-m", "--x", x, "--y", y)}
    # zeta: C_{w w0} = sum_y mbar(y, w) H_y C_{w0} = sum_{y, u} mbar(y, w)
    # h(u, w0) H_{y u} over u in W, as lengths add in y u for y in W_ext^S;
    # the y u are distinct, so every coefficient of the full-group C_{w w0}
    # is compared, and its support
    longest = hecke.kl_basis(ext.w0).support
    for w in window:
        top = ext.mul(w, ext.w0)
        got = {ext.mul(y, u): m * h
               for y, m in hecke.spherical_basis(w).items() for u, h in longest.items()}
        want = dict(hecke.kl_basis(top).items())
        if got != want:
            z = min(z for z in got.keys() | want.keys() if got.get(z) != want.get(z))
            return False, "zeta compatibility fails", {
                "w": env.fmt(w), "label": env.fmt(z),
                "got": str(got.get(z, ZERO)), "want": str(want.get(z, ZERO)),
                "command": env.cmd("hecke", "kl", "--x", z, "--y", top)}
    shown = window[min(3, len(window) - 1)]  # one element named, for byte-stable reports
    return True, f"matrix identity on {len(lower)} labels; zeta at {env.fmt(shown)}", None


def check_m_triangle(env: _Env):
    eng = env.engine
    ext, alc, hecke = eng.ext, eng.alc, eng.hecke
    lw0 = ext.length(ext.w0)
    want = LaurentPolynomial.monomial(lw0)
    values = {}
    for w in spherical_window(eng, env.kl_maxlen):
        tri = alc.triangle(w)
        got = hecke.inverse_m(tri, w)
        values[w] = (got, tri)
        if got != want:
            return False, "inverse polynomial is not v^{len(w0)}", {
                "w": env.fmt(w), "triangle": env.fmt(tri), "got": str(got),
                "command": env.cmd("hecke", "inverse-m", "--x", tri, "--y", w)}
    env.shared["mtriangle"] = values
    return True, f"exact on {len(values)} elements up to length {env.kl_maxlen}", None


def check_mult_triangle(env: _Env):
    eng = env.engine
    ext = eng.ext
    lw0 = ext.length(ext.w0)
    values = env.shared.get("mtriangle")
    if values is None:
        ok, detail, ce = check_m_triangle(env)
        if not ok:
            return ok, detail, ce
        values = env.shared["mtriangle"]
    for w, (poly, tri) in values.items():
        sign = -1 if (ext.length(w) + ext.length(tri)) % 2 else 1
        if sign * poly.evaluate(-1) != 1:
            return False, "signed evaluation at v=-1 is not 1", {
                "w": env.fmt(w), "triangle": env.fmt(tri)}
        if (ext.length(w) + ext.length(tri) + lw0) % 2 != 0:
            return False, "length parity fails", {"w": env.fmt(w)}
    return True, f"exact on {len(values)} elements", None


def check_proj_filtration(env: _Env):
    eng = env.engine
    ext, groth = eng.ext, eng.groth
    base = ext.mul(ExtWeylElement(0, eng.datum.varsigma), ext.w0)
    restricted = eng.alc.restricted_elements()
    several = differ = 0
    for x in restricted:
        y = ext.mul(base, ext.inv(x))
        # the multiset belongs to the word: the max word is checked where it
        # differs from the min word, that is where y has several reduced words
        both = ext.reduced_expression(y, "max") != ext.reduced_expression(y, "min")
        filts = []
        for strategy in ("min", "max") if both else ("min",):
            ce = {"element": env.fmt(x), "command": env.cmd(
                "groth", "proj-filtration", "--elt", x, "--strategy", strategy)}
            try:
                filts.append(groth.projective_filtration(x, strategy))  # endpoints, sandwich
            except InvariantViolation as exc:
                return False, f"{strategy} word: {exc}", ce
            if filts[-1].total() != eng.datum.weyl_order * 2 ** ext.length(y):
                return False, "total multiplicity is off", {**ce, "total": filts[-1].total()}
        several += both
        differ += filts[0].mults != filts[-1].mults
    return True, (f"exhaustive over {len(restricted)} restricted elements; {several} with more"
                  f" than one reduced word, {differ} whose min and max multisets differ"), None


def check_whittaker_compat(env: _Env):
    eng = env.engine
    ext, alc, groth, order = eng.ext, eng.alc, eng.groth, eng.order
    for label, a in _parabolic_cases(env):
        if not a.generators:
            continue
        for x in alc.restricted_elements():
            base = groth.projective_filtration(x)
            filt = groth.av_psi(base, a)
            bottom = min_rep(alc, x, a)
            top = min_rep(alc, alc.triangle(x), a)
            if filt.mult(bottom) == 0 or filt.mult(top) == 0:
                return False, f"A={label}: endpoint labels missing", {
                    "element": env.fmt(x),
                    "command": env.cmd("groth", "proj-filtration", "--elt", x)}
            # collapsing rule: output multiplicity is the coset sum of inputs
            for z in filt.support():
                if filt.mult(z) != sum(base.mult(ext.mul(v, z)) for v in a.elements):
                    return False, f"A={label}: coset-sum rule fails", {
                        "element": env.fmt(x), "label": env.fmt(z)}
                if not (order.leq(bottom, z) and order.leq(z, top)):
                    return False, f"A={label}: support escapes the sandwich", {
                        "element": env.fmt(x), "label": env.fmt(z)}
        # averaging composition: spread-after-collapse covers cosets
        rng = env.rng(f"whittaker-{label}")
        for _ in range(50):
            w = min_rep(alc, ext.random_element(rng, 2), a)
            f = FiltrationMultiset({w: 1}, COVERMA)
            spread = groth.av_star(f, a)
            if spread.total() != a.order or set(spread.support()) != {
                ext.mul(v, w) for v in a.elements
            }:
                return False, f"A={label}: averaging composition fails", {
                    "element": env.fmt(w)}
    return True, "endpoints, sandwich, and averaging composition", None


def check_freudenthal_kostant(env: _Env):
    eng = env.engine
    d, sat = eng.datum, eng.satake
    bound = 3 if d.rank > 1 else 6
    count = 0
    for cs in itertools.product(range(bound + 1), repeat=d.rank):
        mu = d.section_lift(cs)
        wm = sat.weight_multiplicities(mu)
        if wm.total() != sat.weyl_dimension(mu):
            return False, "dimension formula mismatch", {
                "mu": list(mu),
                "command": env.cmd("satake", "char", "--mu", ",".join(map(str, mu)))}
        for nu, m in wm.items():
            if sat.kostant_multiplicity(mu, nu) != m:
                return False, "Kostant oracle disagrees", {"mu": list(mu), "nu": list(nu)}
        count += 1
    return True, f"exhaustive agreement on {count} dominant weights", None


def check_phi_order(env: _Env):
    eng = env.engine
    ext, groth, order = eng.ext, eng.groth, eng.order
    rng = env.rng("phi-order")
    window = spherical_window(eng, min(6, env.kl_maxlen))
    for _ in range(min(60, env.samples)):
        w = window[rng.randrange(len(window))]
        cv = groth.phi_of_simple(w)
        _, lam = eng.alc.res_decompose(w)
        mu = eng.datum.act_y(eng.datum.w0, lam)
        if cv.total() != eng.satake.weyl_dimension(mu):
            return False, "class total does not match the module dimension", {
                "element": env.fmt(w),
                "command": env.cmd("groth", "phi-simple", "--elt", w)}
        for label in cv.coords:
            if not order.leq(groth.label_element(label), w):
                return False, "output label not below the input", {
                    "element": env.fmt(w), "label": env.fmt(groth.label_element(label))}
    return True, "labels below the input, totals match dimensions", None


def check_groth_basics(env: _Env):
    eng = env.engine
    ext, groth = eng.ext, eng.groth
    seed = groth.seed_filtration()
    if seed.total() != eng.datum.weyl_order or len(seed.support()) != eng.datum.weyl_order:
        return False, "seed filtration has wrong cardinality", None
    g = ext.generators[0]
    doubled = groth.xi_s(seed, g)
    if doubled.total() != 2 * seed.total():
        return False, "wall-crossing does not double the total", None
    omegas = ext.omegas()
    if groth.xi_omega(seed, ext.identity).mults != seed.mults:
        return False, "identity relabeling is not the identity", None
    rng = env.rng("groth-basics")
    for _ in range(50):
        x = ext.random_element(rng, 3)
        nu = tuple(rng.randint(-2, 2) for _ in range(eng.datum.y_rank))
        f = FiltrationMultiset({x: 1}, COVERMA)
        round_trip = groth.grading_shift(groth.grading_shift(f, nu), vec_neg(nu))
        if round_trip.mults != f.mults:
            return False, "grading shift is not invertible", None
        if groth.duality(groth.duality(f)) != f:
            return False, "duality is not an involution", None
        lbl = groth.simple_label(x)
        if groth.label_element(lbl) != x:
            return False, "canonical split does not reassemble", {"element": env.fmt(x)}
        # right translations are absorbed by the class
        if groth.forget_grading(ext.mul(x, ExtWeylElement(0, nu))) != groth.forget_grading(x):
            return False, "forget-grading not shift absorbing", {"element": env.fmt(x)}
    om = omegas[-1]
    relabeled = groth.xi_omega(seed, om)
    if sorted(relabeled.support()) != sorted(ext.mul(om, w) for w in seed.support()):
        return False, "length-zero relabeling is off", None
    return True, "seed, wall-crossing, shifts, duality, labels", None


CHECKS = [
    ("datum-invariants", check_datum_invariants),
    ("length-formula", check_length_formula),
    ("res-complement", check_res_complement),
    ("lengths-add", check_lengths_add),
    ("bruhat-order", check_bruhat_order),
    ("per-order-properties", check_per_order_properties),
    ("per-order-lambda-independence", check_per_order_lambda_independence),
    ("per-order-weights", check_per_order_weights),
    ("awext-representatives", check_awext_representatives),
    ("tri-bijection", check_tri_bijection),
    ("triangle-geometry", check_triangle_geometry),
    ("kl-dihedral", check_kl_dihedral),
    ("kl-bar-invariance", check_kl_invariance),
    ("spherical-identities", check_spherical_identities),
    ("m-triangle", check_m_triangle),
    ("mult-triangle", check_mult_triangle),
    ("proj-filtration", check_proj_filtration),
    ("whittaker-compat", check_whittaker_compat),
    ("freudenthal-kostant", check_freudenthal_kostant),
    ("phi-order", check_phi_order),
    ("groth-basics", check_groth_basics),
]


def run_suite(
    preset: str,
    *,
    seed: int = 0,
    samples: int = 500,
    kl_maxlen: int | None = None,
    names: list[str] | None = None,
) -> SuiteReport:
    if not isinstance(preset, str):
        # failure payloads quote the preset as a command-line argument
        raise MalformedInput(
            f"run_suite takes a preset name or a JSON path, not a {type(preset).__name__}"
        )
    unknown = sorted(set(names or ()) - {name for name, _ in CHECKS})
    if unknown:
        raise MalformedInput(f"unknown suite checks {unknown}")
    # the per-datum choices follow the type, so a file naming a preset or
    # writing out its roots runs as that preset does
    datum = load_root_datum(preset)
    kind = _preset_type(datum)
    if kl_maxlen is None:
        kl_maxlen = DEFAULT_KL_LEN.get(kind, 6)
    if kl_maxlen < 0 or samples < 0:
        raise MalformedInput(f"negative bound: kl_maxlen {kl_maxlen}, samples {samples}")
    if kl_maxlen > MAX_KL_LEN:
        raise BoundsTooLarge(f"kl_maxlen {kl_maxlen} > {MAX_KL_LEN}")
    if samples > MAX_SAMPLES:
        raise BoundsTooLarge(f"samples {samples} > {MAX_SAMPLES}")
    env = _Env(None, preset, kind, seed, samples, kl_maxlen)
    report = SuiteReport(preset, seed, samples, kl_maxlen)
    for name, fn in CHECKS:
        if names is not None and name not in names:
            continue
        if env.engine is None:
            env.engine = build_engine(datum)
        start = time.monotonic()
        crashed = False
        try:
            ok, detail, ce = fn(env)
        except Exception as exc:  # a crashing check is a failing check
            ok, detail, ce, crashed = False, f"exception: {exc!r}", None, True
        if not ok:
            ce = dict(ce or {})
            ce.setdefault("command", _command(
                "suite", "run", "--preset", preset, "--seed", seed, "--samples", samples,
                "--maxlen", kl_maxlen,
            ))
        report.checks.append(
            CheckResult(
                name=name,
                status="pass" if ok else "fail",
                detail=detail,
                counterexample=ce,
                duration=time.monotonic() - start,
            )
        )
        if crashed:
            # a check that raised fails alone: its engine goes, with whatever
            # its tables hold (all the memory, after a MemoryError), and so do
            # the values shared between checks; the next check builds afresh
            env.engine = None
            env.shared.clear()
            gc.collect()  # the engine's tables form reference cycles
    return report
