"""The benchmark's three workloads: their data, seeded inputs and checked items.

A workload is a list of (datum, items).  Inputs are generated outside the
timed phase, from the run's seed and an engine built only for that purpose;
the timed phase then hands each item, one after the other, to an engine
built fresh for the pass.  ``run`` returns whether the item passed its exact
check and, for items whose answer does not depend on the seed, the text that
goes into the datum's answer digest.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path
from typing import NamedTuple

from alcove_hecke import LaurentPolynomial
from alcove_hecke.ext_weyl import ExtWeylElement
from alcove_hecke.laurent import ONE
from alcove_hecke.suite import bar_invariance_solver, spherical_window

DATA_DIR = Path(__file__).resolve().parent / "data"


def descriptor(datum: str) -> dict:
    """Root-datum descriptor: a preset, or a JSON file under data/."""
    path = DATA_DIR / f"{datum}.json"
    if path.exists():
        return json.loads(path.read_text(encoding="utf-8"))
    return {"preset": datum}


class Item(NamedTuple):
    arg: object
    anchored: bool  # the answer is seed-independent and enters the digest


def _fmt(eng, x: ExtWeylElement) -> str:
    return eng.ext.format_element(x)


def _translation_shift(eng, x: ExtWeylElement, n: int) -> ExtWeylElement:
    d = eng.datum
    return eng.ext.mul(x, eng.ext.translation(tuple(-n * c for c in d.varsigma)))


class MTriangleSweep:
    """m^{triangle(w), w} = v^{len(w0)} over the spherical window, per datum."""

    name = "mtriangle_sweep"
    sizes = {
        "full": [("A2_adj", 14), ("B2_adj", 14), ("G2", 4)],
        "smoke": [("A2_adj", 4), ("B2_adj", 3)],
    }

    def inputs(self, eng, datum, param, seed):
        # the window is fixed by the datum and length bound; the seed is unused
        return [Item(w, True) for w in spherical_window(eng, param)]

    def begin(self, eng):
        return LaurentPolynomial.monomial(eng.ext.length(eng.ext.w0))

    def run(self, eng, want, w):
        tri = eng.alc.triangle(w)
        got = eng.hecke.inverse_m(tri, w)
        return got == want, f"{_fmt(eng, tri)}\t{_fmt(eng, w)}\t{got}"


class KLBarVerify:
    """Canonical basis elements checked against their defining property."""

    name = "kl_bar_verify"
    COORD_BOUND = 3
    SOLVER_LENGTHS = (4, 5)  # per datum, re-derived by the bar-invariance solver
    ANCHORS = 2  # per datum, from a fixed stream, in the answer digest
    # datum -> (length, elements of that length).  One length per datum keeps
    # the elements of a datum alike in cost (bar roughly doubles per length
    # step), so that the latency percentiles fall inside a datum's cluster
    # rather than on a step between lengths, where they would jump with the seed.
    sizes = {
        "full": [("A1xA1_adj", (5, 20)), ("A2_adj", (8, 20)), ("B2_adj", (10, 20))],
        "smoke": [("A1xA1_adj", (3, 3)), ("A2_adj", (4, 3))],
    }

    def _draw(self, eng, rng, length, taken):
        """An element of the given length not drawn before: a Weyl index and a
        translation in [-3, 3]^n, redrawn until the length matches."""
        d, b = eng.datum, self.COORD_BOUND
        for _ in range(200_000):
            x = ExtWeylElement(
                rng.randrange(d.weyl_order), tuple(rng.randint(-b, b) for _ in range(d.y_rank))
            )
            if eng.ext.length(x) == length and x not in taken:
                taken.add(x)
                return x
        raise RuntimeError(f"length {length} not reachable with coordinates in [-{b}, {b}]")

    def inputs(self, eng, datum, param, seed):
        length, count = param
        taken: set = set()
        fixed, rng = random.Random(f"anchor:{datum}"), random.Random(f"{seed}:{datum}")
        solve = [self._draw(eng, fixed, n, taken) for n in self.SOLVER_LENGTHS]
        anchors = [self._draw(eng, fixed, length, taken) for _ in range(self.ANCHORS)]
        drawn = [self._draw(eng, rng, length, taken) for _ in range(count - self.ANCHORS)]
        return (
            [Item((x, True), True) for x in solve]
            + [Item((x, False), True) for x in anchors]
            + [Item((x, False), False) for x in drawn]
        )

    def begin(self, eng):
        return None

    def run(self, eng, ctx, arg):
        x, solve = arg
        hecke = eng.hecke
        c = hecke.kl_basis(x)
        ok = (
            hecke.bar(c) == c
            and c.coeff(x) == ONE
            and all(w == x or p.min_exponent() >= 1 for w, p in c.items())
        )
        if solve:
            ok = ok and bar_invariance_solver(eng, x) == dict(c.items())
        terms = ";".join(f"{_fmt(eng, w)}={p}" for w, p in sorted(c.items()))
        return ok, f"{_fmt(eng, x)}\t{terms}"


class OrderFiltration:
    """Periodic order, projective filtrations, averaging and characters."""

    name = "order_filtration"
    LEQ_BOUND = 3
    CROSS_CHECKS = 3  # per datum: leq pairs re-decided by the subword test
    CROSS_MAXLEN = 14
    KOSTANT_WEIGHTS = 2  # per dominant coweight, for the first few of them
    KOSTANT_MUS = 4
    # datum -> (leq pairs, phi window length, Freudenthal box bound)
    sizes = {
        "full": [
            ("A2_adj", (300, 6, 4)),
            ("B2_adj", (300, 6, 4)),
            ("A1xA1_adj", (300, 6, 4)),
            ("G2", (300, 6, 3)),
            ("A3", (300, 6, 2)),
        ],
        "smoke": [("A1xA1_adj", (20, 3, 2)), ("A2_adj", (20, 3, 1))],
    }

    def inputs(self, eng, datum, param, seed):
        pairs, phi_len, box = param
        d = eng.datum
        rng = random.Random(f"{seed}:{datum}")
        items = [Item(("filt", x), True) for x in eng.alc.restricted_elements()]
        b = self.LEQ_BOUND
        for _ in range(pairs):
            x, y = (
                ExtWeylElement(
                    rng.randrange(d.weyl_order),
                    tuple(rng.randint(-b, b) for _ in range(d.y_rank)),
                )
                for _ in range(2)
            )
            items.append(Item(("leq", (x, y)), False))
        items += [Item(("phi", w), True) for w in spherical_window(eng, phi_len)]
        for k, cs in enumerate(itertools.product(range(box + 1), repeat=d.rank)):
            picks = [rng.randrange(10**6) for _ in range(self.KOSTANT_WEIGHTS)]
            items.append(Item(("char", (d.section_lift(cs), picks if k < self.KOSTANT_MUS else [])), True))
        return items

    def begin(self, eng):
        ext, d = eng.ext, eng.datum
        return {
            "parabolic": eng.parabolic([ext.generators[0].name]),
            "base": ext.mul(ext.translation(d.varsigma), ext.w0),
            "cross_left": self.CROSS_CHECKS,
        }

    def run(self, eng, ctx, arg):
        kind, payload = arg
        return getattr(self, f"_{kind}")(eng, ctx, payload)

    def _filt(self, eng, ctx, x):
        ext, groth, order = eng.ext, eng.groth, eng.order
        fmin = groth.projective_filtration(x, "min")
        fmax = groth.projective_filtration(x, "max")
        tri = eng.alc.triangle(x)
        top_len = ext.length(ext.mul(ctx["base"], ext.inv(x)))
        # endpoints and sandwich re-checked here: the library's own checks
        # are asserts, which python -O removes
        ok = (
            fmin.mults == fmax.mults
            and fmin.total() == eng.datum.weyl_order * 2**top_len
            and fmin.mult(x) == 1
            and fmin.mult(tri) == 1
            and all(order.leq(x, z) and order.leq(z, tri) for z in fmin.support())
        )
        a = ctx["parabolic"]
        psi = groth.av_psi(fmin, a)
        star = groth.av_star(psi, a)
        ok = ok and psi.total() == fmin.total() and star.total() == a.order * psi.total()
        parts = [
            ",".join(f"{_fmt(eng, w)}*{m}" for w, m in f.items()) for f in (fmin, psi, star)
        ]
        return ok, "\t".join([_fmt(eng, x)] + parts)

    def _leq(self, eng, ctx, pair):
        x, y = pair
        up, down = eng.order.leq(x, y), eng.order.leq(y, x)
        ok = not (up and down) or x == y
        if ctx["cross_left"]:
            # independent route: push both into W_ext^S and use the subword
            # characterization of the Bruhat order
            alc = eng.alc
            n = 1 + max(self._push_steps(eng, x), self._push_steps(eng, y))
            xs, ys = _translation_shift(eng, x, n), _translation_shift(eng, y, n)
            if eng.ext.length(ys) <= self.CROSS_MAXLEN:
                ctx["cross_left"] -= 1
                ok = ok and alc.in_wexts(xs) and alc.in_wexts(ys)
                ok = ok and up == (xs in eng.ext.bruhat_lower_set(ys))
        return ok, None

    @staticmethod
    def _push_steps(eng, x) -> int:
        for n in range(64):
            if eng.alc.in_wexts(_translation_shift(eng, x, n)):
                return n
        raise ArithmeticError(f"{x} does not reach W_ext^S")

    def _phi(self, eng, ctx, w):
        groth, d = eng.groth, eng.datum
        cv = groth.phi_of_simple(w)
        _, lam = eng.alc.res_decompose(w)
        ok = cv.total() == eng.satake.weyl_dimension(d.act_y(d.w0, lam))
        ok = ok and all(eng.order.leq(groth.label_element(lab), w) for lab in cv.coords)
        labels = ",".join(f"{_fmt(eng, lab.rep)}+{lab.shift}*{m}" for lab, m in cv.items())
        return ok, f"{_fmt(eng, w)}\t{labels}"

    def _char(self, eng, ctx, payload):
        mu, picks = payload
        sat = eng.satake
        wm = sat.weight_multiplicities(mu)
        ok = wm.total() == sat.weyl_dimension(mu)
        # the Kostant oracle is asked only about weights in the support
        support = sorted(wm.multiplicities)
        for p in picks:
            nu = support[p % len(support)]
            ok = ok and sat.kostant_multiplicity(mu, nu) == wm.mult(nu)
        return ok, f"{mu}\t{wm.items()}"


WORKLOADS = {w.name: w for w in (MTriangleSweep(), KLBarVerify(), OrderFiltration())}
