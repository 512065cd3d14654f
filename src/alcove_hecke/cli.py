"""Command-line surface.

Element literals are "w : t" with w a word over named generators (s1, s2,
..., plus s0a, s0b, ... for the affine generators) and t a comma-separated
coweight, e.g. "s1 : -2,0".  Output is JSON by default; table-producing
commands default to TSV.  `suite run` exits nonzero iff any check fails.

Every operation is one entry of `OPS`: its flags, its default format and a
handler `(engine, args) -> payload`.  The runner builds the engine, resolves
`--gens` and parses the element-literal flags before the handler runs.
"""

from __future__ import annotations

import argparse
import json
import sys

from .engine import Engine, build_engine
from .errors import AlcoveHeckeError, BoundsTooLarge, MalformedInput
from .ext_weyl import ExtWeylElement
from .groth_calc import COVERMA, VERMA, FiltrationMultiset
from .parabolic import in_awext, in_awext_res, in_awext_s, min_rep
from .suite import MAX_KL_LEN, run_suite, spherical_window

# the flags holding element literals, parsed in this order after --gens
ELEMENT_FLAGS = ("elt", "lhs", "rhs", "x", "y")


def _emit(payload, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    elif isinstance(payload, dict):
        for k in sorted(payload):
            print(f"{k}\t{payload[k]}")
    else:
        for row in payload:
            print("\t".join(str(c) for c in row))


def _printable(eng: Engine, value):
    """value with every element written as its literal, every filtration as its
    flavor and labelled items, and every tuple as a list."""
    if isinstance(value, ExtWeylElement):
        return eng.ext.format_element(value)
    if isinstance(value, FiltrationMultiset):
        items = [{"label": w, "mult": m} for w, m in value.items()]
        value = {"flavor": value.flavor, "items": items}
    if isinstance(value, dict):
        return {k: _printable(eng, v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_printable(eng, v) for v in value]
    return value


def _filtration_from_file(eng: Engine, path: str) -> FiltrationMultiset:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise MalformedInput(f"cannot read filtration file {path!r}: {exc}") from exc
    if isinstance(data, list):
        items, flavor = data, COVERMA
    elif isinstance(data, dict) and isinstance(data.get("items"), list):
        items, flavor = data["items"], data.get("flavor", COVERMA)
    else:
        raise MalformedInput("a filtration file holds a list of items or {\"items\": [...]}")
    if flavor not in (COVERMA, VERMA):
        raise MalformedInput(f"unknown filtration flavor {flavor!r}")
    mults: dict[ExtWeylElement, int] = {}
    for entry in items:
        if not isinstance(entry, dict) or not isinstance(entry.get("label"), str):
            raise MalformedInput(f"filtration entry {entry!r} has no string label")
        m = entry.get("mult")
        if type(m) is not int or m < 0:
            raise MalformedInput(f"filtration entry {entry!r} needs a nonnegative integer mult")
        w = eng.ext.parse_element(entry["label"])
        mults[w] = mults.get(w, 0) + m
    return FiltrationMultiset(mults, flavor)


def _datum_check(eng: Engine, args) -> dict:
    d = eng.datum
    return {
        "name": d.name,
        "rank": d.rank,
        "x_rank": d.x_rank,
        "weyl_order": d.weyl_order,
        "positive_roots": len(d.positive_roots),
        "longest_length": d.weyl_elements[d.w0].length,
        "two_rho": d.two_rho,
        "varsigma": d.varsigma,
        "cartan": d.cartan,
        "components": d.components,
        "valid": True,
    }


def _reduce(eng: Engine, args) -> dict:
    word, omega = eng.ext.reduced_expression(args.elt)
    return {"word": [g.name for g in word], "omega": omega, "length": len(word)}


def _res_decompose(eng: Engine, args) -> dict:
    y, lam = eng.alc.res_decompose(args.elt)
    return {"restricted": y, "translation": lam}


def _parabolic_list(eng: Engine, args) -> dict:
    a = args.gens
    return {
        "generators": [g.name for g in a.generators],
        "order": a.order,
        "longest": a.longest,
        "elements": a.elements,
    }


def _parabolic_rep(eng: Engine, args) -> dict:
    x, a = args.elt, args.gens
    return {
        "element": x,
        "representative": min_rep(eng.alc, x, a),
        "in_awext": in_awext(eng.alc, x, a),
        "in_awext_s": in_awext_s(eng.alc, x, a),
        "in_awext_res": in_awext_res(eng.alc, x, a),
    }


def _mtriangle_sweep(eng: Engine, args) -> list:
    if args.maxlen < 0:
        raise MalformedInput(f"negative bound: maxlen {args.maxlen}")
    if args.maxlen > MAX_KL_LEN:
        raise BoundsTooLarge(f"maxlen {args.maxlen} > {MAX_KL_LEN}")
    rows = []
    for w in spherical_window(eng, args.maxlen):
        tri = eng.alc.triangle(w)
        rows.append((tri, w, str(eng.hecke.inverse_m(tri, w))))
    return rows


def _satake_char(eng: Engine, args):
    try:
        mu = tuple(int(c) for c in args.mu.split(","))
    except ValueError as exc:
        raise MalformedInput(f"bad coweight {args.mu!r}") from exc
    wm = eng.satake.weight_multiplicities(mu)
    rows = [(",".join(map(str, nu)), m) for nu, m in wm.items()]
    return dict(rows) if args.format == "json" else rows


def _phi_simple(eng: Engine, args) -> dict:
    groth = eng.groth
    items = groth.phi_of_simple(args.elt).items()
    return {"items": [{"label": groth.label_element(l), "mult": m} for l, m in items]}


def _dimend(eng: Engine, args) -> dict:
    filt = eng.groth.projective_filtration(args.elt)
    return {"dim_end": eng.groth.dim_hom(eng.groth.duality(filt), filt)}


ELT = ("--elt", {"required": True})
PAIR = (("--lhs", {"required": True}), ("--rhs", {"required": True}))
GENS = ("--gens", {"default": ""})
FILT = ("--filt", {"required": True, "help": "filtration multiset JSON file"})

# group -> (help, op -> (flags, default format, handler)); each flag is
# (name, add_argument keywords)
OPS = {
    "datum": ("root datum loading and validation", {
        "check": ((), "json", _datum_check),
    }),
    "wext": ("extended affine Weyl group operations", {
        "len": ((ELT,), "json", lambda eng, a: {"element": a.elt, "length": eng.ext.length(a.elt)}),
        "inv": ((ELT,), "json", lambda eng, a: {"element": eng.ext.inv(a.elt)}),
        "reduce": ((ELT,), "json", _reduce),
        "triangle": ((ELT,), "json", lambda eng, a: {"element": eng.alc.triangle(a.elt)}),
        "res-decompose": ((ELT,), "json", _res_decompose),
        "in-wexts": ((ELT,), "json",
                     lambda eng, a: {"element": a.elt, "in_wexts": eng.alc.in_wexts(a.elt)}),
        "in-wres": ((ELT,), "json",
                    lambda eng, a: {"element": a.elt, "in_wres": eng.alc.in_wres(a.elt)}),
        "mul": (PAIR, "json", lambda eng, a: {"element": eng.ext.mul(a.lhs, a.rhs)}),
        "bruhat": (PAIR, "json", lambda eng, a: {"leq": eng.ext.bruhat_leq(a.lhs, a.rhs)}),
        "porder": (PAIR, "json", lambda eng, a: {"leq": eng.order.leq(a.lhs, a.rhs)}),
    }),
    "parabolic": ("finitary subsets and coset representatives", {
        "list": ((("--gens", {"default": "", "help": "comma-separated generator names"}),),
                 "json", _parabolic_list),
        "rep": ((GENS, ELT), "json", _parabolic_rep),
    }),
    "hecke": ("Kazhdan-Lusztig and spherical polynomials", {
        "kl": ((("--x", {"required": True, "help": "lower label"}),
                ("--y", {"required": True, "help": "upper label"})),
               "json", lambda eng, a: {"h": str(eng.hecke.kl_poly(a.x, a.y))}),
        "inverse-m": ((("--x", {"required": True}), ("--y", {"required": True})),
                      "json", lambda eng, a: {"m_inv": str(eng.hecke.inverse_m(a.x, a.y))}),
        "mtriangle-sweep": ((("--maxlen", {"type": int, "default": 6}),), "tsv",
                            _mtriangle_sweep),
    }),
    "satake": ("weight multiplicities for the dual group", {
        "char": ((("--mu", {"required": True, "help": "dominant coweight, comma-separated"}),),
                 "tsv", _satake_char),
    }),
    "groth": ("multiplicity calculator", {
        "phi-simple": ((ELT,), "json", _phi_simple),
        "proj-filtration": (
            (ELT, ("--strategy", {"choices": ("min", "max"), "default": "min"})), "json",
            lambda eng, a: eng.groth.projective_filtration(a.elt, strategy=a.strategy)),
        "dimend": ((ELT,), "json", _dimend),
        "seed": ((), "json", lambda eng, a: eng.groth.seed_filtration()),
        "avpsi": ((GENS, FILT), "json",
                  lambda eng, a: eng.groth.av_psi(_filtration_from_file(eng, a.filt), a.gens)),
        "avstar": ((GENS, FILT), "json",
                   lambda eng, a: eng.groth.av_star(_filtration_from_file(eng, a.filt), a.gens)),
    }),
}


def run_op(args) -> int:
    """Run a table operation: one engine, parsed elements, one emitted payload."""
    eng = build_engine(args.datum)
    if "gens" in vars(args):
        args.gens = eng.parabolic(args.gens)
    for flag in ELEMENT_FLAGS:
        if flag in vars(args):
            setattr(args, flag, eng.ext.parse_element(getattr(args, flag)))
    _emit(_printable(eng, args.handler(eng, args)), args.format)
    return 0


def cmd_suite(args) -> int:
    report = run_suite(
        args.preset,
        seed=args.seed,
        samples=args.samples,
        kl_maxlen=args.maxlen,
    )
    if args.format == "json":
        print(json.dumps(report.to_dict(timings=args.timings), sort_keys=True))
    else:
        sys.stdout.write(report.to_tsv(timings=args.timings))
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="alcove-hecke")
    sub = parser.add_subparsers(dest="command", required=True)
    for group, (group_help, ops) in OPS.items():
        gsub = sub.add_parser(group, help=group_help).add_subparsers(dest="op", required=True)
        for op, (flags, fmt, handler) in ops.items():
            q = gsub.add_parser(op)
            q.add_argument("--datum", default="A1_adj", help="preset name or descriptor JSON path")
            q.add_argument("--format", choices=("json", "tsv"), default=fmt)
            for name, kw in flags:
                q.add_argument(name, **kw)
            q.set_defaults(func=run_op, handler=handler)

    p = sub.add_parser("suite", help="property and acceptance suite")
    q = p.add_subparsers(dest="op", required=True).add_parser("run")
    q.add_argument("--preset", default="A1_adj")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--samples", type=int, default=500)
    q.add_argument("--maxlen", type=int, default=None, help="KL sweep length bound")
    q.add_argument("--format", choices=("json", "tsv"), default="tsv")
    q.add_argument("--timings", action="store_true")
    q.set_defaults(func=cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AlcoveHeckeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
