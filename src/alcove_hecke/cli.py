"""Command-line surface.

Element literals are "w : t" with w a word over named generators (s1, s2,
..., plus s0a, s0b, ... for the affine generators) and t a comma-separated
coweight, e.g. "s1 : -2,0".  Output is JSON by default; table-producing
commands default to TSV.  `suite run` exits nonzero iff any check fails.
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
from .suite import run_suite


def _emit(payload, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        if isinstance(payload, dict):
            for k in sorted(payload):
                print(f"{k}\t{payload[k]}")
        else:
            for row in payload:
                print("\t".join(str(c) for c in row))


def _filtration_to_payload(eng: Engine, filt: FiltrationMultiset) -> dict:
    return {
        "flavor": filt.flavor,
        "items": [
            {"label": eng.ext.format_element(w), "mult": m} for w, m in filt.items()
        ],
    }


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


def cmd_datum_check(args) -> int:
    eng = build_engine(args.datum)
    d = eng.datum
    payload = {
        "name": d.name,
        "rank": d.rank,
        "x_rank": d.x_rank,
        "weyl_order": d.weyl_order,
        "positive_roots": len(d.positive_roots),
        "longest_length": d.weyl_elements[d.w0].length,
        "two_rho": list(d.two_rho),
        "varsigma": list(d.varsigma),
        "cartan": [list(r) for r in d.cartan],
        "components": [list(c) for c in d.components],
        "valid": True,
    }
    _emit(payload, args.format)
    return 0


def cmd_wext(args) -> int:
    eng = build_engine(args.datum)
    ext, alc = eng.ext, eng.alc
    op = args.op
    fmt = eng.ext.format_element
    if op in ("len", "inv", "reduce", "triangle", "res-decompose", "in-wexts", "in-wres"):
        x = ext.parse_element(args.elt)
        if op == "len":
            payload = {"element": fmt(x), "length": ext.length(x)}
        elif op == "inv":
            payload = {"element": fmt(ext.inv(x))}
        elif op == "reduce":
            word, omega = ext.reduced_expression(x)
            payload = {
                "word": [g.name for g in word],
                "omega": fmt(omega),
                "length": len(word),
            }
        elif op == "triangle":
            payload = {"element": fmt(alc.triangle(x))}
        elif op == "res-decompose":
            y, lam = alc.res_decompose(x)
            payload = {"restricted": fmt(y), "translation": list(lam)}
        elif op == "in-wexts":
            payload = {"element": fmt(x), "in_wexts": alc.in_wexts(x)}
        else:
            payload = {"element": fmt(x), "in_wres": alc.in_wres(x)}
    elif op == "mul":
        payload = {"element": fmt(ext.mul(ext.parse_element(args.lhs), ext.parse_element(args.rhs)))}
    elif op == "bruhat":
        payload = {
            "leq": ext.bruhat_leq(ext.parse_element(args.lhs), ext.parse_element(args.rhs))
        }
    elif op == "porder":
        payload = {
            "leq": eng.order.leq(ext.parse_element(args.lhs), ext.parse_element(args.rhs))
        }
    else:
        raise AlcoveHeckeError(f"unknown wext operation {op}")
    _emit(payload, args.format)
    return 0


def cmd_parabolic(args) -> int:
    eng = build_engine(args.datum)
    a = eng.parabolic(args.gens or "")
    if args.op == "list":
        payload = {
            "generators": [g.name for g in a.generators],
            "order": a.order,
            "longest": eng.ext.format_element(a.longest),
            "elements": [eng.ext.format_element(e) for e in a.elements],
        }
    else:
        x = eng.ext.parse_element(args.elt)
        rep = min_rep(eng.alc, x, a)
        payload = {
            "element": eng.ext.format_element(x),
            "representative": eng.ext.format_element(rep),
            "in_awext": in_awext(eng.alc, x, a),
            "in_awext_s": in_awext_s(eng.alc, x, a),
            "in_awext_res": in_awext_res(eng.alc, x, a),
        }
    _emit(payload, args.format)
    return 0


def cmd_hecke(args) -> int:
    eng = build_engine(args.datum)
    ext = eng.ext
    if args.op == "kl":
        x = ext.parse_element(args.x)
        y = ext.parse_element(args.y)
        payload = {"h": str(eng.hecke.kl_poly(x, y))}
        _emit(payload, args.format)
    elif args.op == "inverse-m":
        x = ext.parse_element(args.x)
        y = ext.parse_element(args.y)
        payload = {"m_inv": str(eng.hecke.inverse_m(x, y))}
        _emit(payload, args.format)
    else:  # mtriangle-sweep
        from .suite import MAX_KL_LEN, spherical_window

        if args.maxlen > MAX_KL_LEN:
            raise BoundsTooLarge(f"maxlen {args.maxlen} > {MAX_KL_LEN}")
        rows = []
        for w in spherical_window(eng, args.maxlen):
            tri = eng.alc.triangle(w)
            rows.append(
                (ext.format_element(tri), ext.format_element(w), str(eng.hecke.inverse_m(tri, w)))
            )
        _emit(rows, "tsv" if args.format != "json" else "json")
    return 0


def cmd_satake(args) -> int:
    eng = build_engine(args.datum)
    try:
        mu = tuple(int(c) for c in args.mu.split(","))
    except ValueError as exc:
        raise MalformedInput(f"bad coweight {args.mu!r}") from exc
    wm = eng.satake.weight_multiplicities(mu)
    if args.format == "json":
        _emit({",".join(map(str, nu)): m for nu, m in wm.items()}, "json")
    else:
        _emit([( ",".join(map(str, nu)), m) for nu, m in wm.items()], "tsv")
    return 0


def cmd_groth(args) -> int:
    eng = build_engine(args.datum)
    groth, ext = eng.groth, eng.ext
    if args.op == "phi-simple":
        cv = groth.phi_of_simple(ext.parse_element(args.elt))
        payload = {
            "items": [
                {"label": ext.format_element(groth.label_element(l)), "mult": m}
                for l, m in cv.items()
            ]
        }
    elif args.op == "proj-filtration":
        filt = groth.projective_filtration(ext.parse_element(args.elt), strategy=args.strategy)
        payload = _filtration_to_payload(eng, filt)
    elif args.op == "dimend":
        filt = groth.projective_filtration(ext.parse_element(args.elt))
        payload = {"dim_end": groth.dim_hom(groth.duality(filt), filt)}
    elif args.op == "seed":
        payload = _filtration_to_payload(eng, groth.seed_filtration())
    elif args.op in ("avpsi", "avstar"):
        a = eng.parabolic(args.gens or "")
        filt = _filtration_from_file(eng, args.filt)
        out = groth.av_psi(filt, a) if args.op == "avpsi" else groth.av_star(filt, a)
        payload = _filtration_to_payload(eng, out)
    else:
        raise AlcoveHeckeError(f"unknown groth operation {args.op}")
    _emit(payload, args.format)
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

    def add_common(p, fmt_default="json"):
        p.add_argument("--datum", default="A1_adj", help="preset name or descriptor JSON path")
        p.add_argument("--format", choices=("json", "tsv"), default=fmt_default)

    p = sub.add_parser("datum", help="root datum loading and validation")
    dsub = p.add_subparsers(dest="op", required=True)
    pc = dsub.add_parser("check")
    add_common(pc)
    pc.set_defaults(func=cmd_datum_check)

    p = sub.add_parser("wext", help="extended affine Weyl group operations")
    wsub = p.add_subparsers(dest="op", required=True)
    for op in ("len", "inv", "reduce", "triangle", "res-decompose", "in-wexts", "in-wres"):
        q = wsub.add_parser(op)
        add_common(q)
        q.add_argument("--elt", required=True)
        q.set_defaults(func=cmd_wext)
    for op in ("mul", "bruhat", "porder"):
        q = wsub.add_parser(op)
        add_common(q)
        q.add_argument("--lhs", required=True)
        q.add_argument("--rhs", required=True)
        q.set_defaults(func=cmd_wext)

    p = sub.add_parser("parabolic", help="finitary subsets and coset representatives")
    psub = p.add_subparsers(dest="op", required=True)
    q = psub.add_parser("list")
    add_common(q)
    q.add_argument("--gens", default="", help="comma-separated generator names")
    q.set_defaults(func=cmd_parabolic)
    q = psub.add_parser("rep")
    add_common(q)
    q.add_argument("--gens", default="")
    q.add_argument("--elt", required=True)
    q.set_defaults(func=cmd_parabolic)

    p = sub.add_parser("hecke", help="Kazhdan-Lusztig and spherical polynomials")
    hsub = p.add_subparsers(dest="op", required=True)
    q = hsub.add_parser("kl")
    add_common(q)
    q.add_argument("--x", required=True, help="lower label")
    q.add_argument("--y", required=True, help="upper label")
    q.set_defaults(func=cmd_hecke)
    q = hsub.add_parser("inverse-m")
    add_common(q)
    q.add_argument("--x", required=True)
    q.add_argument("--y", required=True)
    q.set_defaults(func=cmd_hecke)
    q = hsub.add_parser("mtriangle-sweep")
    add_common(q, fmt_default="tsv")
    q.add_argument("--maxlen", type=int, default=6)
    q.set_defaults(func=cmd_hecke)

    p = sub.add_parser("satake", help="weight multiplicities for the dual group")
    ssub = p.add_subparsers(dest="op", required=True)
    q = ssub.add_parser("char")
    add_common(q, fmt_default="tsv")
    q.add_argument("--mu", required=True, help="dominant coweight, comma-separated")
    q.set_defaults(func=cmd_satake)

    p = sub.add_parser("groth", help="multiplicity calculator")
    gsub = p.add_subparsers(dest="op", required=True)
    for op in ("phi-simple", "proj-filtration", "dimend"):
        q = gsub.add_parser(op)
        add_common(q)
        q.add_argument("--elt", required=True)
        if op == "proj-filtration":
            q.add_argument("--strategy", choices=("min", "max"), default="min")
        q.set_defaults(func=cmd_groth)
    q = gsub.add_parser("seed")
    add_common(q)
    q.set_defaults(func=cmd_groth)
    for op in ("avpsi", "avstar"):
        q = gsub.add_parser(op)
        add_common(q)
        q.add_argument("--gens", default="")
        q.add_argument("--filt", required=True, help="filtration multiset JSON file")
        q.set_defaults(func=cmd_groth)

    p = sub.add_parser("suite", help="property and acceptance suite")
    usub = p.add_subparsers(dest="op", required=True)
    q = usub.add_parser("run")
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
