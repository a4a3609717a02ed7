"""Command-line front end.

Deterministic by construction: fixed inputs and an explicit --seed
produce byte-identical output.  Exit codes: 0 on success or all-pass,
1 on a mathematical failure (validation, relation, or iso checks that
come out false), 2 on usage errors.
"""

import argparse
import json
import sys

from . import acceptance
from .errors import InputError, WittlamError
from .ground import GroundRing, parse_ring
from .lambda_witt import (LambdaElem, WittVec, coalgebra_check, exp_iso,
                          exp_iso_inv, ghost, ghosts, lambda_add, lambda_mul,
                          lambda_op, witt_add, witt_mul)
from .lubin import CommutingProblem, hasse_check, lubin_solve
from .series import SeriesRing
from .structures import (Carrier, LambdaStructure, axiom_check,
                         dual_iso_test, lambda_values, make_dual_structure,
                         make_family_structure, validate)
from .sympoly import parse_fraction
from .universal import (DEFAULT_DEPTH, HomAssignment, hom_from_structure,
                        relation_w, roundtrip_check, structure_from_hom)


def _emit(args, text):
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_json(args, data):
    _emit(args, json.dumps(data, indent=2, sort_keys=True))


def _emit_report(args, report):
    """Print a check's Report, as text or with --json as JSON; the exit
    code is 0 when it passed and 1 otherwise."""
    _emit_json(args, report.to_json()) if args.json else _emit(args, str(report))
    return 0 if report.passed else 1


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _load_structure(path, check=True):
    return LambdaStructure.from_json(_load_json(path), check=check)


def _parse_coeffs(text):
    return [c.strip() for c in text.split(",")]


def _truncation(args, default, least):
    """-N if given, else the default; below `least` raises InputError."""
    n = default if args.N is None else args.N
    if n < least:
        raise InputError(f"truncation N={n} must be at least {least}")
    return n


def _vector_from_args(cls, args, field):
    """The WittVec or LambdaElem (cls) whose coefficients --<field> lists."""
    coeffs = _parse_coeffs(getattr(args, field))
    return cls(parse_ring(args.ring), coeffs, _truncation(args, len(coeffs), 1))


def _series_from_args(args, field, ring=None):
    ring = ring or parse_ring(args.ring)
    coeffs = _parse_coeffs(getattr(args, field))
    return SeriesRing(ring, _truncation(args, len(coeffs) - 1, 0)).coerce(coeffs)


def _ground_ring(args):
    """--ring for the commands that build structures or series over it,
    which need a ground ring, not a truncation <ring>[x]/x^k."""
    ring = parse_ring(args.ring)
    if not isinstance(ring, GroundRing):
        raise InputError(f"{args.command} needs a ground ring, not {ring}")
    return ring


def _parse_int(option, text):
    """The int that text spells; InputError naming option otherwise."""
    try:
        return int(text)
    except ValueError:
        raise InputError(f"{option}: {text!r} is not an integer") from None


def _parse_prime_map(text):
    out = {}
    for part in text.split(","):
        p, _, v = part.partition("=")
        out[_parse_int("--a", p.strip())] = v.strip()
    return out


def _parse_carrier(text, ring):
    kind, _, arg = text.partition(":")
    if kind == "series":
        return Carrier.power_series(ring, _parse_int("--carrier", arg or 8))
    if kind == "trunc":
        return Carrier.trunc_poly(ring, _parse_int("--carrier", arg or 3))
    if kind == "dual":
        return Carrier.dual_numbers(ring)
    if kind == "ground":
        return Carrier.ground(ring)
    raise ValueError(f"unknown carrier {text!r} (series:N, trunc:M, dual, ground)")


# -- command handlers ---------------------------------------------------------


def cmd_witt(args):
    a = _vector_from_args(WittVec, args, "a")
    if args.witt_op == "ghost":
        values = [ghost(args.n, a)] if args.n is not None else ghosts(a)
        _emit(args, ",".join(map(a.domain.format, values)))
        return 0
    b = _vector_from_args(WittVec, args, "b")
    c = witt_add(a, b) if args.witt_op == "add" else witt_mul(a, b)
    _emit_json(args, c.to_json()) if args.json else _emit(args, str(c))
    return 0


def cmd_lambda(args):
    f = _vector_from_args(LambdaElem, args, "f")
    if args.lambda_op_name == "op":
        r = lambda_op(args.i, f, bound=args.bound)
    else:
        g = _vector_from_args(LambdaElem, args, "g")
        r = lambda_add(f, g) if args.lambda_op_name == "add" else lambda_mul(f, g)
    _emit_json(args, r.to_json()) if args.json else _emit(args, str(r))
    return 0


def cmd_exp(args):
    a = _vector_from_args(WittVec, args, "a")
    r = exp_iso(a)
    _emit_json(args, r.to_json()) if args.json else _emit(args, str(r))
    return 0


def cmd_unexp(args):
    f = _vector_from_args(LambdaElem, args, "f")
    r = exp_iso_inv(f)
    _emit_json(args, r.to_json()) if args.json else _emit(args, str(r))
    return 0


def cmd_lift(args):
    S = _load_structure(args.structure)
    dom = S.carrier.domain
    value = lambda_values(S, args.n, dom.coerce(args.element))[args.n]
    _emit(args, dom.format(value))
    return 0


def cmd_validate(args):
    S = _load_structure(args.structure, check=False)
    return _emit_report(args, validate(S))


def cmd_axiom_check(args):
    S = _load_structure(args.structure)
    return _emit_report(args, axiom_check(S, nmax=args.nmax, bound=args.bound))


def cmd_coalgebra_check(args):
    S = _load_structure(args.structure)
    dom = S.carrier.domain
    samples = [dom.coerce(s) for s in _parse_coeffs(args.samples)]
    return _emit_report(args, coalgebra_check(S, samples, M=args.M))


def cmd_dual(args):
    if args.dual_op == "make":
        S = make_dual_structure(_ground_ring(args), _parse_prime_map(args.a))
        _emit_json(args, S.to_json())
        return 0
    S1 = _load_structure(args.s1)
    S2 = _load_structure(args.s2)
    iso = dual_iso_test(S1, S2)
    _emit(args, "isomorphic" if iso else "not isomorphic")
    return 0 if iso else 1


def cmd_family(args):
    ring = _ground_ring(args)
    carrier = _parse_carrier(args.carrier, ring)
    S = make_family_structure(carrier, _parse_prime_map(args.a))
    _emit_json(args, S.to_json())
    return 0


def cmd_universal(args):
    if args.universal_op == "to-hom":
        S = _load_structure(args.structure)
        h = hom_from_structure(S, depth=args.depth)
        _emit_json(args, h.to_json())
        return 0
    if args.universal_op == "from-hom":
        h = HomAssignment.from_json(_load_json(args.assignment))
        S = structure_from_hom(h)
        _emit_json(args, S.to_json())
        return 0
    if args.universal_op == "relations":
        if args.structure is not None:
            h = hom_from_structure(_load_structure(args.structure))
        else:
            h = HomAssignment.from_json(_load_json(args.assignment))
        lines = []
        all_zero = True
        for i, p in enumerate(h.primes):
            for q in h.primes[i + 1 :]:
                ws = relation_w(p, q, h)
                nz = [l for l, v in enumerate(ws, start=1) if not v.is_zero()]
                all_zero = all_zero and not nz
                status = "all zero" if not nz else f"nonzero at x^{nz}"
                lines.append(f"w({p},{q},l) for l <= {h.trunc}: {status}")
        lines.append(
            "V relations hold by construction of the assignment "
            f"(depth <= {h.depth})"
        )
        _emit(args, "\n".join(lines))
        return 0 if all_zero else 1
    if args.universal_op == "roundtrip":
        S = _load_structure(args.structure)
        ok = roundtrip_check(S)
        _emit(args, "roundtrip ok" if ok else "roundtrip FAILED")
        return 0 if ok else 1
    raise ValueError(f"unknown universal op {args.universal_op!r}")


def cmd_lubin(args):
    ring = _ground_ring(args)
    f = _series_from_args(args, "f", ring)
    g = _series_from_args(args, "g", ring)
    problem = CommutingProblem(f, g, parse_fraction(args.c))
    h = lubin_solve(problem)
    _emit(args, ",".join(h.coeff_strings()))
    return 0


def cmd_hasse(args):
    S1 = _load_structure(args.s1)
    S2 = _load_structure(args.s2)
    phi = S1.carrier.domain.coerce(_parse_coeffs(args.phi))
    return _emit_report(args, hasse_check(S1, S2, phi, args.prime))


def cmd_selftest(args):
    numbers = None
    if args.suites:
        numbers = {_parse_int("--suites", s) for s in args.suites.split(",")}
    results = acceptance.run_all(seed=args.seed, numbers=numbers)
    print(f"selftest: seed={args.seed}")
    for report in results:
        print("\n".join(acceptance.suite_lines(report)))
    return 0 if all(report.passed for report in results) else 1


# -- parser ------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wittlam",
        description=(
            "Exact computations with truncated big Witt vectors, the "
            "universal lambda-ring, and filtered lambda-ring structures."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, ring=False, N=False, with_json=False):
        """-o, and each of --ring, -N and --json that the command names:
        an option is accepted only where it changes the output, so one
        the command does not take (--json on a command that prints only
        text or always JSON) is a usage error."""
        if ring:
            p.add_argument("--ring", default="Z", help="Z, Q, Z[1/2], Z_(5), Q[y1]")
        if N:
            p.add_argument("-N", type=int, default=None, help="truncation")
        if with_json:
            p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument("-o", "--output", default=None, help="write to file")

    p = sub.add_parser("witt", help="Witt vector arithmetic and ghosts")
    ws = p.add_subparsers(dest="witt_op", required=True)
    for op in ("add", "mul"):
        q = ws.add_parser(op)
        q.add_argument("--a", required=True, help="comma list a1,..,aN")
        q.add_argument("--b", required=True)
        common(q, ring=True, N=True, with_json=True)
        q.set_defaults(func=cmd_witt)
    q = ws.add_parser("ghost")
    q.add_argument("--a", required=True)
    q.add_argument("--n", type=int, default=None, help="single ghost index")
    common(q, ring=True, N=True)
    q.set_defaults(func=cmd_witt)

    p = sub.add_parser("lambda", help="universal lambda-ring operations")
    ls = p.add_subparsers(dest="lambda_op_name", required=True)
    for op in ("add", "mul"):
        q = ls.add_parser(op)
        q.add_argument("--f", required=True, help="comma list a1,..,aN")
        q.add_argument("--g", required=True)
        common(q, ring=True, N=True, with_json=True)
        q.set_defaults(func=cmd_lambda)
    q = ls.add_parser("op")
    q.add_argument("--i", type=int, required=True, help="which lambda^i")
    q.add_argument("--f", required=True)
    q.add_argument("--bound", type=int, default=None)
    common(q, ring=True, N=True, with_json=True)
    q.set_defaults(func=cmd_lambda)

    q = sub.add_parser("exp", help="exponential isomorphism W -> Lambda")
    q.add_argument("--a", required=True)
    common(q, ring=True, N=True, with_json=True)
    q.set_defaults(func=cmd_exp)

    q = sub.add_parser("unexp", help="inverse exponential isomorphism")
    q.add_argument("--f", required=True)
    common(q, ring=True, N=True, with_json=True)
    q.set_defaults(func=cmd_unexp)

    q = sub.add_parser("lift", help="lambda^n via the Newton recursion")
    q.add_argument("--structure", required=True)
    q.add_argument("--element", required=True)
    q.add_argument("-n", type=int, required=True)
    common(q)
    q.set_defaults(func=cmd_lift)

    q = sub.add_parser("validate", help="psi-ring condition report")
    q.add_argument("--structure", required=True)
    common(q, with_json=True)
    q.set_defaults(func=cmd_validate)

    q = sub.add_parser("axiom-check", help="lambda-ring axiom report")
    q.add_argument("--structure", required=True)
    q.add_argument("--nmax", type=int, default=None,
                   help="top product degree (default: min(3, window depth))")
    q.add_argument("--bound", type=int, default=None,
                   help="composition depth (default: derived from the window)")
    common(q, with_json=True)
    q.set_defaults(func=cmd_axiom_check)

    q = sub.add_parser("coalgebra-check", help="counit/coassociativity report")
    q.add_argument("--structure", required=True)
    q.add_argument("-M", type=int, default=3, help="inner truncation")
    q.add_argument("--samples", default="2,3")
    common(q, with_json=True)
    q.set_defaults(func=cmd_coalgebra_check)

    p = sub.add_parser("dual", help="dual-number structures")
    ds = p.add_subparsers(dest="dual_op", required=True)
    q = ds.add_parser("make")
    q.add_argument("--a", required=True,
                   help="p=a_p map, e.g. 2=2,3=6; its primes are the window")
    common(q, ring=True)
    q.set_defaults(func=cmd_dual)
    q = ds.add_parser("iso")
    q.add_argument("--s1", required=True)
    q.add_argument("--s2", required=True)
    common(q)
    q.set_defaults(func=cmd_dual)

    p = sub.add_parser("family", help="linear families over Q-algebras")
    fs = p.add_subparsers(dest="family_op", required=True)
    q = fs.add_parser("make")
    q.add_argument("--carrier", default="series:8", help="series:N | trunc:M")
    q.add_argument("--a", required=True,
                   help="p=a_p map of unit scalars; its primes are the window")
    common(q, ring=True)
    q.set_defaults(func=cmd_family)

    p = sub.add_parser("universal", help="the co-representing correspondence")
    us = p.add_subparsers(dest="universal_op", required=True)
    q = us.add_parser("to-hom")
    q.add_argument("--structure", required=True)
    q.add_argument("--depth", type=int, default=DEFAULT_DEPTH,
                   help="longest generator tail written out")
    common(q)
    q.set_defaults(func=cmd_universal)
    q = us.add_parser("roundtrip")
    q.add_argument("--structure", required=True)
    common(q)
    q.set_defaults(func=cmd_universal)
    q = us.add_parser("from-hom")
    q.add_argument("--assignment", required=True)
    common(q)
    q.set_defaults(func=cmd_universal)
    q = us.add_parser("relations")
    source = q.add_mutually_exclusive_group(required=True)
    source.add_argument("--structure")
    source.add_argument("--assignment")
    common(q)
    q.set_defaults(func=cmd_universal)

    p = sub.add_parser("lubin", help="commuting power series solver")
    lsub = p.add_subparsers(dest="lubin_op", required=True)
    q = lsub.add_parser("solve")
    q.add_argument("--f", required=True, help="comma list c0,c1,..")
    q.add_argument("--g", required=True)
    q.add_argument("--c", required=True, help="target linear coefficient")
    common(q, ring=True, N=True)
    q.set_defaults(func=cmd_lubin)

    p = sub.add_parser("hasse", help="one-prime-determines-all check")
    hs = p.add_subparsers(dest="hasse_op", required=True)
    q = hs.add_parser("check")
    q.add_argument("--s1", required=True)
    q.add_argument("--s2", required=True)
    q.add_argument("--phi", required=True, help="comma list c0,c1,..")
    q.add_argument("--prime", type=int, required=True)
    common(q, with_json=True)
    q.set_defaults(func=cmd_hasse)

    q = sub.add_parser("selftest", help="run the acceptance suites")
    q.add_argument("--suites", default=None, help="subset, e.g. 1,3,5")
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args)
    except (WittlamError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
