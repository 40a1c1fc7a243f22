"""Command-line frontend.

Subcommands: analyze (full report), keyforms, classify, dualgraph,
singlepair, sweep.  Inputs come from a plain key = value file (series =
"u^(3/5) + u^2", pairs = [(3,5),(23,2)], r = 8) or the equivalent flags,
which override the file and are spelled in full.  The pair, r and text
rules are the library's (puiseux.local_pair_data, puiseux.check_r and
puiseux.check_text); the frontend adds only its own: the spec-file syntax,
exactly one of series and pairs, r required, and a lone (q, p) read as one
pair.  Exit codes: 0 for any computed verdict; 1 when the reader closes
standard output before all of it is written (nothing more is printed); 2
for bad input: a malformed series, pairs, r, p, q or poly value, an
unknown or abbreviated flag, or a spec file that cannot be read or parsed;
3 for well-formed input outside what was asked (a germ of order >= 1 where
a contraction is requested, a series without a characteristic pair,
keyforms without a series, a singlepair polynomial that is not monic of
degree p in v or has a negative exponent); 4 when a library self-check
raises InvariantViolationError: one error line, then the error's state
dump as one line of JSON, both on stderr.  All verdicts come straight from
the library calls; the frontend only reads and formats.  Each subcommand
imports the library modules it calls in its own body, so a process
compiles only those: classify loads criteria and what it builds on
(puiseux, poly), dualgraph loads dualgraph, and only analyze and a seeded
sweep reach the key-form engine.  analyze reads and checks its input
before it imports criteria, so input that exits 2 or 3 loads only puiseux
and poly.  ast is imported only to read a --pairs value or a spec file,
and no module a process loads before criteria or keyforms defines a
dataclass, so dualgraph and the failure paths never import dataclasses.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import namedtuple
from functools import partial

from .errors import InvariantViolationError, PreconditionError, SeriesParseError

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_INVARIANT = 4

_SPEC_KEYS = ("series", "pairs", "r", "poly", "p", "q")


class CurveSpec(namedtuple("CurveSpec", "series pairs r")):
    """The germ as read: its series (a PuiseuxPoly, None when pairs were
    given), its CharacteristicData and r (None when not given)."""

    __slots__ = ()


class _BadInput(Exception):
    """Input that cannot be read or fails a library input rule: exit 2."""


def load_spec_file(path: str) -> dict:
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise _BadInput(exc) from exc
    spec: dict = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        if not eq or key not in _SPEC_KEYS:
            raise _BadInput(
                f"{path}:{lineno}: expected 'key = value' with key one of "
                f"{', '.join(_SPEC_KEYS)}"
            )
        spec[key] = _literal(value.strip(), f"{path}:{lineno}: bad value for {key}")
    return spec


def _literal(text: str, what: str):
    """ast.literal_eval(text); too deep a nesting is bad input as well."""
    import ast

    try:
        return ast.literal_eval(text)
    except (ValueError, TypeError, SyntaxError, RecursionError, MemoryError) as exc:
        raise _BadInput(f"{what}: {str(exc) or 'nested too deeply'}") from exc


def _read_inputs(args) -> dict:
    """The spec file's entries, each overridden by its flag when given."""
    raw = load_spec_file(args.specfile) if args.specfile else {}
    for key in _SPEC_KEYS:
        if getattr(args, key, None) is not None:
            raw[key] = getattr(args, key)
    return raw


def _checked(rule, *args):
    """rule(*args), with the PreconditionError of a library input rule
    reported as bad input."""
    try:
        return rule(*args)
    except PreconditionError as exc:
        raise _BadInput(exc) from exc


def resolve_spec(args, need_r: bool = True) -> CurveSpec:
    from .puiseux import (
        Orientation,
        check_r,
        degreewise_to_local,
        local_pair_data,
        parse_puiseux,
        puiseux_pairs,
    )

    raw = _read_inputs(args)
    if ("series" in raw) == ("pairs" in raw):
        raise _BadInput("give exactly one of series/--series or pairs/--pairs")
    series = None
    if "series" in raw:
        series = _checked(parse_puiseux, raw["series"])
        if series.orientation is Orientation.DEGREEWISE:
            series = degreewise_to_local(series)
        pairs = local_pair_data(puiseux_pairs(series))
    else:
        value = raw["pairs"]
        if args.pairs is not None:  # the flag's text; a spec file's value is read already
            value = _literal(value, "bad pairs value")
        if type(value) is tuple and len(value) == 2 and all(type(v) is int for v in value):
            value = [value]  # the lone (q, p) shorthand
        pairs = _checked(local_pair_data, value)
    r = raw.get("r")
    if need_r:
        if r is None:
            raise _BadInput("r is required (file key r or --r)")
        _checked(check_r, r)
    return CurveSpec(series, pairs, r)


def _emit(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2))


def _poles_doc(vp) -> dict:
    return {
        "alpha": vp.alpha,
        "p": vp.p,
        "tilde_omegas": list(vp.tilde_omegas),
        "omegas": list(vp.omegas),
        "generic_pole": vp.generic_pole,
        "l": vp.l,
    }


def _report_doc(rep) -> dict:
    return {
        "classification": rep.classification.value,
        "s1": list(rep.s1),
        "s2": [
            {"k": e.k, "holds": e.holds, "offender": e.offender} for e in rep.s2
        ],
        "poles": _poles_doc(rep.poles),
    }


def _print_report(rep) -> None:
    vp = rep.poles
    print(f"alpha = {vp.alpha}, p^2 = {vp.p ** 2}")
    print("semigroup generators: " + ", ".join(str(w) for w in vp.tilde_omegas))
    print(
        "virtual poles: "
        + ", ".join(str(w) for w in vp.omegas)
        + f"; generic pole = {vp.generic_pole}"
    )
    for i, ok in enumerate(rep.s1, 1):
        print(f"S1 k={i}: {'ok' if ok else 'FAIL'}")
    for e in rep.s2:
        tail = "ok" if e.holds else f"FAIL (largest gap element {e.offender})"
        print(f"S2 k={e.k}: {tail}")
    print(f"classification: {rep.classification.value}")


def cmd_analyze(args) -> int:
    from .puiseux import check_tangent, format_puiseux

    spec = resolve_spec(args)
    check_tangent(spec.pairs)
    # only input that passed both checks loads the decision layer
    from .criteria import Classification, is_algebraic, semigroup_conditions

    rep = semigroup_conditions(spec.pairs, spec.r)
    contractible = rep.classification is not Classification.NOT_CONTRACTIBLE
    doc = _report_doc(rep)
    doc["contractible"] = contractible
    alg = None
    if spec.series is not None:
        alg = is_algebraic(spec.series, spec.r, force_keyforms=args.force_keyforms)
        doc["algebraic"] = alg.algebraic
        doc["key_forms"] = (
            [f.format() for f in alg.key_forms.forms] if alg.key_forms else None
        )
        doc["pole_orders"] = list(alg.key_forms.omegas) if alg.key_forms else None
        doc["witness_curve"] = (
            alg.witness_curve.format() if alg.witness_curve is not None else None
        )
        doc["wp_weights"] = list(alg.wp_weights) if alg.wp_weights else None
    if args.json:
        _emit(doc)
        return EXIT_OK
    if spec.series is not None:
        print(f"series: {format_puiseux(spec.series)}")
    print("pairs: " + ", ".join(f"({q},{p})" for q, p in spec.pairs.pairs) + f"; r = {spec.r}")
    _print_report(rep)
    print(f"contractible: {'yes' if contractible else 'no'}")
    if alg is not None:
        if alg.key_forms is not None:
            print("key forms: " + "; ".join(f.format() for f in alg.key_forms.forms))
            print("pole orders: " + ", ".join(str(w) for w in alg.key_forms.omegas))
        if alg.algebraic is None:
            print("algebraic: n/a (not contractible)")
        else:
            print(f"algebraic: {'yes' if alg.algebraic else 'no'}")
        if alg.witness_curve is not None:
            print(f"witness curve: {alg.witness_curve.format()} = 0")
            print("weighted-projective weights: " + ", ".join(str(w) for w in alg.wp_weights))
    return EXIT_OK


def cmd_keyforms(args) -> int:
    from .keyforms import essential_key_forms
    from .puiseux import local_to_degreewise
    from .semidegree import generic_dps_from_curve

    spec = resolve_spec(args)
    if spec.series is None:
        raise PreconditionError(
            "key forms need the series itself (coefficients matter), not just pairs"
        )
    g = generic_dps_from_curve(local_to_degreewise(spec.series), spec.r)
    keys = essential_key_forms(g)
    if args.json:
        doc = {
            "forms": [f.format() for f in keys.forms],
            "lifts": [F.format() for F in keys.lifts],
            "omegas": list(keys.omegas),
            "alphas": list(keys.alphas),
        }
        if args.all:
            doc["all_forms"] = [f.format() for f, _ in keys.chain()]
        _emit(doc)
        return EXIT_OK
    for k, f in enumerate(keys.forms):
        print(f"f_{k} = {f.format()}")
    for k, F in enumerate(keys.lifts, 1):
        print(f"F_{k} = {F.format()}")
    print("pole orders: " + ", ".join(str(w) for w in keys.omegas))
    print("alphas: " + ", ".join(str(a) for a in keys.alphas))
    if args.all:
        print("full chain:")
        for f, w in keys.chain():
            tag = ", essential" if f in keys.forms else ""
            print(f"  {f.format()}  [pole order {w}{tag}]")
    return EXIT_OK


def cmd_classify(args) -> int:
    from .criteria import semigroup_conditions

    spec = resolve_spec(args)
    rep = semigroup_conditions(spec.pairs, spec.r)
    if args.json:
        _emit(_report_doc(rep))
    else:
        _print_report(rep)
    return EXIT_OK


def cmd_dualgraph(args) -> int:
    from .dualgraph import build_dual_graph, export_graph

    spec = resolve_spec(args)
    g = build_dual_graph(spec.pairs, spec.r)
    fmt = "json" if args.json and args.format == "dot" else args.format
    print(export_graph(g, fmt))
    return EXIT_OK


def cmd_singlepair(args) -> int:
    from .criteria import alpha_invariant, single_pair_closed_form, single_pair_test
    from .puiseux import check_r, check_text, local_pair_data
    from .semidegree import parse_poly

    raw = _read_inputs(args)
    missing = [k for k in ("poly", "p", "q", "r") if k not in raw]
    if missing:
        raise _BadInput(f"singlepair needs {', '.join(missing)}")
    _checked(check_text, raw["poly"], "poly")
    ((q, p),) = _checked(local_pair_data, [(raw["q"], raw["p"])]).pairs
    r = raw["r"]
    _checked(check_r, r)
    f = parse_poly(raw["poly"], xname="u", yname="v")
    algebraic = single_pair_test(f, p, q, r)
    closed = single_pair_closed_form(q, p, r)
    doc = {
        "algebraic": algebraic,
        "alpha": alpha_invariant([(q, p)], r),
        "contractible": closed["contractible"],
        "nonalgebraic_exists": closed["nonalgebraic_exists"],
    }
    if args.json:
        _emit(doc)
        return EXIT_OK
    print(f"alpha = {doc['alpha']}")
    print(f"contractible: {'yes' if closed['contractible'] else 'no'}")
    print(
        "non-algebraic contractions exist for some curve: "
        + ("yes" if closed["nonalgebraic_exists"] else "no")
    )
    print(f"this curve's contraction algebraic: {'yes' if algebraic else 'no'}")
    return EXIT_OK


def _random_series(pairs, rng):
    from fractions import Fraction

    from .puiseux import Orientation, PuiseuxPoly

    coeffs = {}
    for e in pairs.char_exponents():
        num = rng.choice([-3, -2, -1, 1, 2, 3])
        den = rng.choice([1, 2, 3])
        coeffs[e] = Fraction(num, den)
    return PuiseuxPoly(Orientation.LOCAL, coeffs)


def cmd_sweep(args) -> int:
    import random

    from .criteria import Classification, is_algebraic, semigroup_conditions
    from .puiseux import check_r

    spec = resolve_spec(args, need_r=False)
    _checked(check_r, args.r_max)
    rng = random.Random(args.seed) if args.seed is not None else None
    rows = []
    for r in range(args.r_max + 1):
        rep = semigroup_conditions(spec.pairs, r)
        row = {"r": r, "classification": rep.classification.value}
        if rng is not None and rep.classification is not Classification.NOT_CONTRACTIBLE:
            curve = spec.series or _random_series(spec.pairs, rng)
            verdict = is_algebraic(curve, r).algebraic
            row["random_curve_algebraic"] = verdict
            if rep.classification is Classification.ONLY_ALGEBRAIC:
                row["consistent"] = verdict is True
            elif rep.classification is Classification.ONLY_NONALGEBRAIC:
                row["consistent"] = verdict is False
            else:
                row["consistent"] = None
        rows.append(row)
    if args.json:
        _emit({"pairs": [list(pr) for pr in spec.pairs.pairs], "sweep": rows})
        return EXIT_OK
    for row in rows:
        line = f"r={row['r']}: {row['classification']}"
        if "random_curve_algebraic" in row:
            line += f" (sampled curve algebraic: {row['random_curve_algebraic']}"
            if row["consistent"] is not None:
                line += f", consistent: {row['consistent']}"
            line += ")"
        print(line)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="germcontract",
        description="Contractibility and algebraicity of exceptional "
        "configurations attached to a plane curve germ plus r blow-ups.",
    )
    curve = argparse.ArgumentParser(add_help=False)
    curve.add_argument("specfile", nargs="?", help="key = value input file")
    curve.add_argument("--series", help='local series, e.g. "u^(3/5) + u^2"')
    curve.add_argument("--pairs", help="characteristic pairs, e.g. \"[(3,5),(23,2)]\"")
    curve.add_argument("--json", action="store_true", help="machine-readable output")
    withr = argparse.ArgumentParser(add_help=False)
    withr.add_argument("--r", type=int, help="number of extra blow-ups")

    sub = parser.add_subparsers(dest="command", required=True)
    # flags are spelled in full: as a prefix, --r on sweep would mean --r-max
    add_parser = partial(sub.add_parser, allow_abbrev=False)
    p_an = add_parser("analyze", parents=[curve, withr], help="full report")
    p_an.add_argument(
        "--force-keyforms",
        action="store_true",
        help="compute key forms even when not contractible",
    )
    p_an.set_defaults(func=cmd_analyze)
    p_kf = add_parser("keyforms", parents=[curve, withr], help="essential key forms")
    p_kf.add_argument("--all", action="store_true", help="print the full chain")
    p_kf.set_defaults(func=cmd_keyforms)
    p_cl = add_parser("classify", parents=[curve, withr], help="semigroup classification")
    p_cl.set_defaults(func=cmd_classify)
    p_dg = add_parser("dualgraph", parents=[curve, withr], help="weighted dual graph")
    p_dg.add_argument("--format", choices=("dot", "json"), default="dot")
    p_dg.set_defaults(func=cmd_dualgraph)
    p_sp = add_parser("singlepair", help="single-pair Weierstrass shortcut")
    p_sp.add_argument("specfile", nargs="?", help="key = value input file")
    p_sp.add_argument("--poly", help='polynomial in u, v, e.g. "v^5 - u^3"')
    p_sp.add_argument("--p", type=int, help="pair denominator p")
    p_sp.add_argument("--q", type=int, help="pair numerator q")
    p_sp.add_argument("--r", type=int, help="number of extra blow-ups")
    p_sp.add_argument("--json", action="store_true")
    p_sp.set_defaults(func=cmd_singlepair)
    p_sw = add_parser("sweep", parents=[curve], help="classification for r = 0..r-max")
    p_sw.add_argument("--r-max", type=int, required=True)
    p_sw.add_argument("--seed", type=int, help="also test a sampled curve per r")
    p_sw.set_defaults(func=cmd_sweep)
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SeriesParseError, _BadInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InvariantViolationError as exc:
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        print(json.dumps(exc.state, default=repr, sort_keys=True), file=sys.stderr)
        return EXIT_INVARIANT


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: silence the flush at shutdown and exit 1,
        # as in the SIGPIPE note of the Python signal module docs
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(EXIT_BROKEN_PIPE)
    sys.exit(code)


if __name__ == "__main__":
    main()
