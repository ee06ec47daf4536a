"""Command-line surface: every numeric output is exact (big integers and
rationals serialized as strings).  Exit codes: 0 success, 1 usage/input
error, 2 verified-property violation (a detected bug, kept distinct so CI
can tell it apart from bad input)."""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import List, Optional

# a module that only one command needs is imported by that command
from . import dimension, families
from .counting import AssignmentError, count as engine_count
from .families import FamilyAt, count_family, get_family
from .logic import PfdimError, load_structure
from .parser import ParseDiagnostic, parse_formula


def _emit(payload: dict) -> None:
    """Write ``payload`` as ``json.dump(payload, indent=2)`` would, then a
    newline, in one write.  ``json``'s own encoder with ``indent`` is pure
    Python and leaves its closures as cyclic garbage on every call."""
    out: List[str] = []
    _encode(payload, "\n", out, {})
    out.append("\n")
    sys.stdout.write("".join(out))


_encode_str = json.encoder.encode_basestring_ascii   # C code


def _encode_float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


# by exact type; a subclass goes through _scalar's isinstance checks
_SCALAR_TEXT = {str: _encode_str, int: int.__repr__, float: _encode_float,
                bool: {True: "true", False: "false"}.__getitem__,
                type(None): lambda _: "null"}


def _scalar(value) -> str:
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _encode_float(value)
    raise TypeError(
        f"Object of type {value.__class__.__name__} is not JSON serializable")


def _encode_key(key) -> str:
    if isinstance(key, str):
        return _encode_str(key)
    if key is None or isinstance(key, (int, float)):   # bool is an int
        return _encode_str(_scalar(key))
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _encode(value, newline: str, out: List[str], memo: dict) -> None:
    """Append the text of ``value`` to ``out``; ``newline`` is a newline and
    the indent of the line ``value`` starts on.  ``memo`` holds the text
    of each tuple written so far in this payload, by (id, newline)."""
    text = _SCALAR_TEXT.get(value.__class__)
    if text is not None:
        out.append(text(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            sep += (_encode_str(key) if key.__class__ is str
                    else _encode_key(key)) + ": "
            # a scalar is written here, without a call of its own
            text = _SCALAR_TEXT.get(item.__class__)
            if text is None:
                out.append(sep)
                _encode(item, inner, out, memo)
            else:
                out.append(sep + text(item))
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        shared = value.__class__ is tuple
        if shared:
            memo_key = (id(value), newline)
            if memo_key in memo:
                out.append(memo[memo_key])
                return
            start = len(out)
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            text = _SCALAR_TEXT.get(item.__class__)
            if text is None:
                out.append(sep)
                _encode(item, inner, out, memo)
            else:
                out.append(sep + text(item))
            sep = "," + inner
        out.append(newline + "]")
        if shared:
            memo[memo_key] = "".join(out[start:])
    else:
        out.append(_scalar(value))


def _parse_ints(text: str) -> List[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise PfdimError(f"bad index list {text!r}")


def _parse_indices(text: str) -> List[int]:
    """A family index list, which must name at least one index."""
    indices = _parse_ints(text)
    if not indices:
        raise PfdimError(f"index list {text!r} names no index")
    return indices


def nonnegative(text: str) -> float:
    """A finite float >= 0: --tau and --gamma are echoed as JSON."""
    value = float(text)   # argparse reports a ValueError as invalid input
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a finite nonnegative number")
    return value


def _parse_fraction(text: str):
    from fractions import Fraction
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise PfdimError(f"bad rational {text!r}")


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_count(args) -> int:
    M = load_structure(args.structure)
    phi = parse_formula(args.formula, M.signature)
    fixed = {}
    repeated = set()
    for item in args.fix or []:
        for piece in item.split(","):
            if not piece.strip():
                continue
            name, _, val = piece.partition("=")
            name = name.strip()
            if name in fixed:
                repeated.add(name)
            fixed[name] = int(val)
    if repeated:
        raise AssignmentError(
            f"variables fixed more than once: {sorted(repeated)}")
    counted = args.count_vars.split(",") if args.count_vars else []
    result = engine_count(phi, M, fixed, [v.strip() for v in counted],
                          budget=args.budget)
    _emit({"count": str(result.value)})
    return 0


def _cmd_family(args) -> int:
    family = get_family(args.name)
    if args.formula is not None:
        if args.out not in (None, "-"):
            raise PfdimError("--out writes the structure; "
                             "a --formula count goes to stdout")
        at = FamilyAt(family, args.index)
        (phi, params), = at.conjunctions([(args.formula, args.selector)])
        result = at.count(phi, params, args.budget)
        _emit({"familyId": args.name, "index": args.index,
               "formula": args.formula, "selector": args.selector,
               "count": str(result.value)})
        return 0
    if args.selector is not None or args.budget is not None:
        raise PfdimError("--selector and --budget need --formula")
    M = families.generate(args.name, args.index)
    text = M.to_json()
    if args.out in (None, "-"):
        sys.stdout.write(text + "\n")
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0


def _cmd_dim_compare(args) -> int:
    family = get_family(args.family)
    indices = _parse_indices(args.indices)
    X = count_family(args.formula_x, family, indices,
                     selector=args.selector_x, budget=args.budget)
    Y = count_family(args.formula_y, family, indices,
                     selector=args.selector_y, budget=args.budget)
    verdict = dimension.delta_compare(X, Y, tau=args.tau)
    _emit(verdict.to_json_dict())
    return 0


def _parse_step(text: str):
    formula, sep, selector = text.partition("@")
    return (formula.strip(), selector.strip() if sep else None)


def _cmd_chain(args) -> int:
    family = get_family(args.family)
    steps = [_parse_step(s) for s in args.step]
    report = dimension.chain_detect(family, steps,
                                    _parse_indices(args.indices),
                                    tau=args.tau)
    _emit(report.to_json_dict())
    return 0


def _cmd_spectrum(args) -> int:
    family = get_family(args.family)
    report = dimension.fmv_spectrum(family, args.formula,
                                    _parse_indices(args.indices),
                                    gamma=args.gamma)
    if args.csv:
        dimension.export_csv(report, args.csv)
    _emit(report.to_json_dict())
    return 0


def _parse_group_params(args) -> list:
    params = []
    for item in args.param or []:
        try:
            params.append(tuple(int(x) for x in item.split(",")))
        except ValueError:
            raise PfdimError(f"bad parameter tuple {item!r}")
    return params


def _cmd_abelian_count(args) -> int:
    from . import abelian
    atoms = abelian.parse_standard_conjunction(args.formula, args.r, args.s)
    params = _parse_group_params(args)
    if args.symbolic:
        cases = abelian.symbolic_count(atoms, args.r, args.p, d=args.d)
        payload = {"cases": [c.to_json_dict() for c in cases]}
        if params or args.s == 0:
            case, value = abelian.select_case(cases, params, args.p,
                                              args.n, args.m)
            payload["fired"] = case.to_json_dict()
            payload["count"] = str(value.value)
        _emit(payload)
        return 0
    result = abelian.exact_count(atoms, params, args.p, args.n, args.m)
    if args.p ** (args.n * args.m) <= 10 ** 6:
        check = abelian.brute_count(atoms, params, args.p, args.n, args.m)
        if result.value != check.value:
            _emit({"violation": "oracle/brute-force mismatch",
                   "oracle": str(result.value),
                   "bruteForce": str(check.value)})
            return 2
    _emit({"count": str(result.value)})
    return 0


def _cmd_vs_count(args) -> int:
    from . import vspace
    # the closed forms read only (q, dim): the structure is never built
    space = families.vector_space_ambient(args.q, args.dim)
    if args.coset_spec:
        if args.w is not None or args.wprime is not None:
            raise vspace.VSpaceError(
                "give either --coset-spec or --w/--wprime, not both")
        with open(args.coset_spec) as fh:
            spec = json.load(fh)
        if not isinstance(spec, dict):
            raise vspace.VSpaceError("coset spec must be a JSON object")

        def coset(d):
            try:
                return vspace.Coset(tuple(d["point"]),
                                    tuple(tuple(r) for r in d.get("rows", [])))
            except (KeyError, TypeError, AttributeError):
                raise vspace.VSpaceError(
                    f"bad coset {d!r}: need a 'point' list and optional "
                    "'rows' lists") from None

        result = vspace.count_coset_difference(
            space, [coset(d) for d in spec.get("include", [])],
            [coset(d) for d in spec.get("exclude", [])])
        _emit({"count": str(result.count.value),
               "poly": result.poly.to_json_dict()})
        return 0
    w = _parse_ints(args.w) if args.w else []
    wp = _parse_ints(args.wprime) if args.wprime else []
    case = vspace.count_theta_case(space, w, wp)
    _emit({"count": str(case.count.value), "guard": case.guard,
           "poly": case.poly.to_json_dict(),
           "firstDisjunct": {"count": str(case.first_count.value),
                             "poly": case.first_poly.to_json_dict()},
           "secondDisjunct": {"count": str(case.second_count.value),
                              "poly": case.second_poly.to_json_dict()}})
    return 0


def _load_space(path: str):
    from . import measure
    with open(path) as fh:
        return measure.space_from_json(fh.read())


def _frac_str(f) -> str:
    return f"{f.numerator}/{f.denominator}"


def _witness(key: str, search, space, events, arg) -> int:
    """Emit ``search(space, events, arg)``'s witness, its events under
    ``key``; a failed search other than a refused hypothesis is a
    ``violation`` with exit 2."""
    from . import measure
    try:
        witness = search(space, events, arg)
    except measure.HypothesisError:
        raise
    except measure.MeasureError as exc:
        _emit({"violation": str(exc)})
        return 2
    _emit({key: list(witness.indices),
           "measure": _frac_str(witness.measure),
           "bound": _frac_str(witness.bound)})
    return 0


def _cmd_measure_kcap(args) -> int:
    from . import measure
    space, events = _load_space(args.space)
    return _witness("indices", measure.find_k_intersection, space, events,
                    args.k)


def _cmd_pairwise_check(args) -> int:
    from . import measure
    space, events = _load_space(args.space)
    return _witness("pair", measure.pairwise_threshold_check, space, events,
                    _parse_fraction(args.eps))


def _cmd_word_image(args) -> int:
    from . import groups
    G = groups.builtin_group(args.group)
    word = groups.parse_word(args.word)
    image = groups.word_image(word, G, budget=args.budget)
    payload = {"group": args.group, "word": args.word,
               "imageSize": len(image), "image": sorted(image)}
    if args.triple:
        covers, missing = groups.triple_product_covers(image, image, image, G)
        payload["tripleProductCovers"] = covers
        payload["missing"] = missing
    _emit(payload)
    return 0


# ---------------------------------------------------------------------------
# argument parser


# each subcommand's one-line help and implementation, in --help order
_COMMANDS = {
    "count": ("count satisfying assignments", _cmd_count),
    "family": ("generate or count along a family", _cmd_family),
    "dim-compare": ("compare growth of two count sequences", _cmd_dim_compare),
    "chain": ("detect strictly dropping chains", _cmd_chain),
    "spectrum": ("per-parameter log-count spectrum", _cmd_spectrum),
    "abelian-count": ("count standard-form sets in (Z/p^nZ)^m",
                      _cmd_abelian_count),
    "vs-count": ("count theta/coset sets over (V, F)", _cmd_vs_count),
    "measure-kcap": ("k-wise intersection bound witness", _cmd_measure_kcap),
    "pairwise-check": ("pairwise intersection threshold",
                       _cmd_pairwise_check),
    "word-image": ("image of a word map on a group", _cmd_word_image)}

_BUDGET_HELP = ("step budget: assignments times quantifier visits "
                "(default PFDIM_BUDGET)")


def _add_arguments(name: str, p: argparse.ArgumentParser) -> None:
    """Subcommand ``name``'s arguments on ``p``; ``func`` defaults to its
    implementation and ``command`` to ``name``, as the top parser sets it."""
    if name == "count":
        p.add_argument("--structure", required=True)
        p.add_argument("--formula", required=True)
        p.add_argument("--fix", action="append",
                       help="var=elementId[,var=id...]")
        p.add_argument("--count-vars", required=True)
        p.add_argument("--budget", type=int, default=None, help=_BUDGET_HELP)
    elif name == "family":
        p.add_argument("--name", required=True)
        p.add_argument("--index", type=int, required=True)
        p.add_argument("--out")
        p.add_argument("--formula")
        p.add_argument("--selector")
        p.add_argument("--budget", type=int, default=None, help=_BUDGET_HELP)
    elif name == "dim-compare":
        p.add_argument("--family", required=True)
        p.add_argument("--formula-x", required=True)
        p.add_argument("--selector-x")
        p.add_argument("--formula-y", required=True)
        p.add_argument("--selector-y")
        p.add_argument("--indices", required=True)
        p.add_argument("--tau", type=nonnegative,
                       default=dimension.TAU_DEFAULT)
        p.add_argument("--budget", type=int, default=None, help=_BUDGET_HELP)
    elif name == "chain":
        p.add_argument("--family", required=True)
        p.add_argument("--step", action="append", required=True,
                       help="formula[@selector], repeatable")
        p.add_argument("--indices", required=True)
        p.add_argument("--tau", type=nonnegative,
                       default=dimension.TAU_DEFAULT)
    elif name == "spectrum":
        p.add_argument("--family", required=True)
        p.add_argument("--formula", required=True)
        p.add_argument("--indices", required=True)
        p.add_argument("--gamma", type=nonnegative,
                       default=dimension.GAMMA_DEFAULT)
        p.add_argument("--csv",
                       help="write (index, series, logCount) rows here")
    elif name == "abelian-count":
        p.add_argument("--p", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--r", type=int, default=1, help="counted variables")
        p.add_argument("--s", type=int, default=0,
                       help="parameter variables")
        p.add_argument("--formula", required=True)
        p.add_argument("--param", action="append",
                       help="parameter tuple 'c1,c2,...', repeatable")
        p.add_argument("--symbolic", action="store_true")
        p.add_argument("--d", type=int, default=None)
    elif name == "vs-count":
        p.add_argument("--q", type=int, required=True)
        p.add_argument("--dim", type=int, required=True)
        p.add_argument("--w", help="comma-separated vector ids w_1..w_m")
        p.add_argument("--wprime",
                       help="comma-separated vector ids w'_1..w'_m'")
        p.add_argument("--coset-spec",
                       help="JSON file with include/exclude cosets")
    elif name == "measure-kcap":
        p.add_argument("--space", required=True)
        p.add_argument("--k", type=int, required=True)
    elif name == "pairwise-check":
        p.add_argument("--space", required=True)
        p.add_argument("--eps", required=True)
    elif name == "word-image":
        p.add_argument("--group", required=True)
        p.add_argument("--word", required=True)
        p.add_argument("--triple", action="store_true",
                       help="also check whether image^3 covers the group")
        p.add_argument("--budget", type=int, default=10 ** 8,
                       help="word-evaluation budget (default 10^8)")
    p.set_defaults(func=_COMMANDS[name][1], command=name)


def build_parser() -> argparse.ArgumentParser:
    """The top parser, built afresh: every subcommand sets ``command`` to
    its name."""
    top = argparse.ArgumentParser(
        prog="pfdim",
        description="Exact counting of definable sets in finite structures")
    sub = top.add_subparsers(dest="command", required=True)
    for name, (text, _) in _COMMANDS.items():
        _add_arguments(name, sub.add_parser(name, help=text))
    return top


# each parser is built on first use, not at import, and then reused:
# building one costs about 30 times as much as parsing one command line
_top_parser = functools.cache(build_parser)


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """Subcommand ``name``'s parser on its own, as the top parser's
    ``add_parser`` makes it."""
    p = argparse.ArgumentParser(prog=f"pfdim {name}")
    _add_arguments(name, p)
    return p


def _parse_args(argv: List[str]) -> argparse.Namespace:
    """``argv`` parsed as the top parser parses it.  A known subcommand
    goes straight to its own parser, built alone, with the same namespace,
    usage text and exit code; anything else (no argv, an unknown command,
    --help, stray arguments) goes through the top parser."""
    if not argv or argv[0] not in _COMMANDS:
        return _top_parser().parse_args(argv)
    args, extra = _command_parser(argv[0]).parse_known_args(argv[1:])
    if extra:    # reported by the top parser, as its parse_args does
        _top_parser().error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the input-error code
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ParseDiagnostic as diag:
        print(f"parse error: {diag}", file=sys.stderr)
        return 1
    except (PfdimError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
