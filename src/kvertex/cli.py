"""Command-line front end.

Verbs: residue, expand, pfrac, hopf, vertex, bracket, axioms, wallcross,
suite.  Output is deterministic (exact fractions, sorted terms, no
timestamps); exit codes: 0 success, 1 evaluation/suite failure, 2 parse
error.  KVERTEX_SUITE_SEED seeds the randomized suites when `suite` has no
--seed; a value that is no integer exits 2.

VERBS is the one table of the command line: each verb's help text, its
`cmd_*` function and the (name, keywords) specs of its arguments.  Two
readers use it.  `_parse` reads a well-formed line straight from the specs
and returns the namespace argparse would give; building an argparse parser
took about half the time of a short command line such as
`kvertex residue "1/(1-z)^2"`.  Only when `_parse` declines a line (help,
`--`, an abbreviation, any usage error) does `main` build the argparse
parser of all nine verbs with `build_parser`, so help and error output are
argparse's own.  No parser outlives a call, and `main` keeps no state
between calls.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .exprparse import EvalError, ParseError, parse_laurent, parse_rational
from .hopf import PhiElement, chern_character, coproduct, phi_pair, star, translation_pairing
from .laurent import LP_ONE, PolyFraction
from .quiver import (GradedElement, Quiver, axiom_check, lie_bracket,
                     vertex_kernel, vertex_shuffle)
from .residues import K_THEORY, NAIVE, residue, residue_coh
from .series import expand_at, partial_fractions
from .suites import DEFAULT_SEED, SUITES
from .wallcross import (StabilityData, forward_transform, invert_transform,
                        lie_to_text, master_identity_residual, parse_lie_text)


def parse_quiver_text(text: str) -> Quiver:
    """Line-oriented format: `vertex <name>` and `edge <src> <dst>` records,
    `#` comments, blank lines ignored."""
    vertices = []
    edges = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertex" and len(parts) == 2:
            vertices.append(parts[1])
        elif parts[0] == "edge" and len(parts) == 3:
            edges.append((parts[1], parts[2]))
        else:
            raise EvalError(f"bad quiver record on line {lineno}: {raw!r}")
    return Quiver(tuple(vertices), tuple(edges))


def load_quiver(path: str) -> Quiver:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_quiver_text(fh.read())


def parse_class(text: str) -> tuple:
    """A dimension vector `d1,d2,...` of integers, bare or inside one pair of
    parentheses."""
    inner = text[1:-1] if text.startswith("(") and text.endswith(")") else text
    try:
        return tuple(int(x) for x in inner.split(","))
    except ValueError:
        raise EvalError(f"bad class {text!r}; use (d1,d2,...) with integer entries") from None


def parse_grade(q: Quiver, text: str) -> tuple:
    text = text.strip()
    if text.startswith("e"):
        if text[1:] not in q.vertices:
            raise EvalError(f"bad grade {text!r}: the quiver has no vertex {text[1:]!r}")
        return q.unit(text[1:])
    if text.startswith("(") and text.endswith(")"):
        return parse_class(text)
    raise EvalError(f"bad grade {text!r}; use e<vertex> or (d1,d2,...)")


def parse_state(q: Quiver, text: str) -> GradedElement:
    """`<expr>@<grade>` with block variables s_{i,a}."""
    if "@" not in text:
        raise EvalError(f"state {text!r} must have the form expr@grade")
    expr, grade = text.rsplit("@", 1)
    poly = parse_laurent(expr, var="\x00never")
    return GradedElement(q, parse_grade(q, grade), poly)


def load_stability(path: str) -> StabilityData:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return StabilityData.make(tuple(data["rank"]), tuple(data["slope"]),
                              {k: tuple(v) for k, v in data["frames"].items()})


def load_table(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    out = {}
    for key, expr in data.items():
        out[parse_class(key)] = parse_lie_text(expr)
    return out


def dump_table(table: dict) -> str:
    obj = {"(" + ",".join(str(a) for a in alpha) + ")": lie_to_text(v)
           for alpha, v in sorted(table.items())}
    return json.dumps(obj, indent=2, sort_keys=True)


def cmd_residue(args) -> int:
    if args.kind == "coh":
        poly = parse_laurent(args.expr, var=args.var or "u")
        print(residue_coh(poly, args.var or "u"))
        return 0
    f, content = parse_rational(args.expr, args.var or "z")
    kind = K_THEORY if args.kind == "k" else NAIVE
    value = residue(f, kind)
    if not (content == LP_ONE or value.is_zero()):
        value = PolyFraction.of(value) / PolyFraction.of(content)
    print(value)
    return 0


def cmd_expand(args) -> int:
    f, content = parse_rational(args.expr, args.var)
    ser = expand_at(f, args.point, args.order)
    if not (content == LP_ONE):
        ser = ser * PolyFraction(LP_ONE, content)
    print(str(ser))
    return 0


def cmd_pfrac(args) -> int:
    f, content = parse_rational(args.expr, args.var)
    if not (content == LP_ONE):
        raise EvalError("pfrac expects a denominator built from (1 - c z^n) factors only")
    print(str(partial_fractions(f)))
    return 0


# the integer arguments of each hopf action, by name
HOPF_ARGS = {"star": ("A", "B"), "pair": ("K", "N"), "coproduct": ("K",),
             "chern": ("K",), "translation": ("N", "ORDER")}


def cmd_hopf(args) -> int:
    ints = args.args
    names = HOPF_ARGS[args.action]
    if len(ints) != len(names):
        print(f"usage: kvertex hopf {args.action} {' '.join(names)}", file=sys.stderr)
        print(f"kvertex hopf: error: {args.action} takes {len(names)} integer "
              f"argument{'s' if len(names) > 1 else ''}, got {len(ints)}", file=sys.stderr)
        return 2
    if args.action == "star":
        print(str(star(PhiElement.basis(ints[0]), PhiElement.basis(ints[1]))))
    elif args.action == "pair":
        print(str(phi_pair(PhiElement.basis(ints[0]), ints[1])))
    elif args.action == "coproduct":
        pairs = coproduct(PhiElement.basis(ints[0]))
        print(" + ".join(f"({l}) (x) ({r})" for l, r in pairs))
    elif args.action == "chern":
        print(str(chern_character(PhiElement.basis(ints[0]))))
    else:  # translation
        print(str(translation_pairing(ints[0], ints[1])))
    return 0


def cmd_vertex(args) -> int:
    q = load_quiver(args.quiver)
    f = parse_state(q, args.f)
    g = parse_state(q, args.g)
    if args.kernel:
        print(str(vertex_kernel(f, g)))
    else:
        print(str(vertex_shuffle(f, g)))
    return 0


def cmd_bracket(args) -> int:
    q = load_quiver(args.quiver)
    f = parse_state(q, args.f)
    g = parse_state(q, args.g)
    print(str(lie_bracket(f, g)))
    return 0


def cmd_axioms(args) -> int:
    q = load_quiver(args.quiver)
    f = parse_state(q, args.f)
    g = parse_state(q, args.g)
    h = parse_state(q, args.h) if args.h else None
    ok, witness = axiom_check(q, args.which, f, g, h)
    print(f"{args.which}: {'PASS' if ok else 'FAIL'}")
    if witness is not None:
        print(f"differing coefficient {witness['coefficient']} at {witness['monomial']}")
    return 0 if ok else 1


# the options each wallcross action needs beyond --stability, --table and --k
WALLCROSS_ARGS = {"forward": ("alpha",), "invert": (), "master": ("k2", "alpha")}


def cmd_wallcross(args) -> int:
    names = WALLCROSS_ARGS[args.action]
    missing = [f"--{n}" for n in names if getattr(args, n) is None]
    if missing:
        print(f"usage: kvertex wallcross {args.action} --stability STABILITY --table TABLE --k K"
              + "".join(f" --{n} {n.upper()}" for n in names), file=sys.stderr)
        print(f"kvertex wallcross: error: {args.action} requires {' and '.join(missing)}",
              file=sys.stderr)
        return 2
    stability = load_stability(args.stability)
    table = load_table(args.table)
    if args.action == "forward":
        alpha = parse_class(args.alpha)
        print(lie_to_text(forward_transform(table, args.k, alpha, stability)))
    elif args.action == "invert":
        print(dump_table(invert_transform(table, args.k, stability)))
    else:  # master
        table2 = load_table(args.table2) if args.table2 else table
        alpha = parse_class(args.alpha)
        print(lie_to_text(master_identity_residual(table, table2, args.k, args.k2,
                                                   alpha, stability)))
    return 0


def cmd_suite(args) -> int:
    fn = SUITES.get(args.name)
    if fn is None:
        raise EvalError(f"unknown suite {args.name!r}; choose from {sorted(SUITES)}")
    seed = args.seed
    if seed is None:
        text = os.environ.get("KVERTEX_SUITE_SEED", str(DEFAULT_SEED))
        try:
            seed = int(text)
        except ValueError:
            print(f"kvertex suite: error: KVERTEX_SUITE_SEED must be an integer, got {text!r}",
                  file=sys.stderr)
            return 2
    kwargs = {}
    if args.name == "residue-constraints":
        kwargs = {"n_max": args.nmax, "k_max": args.kmax}
    elif args.name == "residue-oracle":
        kwargs = {"count": args.count, "seed": seed}
    elif args.name == "residue-theorem":
        kwargs = {"seed": seed}
    elif args.name == "diagonal-expansion":
        kwargs = {"order": args.order}
    elif args.name in ("vertex-axioms", "reduced"):
        kwargs = {"seed": seed, "per_config": args.count}
    elif args.name == "conner-floyd":
        kwargs = {"count": args.count, "seed": seed}
    # without --count each suite keeps its own default
    kwargs = {k: v for k, v in kwargs.items() if v is not None}
    cases = fn(**kwargs)
    npass = 0
    for name, ok, detail in cases:
        status = "PASS" if ok else "FAIL"
        line = f"{status} {name}"
        if detail:
            line += f": {detail}"
        print(line)
        npass += ok
    print(f"PASS {npass}/{len(cases)}")
    return 0 if npass == len(cases) else 1


def _positive_int(text: str) -> int:
    """The argparse type of the suite sizes and the expansion order: an
    integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


# the quiver file and the two states of `vertex` and `bracket`
STATE_ARGUMENTS = (("--quiver", {"required": True}), ("--f", {"required": True}),
                   ("--g", {"required": True}))

# verb -> (help text, command, argument specs), in help order; each spec is
# the (name, keywords) of one add_argument call, in the order of the help
VERBS = {
    "residue": ("apply a residue map to a rational expression", cmd_residue, (
        ("expr", {}),
        ("--kind", {"choices": ("k", "naive", "coh"), "default": "k"}),
        ("--var", {"default": None}))),
    "expand": ("formal series expansion at 0, infinity or 1", cmd_expand, (
        ("expr", {}),
        ("--point", {"choices": ("zero", "infinity", "one"), "required": True}),
        ("--order", {"type": _positive_int, "required": True}),
        ("--var", {"default": "z"}))),
    "pfrac": ("partial fractions over the cyclotomic cover", cmd_pfrac, (
        ("expr", {}),
        ("--var", {"default": "z"}))),
    "hopf": ("dual Hopf algebra operations", cmd_hopf, (
        ("action", {"choices": ("star", "pair", "coproduct", "chern", "translation")}),
        ("args", {"nargs": "*", "type": int}))),
    "vertex": ("vertex operation on quiver states", cmd_vertex, STATE_ARGUMENTS + (
        ("--kernel", {"action": "store_true"}),)),
    "bracket": ("residue bracket of degree-0 states", cmd_bracket, STATE_ARGUMENTS),
    "axioms": ("check one vertex-algebra axiom", cmd_axioms, (
        ("--quiver", {"required": True}),
        ("--which", {"choices": ("vacuum", "skew", "weak_assoc", "locality"),
                     "required": True}),
        ("--f", {"required": True}),
        ("--g", {"required": True}),
        ("--h", {"default": None}))),
    "wallcross": ("framed-invariant transforms", cmd_wallcross, (
        ("action", {"choices": ("forward", "invert", "master")}),
        ("--stability", {"required": True}),
        ("--table", {"required": True}),
        ("--table2", {"default": None}),
        ("--k", {"required": True}),
        ("--k2", {"default": None}),
        ("--alpha", {"default": None}))),
    "suite": ("run a batch property suite", cmd_suite, (
        ("name", {}),
        ("--nmax", {"type": _positive_int, "default": 6}),
        ("--kmax", {"type": _positive_int, "default": 4}),
        ("--count", {"type": _positive_int, "default": None}),
        ("--order", {"type": _positive_int, "default": 12}),
        ("--seed", {"type": int, "default": None}))),
}


def build_parser() -> argparse.ArgumentParser:
    """The `kvertex` argparse parser, with every verb of VERBS."""
    p = argparse.ArgumentParser(
        prog="kvertex",
        description="Exact engine for residues, multiplicative expansions and "
                    "vertex operations on quiver character rings.")
    sub = p.add_subparsers(dest="verb", required=True)
    for name, (help_text, fn, specs) in VERBS.items():
        verb_parser = sub.add_parser(name, help=help_text)
        for arg, kwargs in specs:
            verb_parser.add_argument(arg, **kwargs)
        verb_parser.set_defaults(fn=fn)
    return p


# the strings argparse reads as negative numbers, hence as values, in a
# parser that has no option which looks like one (no verb has)
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _value(kwargs, text):
    """`text` converted by the spec's type and checked against its choices."""
    value = kwargs.get("type", str)(text)
    choices = kwargs.get("choices")
    if choices is not None and value not in choices:
        raise ValueError(f"invalid choice: {text!r}")
    return value


def _parse(argv):
    """The namespace `build_parser().parse_args(argv)` returns, read from
    the specs of VERBS without building a parser; None for any line that
    this reader does not read exactly as argparse does.

    It reads exact long options, as `--name value` or `--name=value`,
    `store_true` flags without `=`, and values that do not start with `-`
    or are negative numbers.  Help, `--`, abbreviations, unknown options, a
    value argparse would reject and a missing or extra argument all give
    None, and `main` leaves the line to argparse, which prints the help or
    the error."""
    if not argv or argv[0] not in VERBS:
        return None
    _help, fn, specs = VERBS[argv[0]]
    options = {name: kwargs for name, kwargs in specs if name.startswith("-")}
    values = {}
    for name, kwargs in options.items():
        # argparse's default where a spec names none: False for a flag, else None
        flag = kwargs.get("action") == "store_true"
        values[name.lstrip("-")] = kwargs.get("default", False if flag else None)
    seen = set()
    words = []
    rest = iter(argv[1:])
    try:
        for arg in rest:
            if not arg.startswith("-") or _NEGATIVE_NUMBER.match(arg):
                words.append(arg)
                continue
            name, eq, text = arg.partition("=")
            kwargs = options.get(name)
            if kwargs is None:
                return None
            if kwargs.get("action") == "store_true":
                if eq:
                    return None
                values[name.lstrip("-")] = True
            else:
                if not eq:
                    text = next(rest, None)
                    if text is None or (text.startswith("-")
                                        and not _NEGATIVE_NUMBER.match(text)):
                        return None
                values[name.lstrip("-")] = _value(kwargs, text)
            seen.add(name)
        for name, kwargs in specs:
            if name in options:
                if kwargs.get("required") and name not in seen:
                    return None
            elif kwargs.get("nargs") == "*":
                values[name] = [_value(kwargs, word) for word in words]
                words = []
            elif words:
                values[name] = _value(kwargs, words.pop(0))
            else:
                return None
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return None
    if words:
        return None
    return argparse.Namespace(verb=argv[0], fn=fn, **values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (EvalError, ValueError, KeyError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
