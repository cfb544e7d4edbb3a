"""Command-line front end.

Verbs: residue, expand, pfrac, hopf, vertex, bracket, axioms, wallcross,
suite.  Output is deterministic (exact fractions, sorted terms, no
timestamps); exit codes: 0 success, 1 evaluation/suite failure, 2 parse
error.  KVERTEX_SUITE_SEED seeds the randomized suites when `suite` has no
--seed; a value that is no integer exits 2.

`main` builds the subparser of the verb it runs and no other (all nine
when the first argument names no verb, so `kvertex -h` and "invalid
choice" errors are unchanged).  Building every verb's parser took most of
the time of a short command line such as `kvertex residue "1/(1-z)^2"`,
and a fresh parser per call keeps `main` free of state between calls.
Help and error output are byte-identical to the all-verb parser.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .exprparse import EvalError, ParseError, parse_laurent, parse_rational
from .hopf import PhiElement, chern_character, coproduct, phi_pair, star, translation_pairing
from .laurent import LP_ONE, PolyFraction
from .quiver import (GradedElement, Quiver, axiom_check, lie_bracket,
                     vertex_kernel, vertex_shuffle)
from .residues import COHOMOLOGICAL, K_THEORY, NAIVE, residue, residue_coh
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


def parse_grade(q: Quiver, text: str) -> tuple:
    text = text.strip()
    if text.startswith("e"):
        return q.unit(text[1:])
    if text.startswith("(") and text.endswith(")"):
        return tuple(int(x) for x in text[1:-1].split(","))
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
        alpha = tuple(int(x) for x in key.strip("()").split(","))
        out[alpha] = parse_lie_text(expr)
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
    if not (content == LP_ONE):
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
        alpha = tuple(int(x) for x in args.alpha.strip("()").split(","))
        print(lie_to_text(forward_transform(table, args.k, alpha, stability)))
    elif args.action == "invert":
        print(dump_table(invert_transform(table, args.k, stability)))
    else:  # master
        table2 = load_table(args.table2) if args.table2 else table
        alpha = tuple(int(x) for x in args.alpha.strip("()").split(","))
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


def _residue_arguments(p):
    p.add_argument("expr")
    p.add_argument("--kind", choices=("k", "naive", "coh"), default="k")
    p.add_argument("--var", default=None)
    p.set_defaults(fn=cmd_residue)


def _expand_arguments(p):
    p.add_argument("expr")
    p.add_argument("--point", choices=("zero", "infinity", "one"), required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--var", default="z")
    p.set_defaults(fn=cmd_expand)


def _pfrac_arguments(p):
    p.add_argument("expr")
    p.add_argument("--var", default="z")
    p.set_defaults(fn=cmd_pfrac)


def _hopf_arguments(p):
    p.add_argument("action", choices=("star", "pair", "coproduct", "chern", "translation"))
    p.add_argument("args", nargs="*", type=int)
    p.set_defaults(fn=cmd_hopf)


def _vertex_arguments(p):
    p.add_argument("--quiver", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--kernel", action="store_true")
    p.set_defaults(fn=cmd_vertex)


def _bracket_arguments(p):
    p.add_argument("--quiver", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.set_defaults(fn=cmd_bracket)


def _axioms_arguments(p):
    p.add_argument("--quiver", required=True)
    p.add_argument("--which", choices=("vacuum", "skew", "weak_assoc", "locality"),
                   required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--h", default=None)
    p.set_defaults(fn=cmd_axioms)


def _wallcross_arguments(p):
    p.add_argument("action", choices=("forward", "invert", "master"))
    p.add_argument("--stability", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--table2", default=None)
    p.add_argument("--k", required=True)
    p.add_argument("--k2", default=None)
    p.add_argument("--alpha", default=None)
    p.set_defaults(fn=cmd_wallcross)


def _positive_int(text: str) -> int:
    """The argparse type of the suite sizes: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _suite_arguments(p):
    p.add_argument("name")
    p.add_argument("--nmax", type=_positive_int, default=6)
    p.add_argument("--kmax", type=_positive_int, default=4)
    p.add_argument("--count", type=_positive_int, default=None)
    p.add_argument("--order", type=_positive_int, default=12)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_suite)


# verb -> (help text, function adding the verb's arguments), in help order
VERBS = {
    "residue": ("apply a residue map to a rational expression", _residue_arguments),
    "expand": ("formal series expansion at 0, infinity or 1", _expand_arguments),
    "pfrac": ("partial fractions over the cyclotomic cover", _pfrac_arguments),
    "hopf": ("dual Hopf algebra operations", _hopf_arguments),
    "vertex": ("vertex operation on quiver states", _vertex_arguments),
    "bracket": ("residue bracket of degree-0 states", _bracket_arguments),
    "axioms": ("check one vertex-algebra axiom", _axioms_arguments),
    "wallcross": ("framed-invariant transforms", _wallcross_arguments),
    "suite": ("run a batch property suite", _suite_arguments),
}


def build_parser(verb=None) -> argparse.ArgumentParser:
    """The `kvertex` parser with every verb, or with `verb` alone.

    A one-verb parser gives the subparsers the metavar that argparse
    derives from all nine choices, so that the usage line of an error the
    top-level parser reports (an unknown option after the verb) reads as
    with every verb.  The all-verb parser passes no metavar: it would
    replace `verb` in "required: verb" and "argument verb: invalid
    choice"."""
    p = argparse.ArgumentParser(
        prog="kvertex",
        description="Exact engine for residues, multiplicative expansions and "
                    "vertex operations on quiver character rings.")
    if verb is None:
        sub = p.add_subparsers(dest="verb", required=True)
        verbs = VERBS
    else:
        sub = p.add_subparsers(dest="verb", required=True,
                               metavar="{" + ",".join(VERBS) + "}")
        verbs = (verb,)
    for name in verbs:
        help_text, add_arguments = VERBS[name]
        add_arguments(sub.add_parser(name, help=help_text))
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in VERBS else None)
    args = parser.parse_args(argv)
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
