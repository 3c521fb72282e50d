"""Command-line interface.

Exit codes: 0 all checks passed, 1 a check failed or stdout closed early,
2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import TYPE_CHECKING

from . import REPORT_VERSION, __version__

# Each command imports the modules it runs when it runs: a process compiles
# every module it imports unless bytecode is cached, and runs one command.
if TYPE_CHECKING:
    from .lattice import HomologyClass
    from .manifold import FourManifoldModel

# `monodromy check` prints its words letter by letter, so a word is refused
# before anything is spelled or evaluated when it would spell more letters
MAX_WORD_LETTERS = 1_000_000
# `plumbing cp --invert` builds and prints the n x n adjugate of an n-vertex
# chain, and `sw e1-surgery` multiplies one polynomial per knot, so
# a longer chain (--weights entries, or p - 1 for --p) or a longer knot list
# is refused before any chain or polynomial is built
MAX_CHAIN_VERTICES = 300
MAX_KNOTS = 200
# Magnitudes are bounded too, before any adjugate or polynomial is built.
# Each adjugate entry is a product of two continuants, so n^2 times the bit
# length of the largest continuant sizes the adjugate that --invert prints
# (--p 301 comes to 1.5 million, 300 weights of -20 to 117 million).  The
# printed integers stay below 4300 digits, where int to str stops, when the
# inputs have at most 4000 digits together: an SW coefficient has at most
# about 120 digits more than the twists, and a continuant is at most the
# product of the |weight| + 1, below 10^(the weights' digits).  The entries
# of a model file's Gram share the total, which caps its rank at 63
MAX_ADJUGATE_BITS = 150_000_000
MAX_INPUT_DIGITS = 4000


class CliError(Exception):
    pass


def resolve_model(spec: str) -> FourManifoldModel:
    """A builtin name like ``e1``, ``yn:3``, ``xn:2``, or else a model file path.

    Builtin names come first, so a file of the same name cannot shadow them.
    """
    from . import pipelines
    from .manifold import FourManifoldModel
    from .models import e1, v_n, y_n
    # the family models (xn:2, qn:1, ...) come from pipelines.FAMILIES, and so
    # do zn and wn, the ambients that the xn and qn rows blow down
    builtin = {"yn": y_n, "vn": v_n, "zn": pipelines.FAMILIES["xn"].ambient,
               "wn": pipelines.FAMILIES["qn"].ambient}
    name, _, param = spec.partition(":")
    key = name.lower()
    if key != "e1" and key not in builtin and key not in pipelines.FAMILIES:
        try:
            with open(spec) as fh:
                data = json.load(fh)
            _check_digits(_gram_entries(data), "model Gram entries")
            return FourManifoldModel.from_dict(data)
        except FileNotFoundError:
            raise CliError(f"no model file or builtin named {spec!r}") from None
        except (OSError, ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
            raise CliError(f"cannot load model file {spec!r}: {exc}") from exc
    if key == "e1":
        return e1()
    if not param:
        raise CliError(f"builtin {name!r} needs a parameter, e.g. {name}:2")
    try:
        n = int(param)
    except ValueError:
        raise CliError(f"bad model parameter {param!r}") from None
    if key in pipelines.FAMILIES:
        return pipelines.build_family(key, n)[0]
    return builtin[key](n)


def _gram_entries(data) -> list[int]:
    """The integer entries of a model payload's Gram; the schema is checked later."""
    gram = data.get("gram") if isinstance(data, dict) else None
    rows = gram if isinstance(gram, list) else ()
    return [x for row in rows if isinstance(row, list) for x in row if type(x) is int]


_CLASS_TERM = re.compile(r"\s*(?P<sign>[+-])?\s*(?P<coeff>\d+)?\s*\*?\s*(?P<name>[A-Za-z][A-Za-z0-9_]*)?\s*")


def parse_class(model: FourManifoldModel, text: str) -> HomologyClass:
    """Parse expressions like ``T+E0+E1+E2``, ``3*T - eps1``, or ``-K0``."""
    from .models import class_from_coeffs
    total = model.lattice.zero()
    pos = 0
    first = True
    while pos < len(text):
        m = _CLASS_TERM.match(text, pos)
        if not m or m.end() == pos:
            raise CliError(f"cannot parse class expression at position {pos}: {text[pos:]!r}")
        sign, coeff, name = m.group("sign"), m.group("coeff"), m.group("name")
        if sign is None and not first:
            raise CliError(f"missing +/- between terms in {text!r}")
        if name is None and coeff is None:
            raise CliError(f"empty term in class expression {text!r}")
        factor = -1 if sign == "-" else 1
        value = factor * (int(coeff) if coeff else 1)
        if name is None:
            raise CliError(f"bare integer {coeff!r} in class expression (classes only)")
        try:
            total = total + class_from_coeffs(model, {name: value})
        except KeyError:
            raise CliError(f"unknown class name {name!r}") from None
        pos = m.end()
        first = False
    if first:
        raise CliError("empty class expression")
    return total


def _emit(payload: dict, as_json: bool, text: str) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print(text)


def cmd_verify_paper(args) -> int:
    from .pipelines import verify_paper
    rep = verify_paper(only=args.only)
    _emit(rep.to_dict(), args.json, rep.to_text())
    return 0 if rep.all_pass else 1


def cmd_family(args) -> int:
    from .pipelines import build_family
    model, rep = build_family(args.family, args.n)
    if args.model_out:
        try:
            with open(args.model_out, "w") as fh:
                json.dump(model.to_dict(), fh, sort_keys=True, indent=2)
                fh.write("\n")
        except OSError as exc:
            raise CliError(f"cannot write model file {args.model_out!r}: {exc}") from exc
    _emit({**rep.to_dict(), "model": model.to_dict()}, args.json, rep.to_text())
    return 0 if rep.all_pass else 1


def cmd_monodromy_check(args) -> int:
    from .monodromy import parse_word, verify_factorization
    words = [parse_word(args.word)]
    if args.equals is not None:
        words.append(parse_word(args.equals))
    for word in words:
        if word.length > MAX_WORD_LETTERS:
            raise CliError(f"word spells {word.length} letters; "
                           f"the limit is {MAX_WORD_LETTERS}")
    report = verify_factorization(*words)
    payload = {
        "word": str(report.word),
        "matrix": report.lhs.rows(),
        "target": str(report.expected) if report.expected is not None else "identity",
        "target_matrix": report.rhs.rows(),
        "equal": report.equal,
        "factors": [
            {
                "text": d.text,
                "power": d.power,
                "base_trace": d.base_trace,
                "factor_trace": d.factor_trace,
                "parabolic": d.parabolic,
                "width": d.width,
            }
            for d in report.factors
        ],
    }
    lines = [
        f"word    {report.word}  ->  {report.lhs}",
        f"target  {payload['target']}  ->  {report.rhs}",
        f"equal   {report.equal}",
    ]
    for d in report.factors:
        width = "" if d.width is None else f", width {d.width}"
        lines.append(
            f"  factor {d.text:<14} base trace {d.base_trace}"
            f"{' (nodal twist type)' if d.parabolic else ''}{width}"
        )
    _emit(payload, args.json, "\n".join(lines))
    return 0 if report.equal else 1


def _check_chain_size(vertices: int) -> None:
    if vertices > MAX_CHAIN_VERTICES:
        raise CliError(f"the chain has {vertices} vertices; the limit is {MAX_CHAIN_VERTICES}")


def _check_digits(values, what: str) -> None:
    digits = sum(len(str(abs(v))) for v in values)
    if digits > MAX_INPUT_DIGITS:
        raise CliError(f"the {what} have {digits} digits; the limit is {MAX_INPUT_DIGITS}")


def cmd_plumbing_cp(args) -> int:
    from .plumbing import PlumbingChain, boundary_lens_space, cp_chain, intersection_matrix
    if args.weights is not None:
        try:
            weights = tuple(int(x) for x in args.weights.split(","))
        except ValueError:
            raise CliError(f"bad weight list {args.weights!r}; expected comma-separated integers")
        _check_chain_size(len(weights))
        _check_digits(weights, "weights")
        chain = PlumbingChain(weights, tuple((i, i + 1) for i in range(len(weights) - 1)))
    else:
        _check_chain_size(args.p - 1)
        chain = cp_chain(args.p)
    # the determinant is the last leading continuant of the chain's path, which
    # the boundary and the adjugate read too; the adjugate is built only to be printed
    _, lead, tail = chain._path
    det = lead[-1]
    if args.invert:
        size = chain.size ** 2 * max(abs(x).bit_length() for x in lead + tail)
        if size > MAX_ADJUGATE_BITS:
            raise CliError(f"n^2 x the largest continuant's bit length is {size}; "
                           f"the limit for --invert is {MAX_ADJUGATE_BITS}")
    payload: dict = {
        "weights": list(chain.weights),
        "determinant": det,
    }
    if args.p is not None:
        payload["p"] = args.p
    lines = [f"weights      {list(chain.weights)}", f"determinant  {det}"]
    if args.invert:
        inverse = [[str(x) for x in row] for row in intersection_matrix(chain).inverse()]
        payload["inverse"] = inverse
        lines.append("inverse rows " + "; ".join("[" + ", ".join(r) + "]" for r in inverse))
    if args.boundary:
        lens = boundary_lens_space(chain)
        payload["boundary"] = {
            "order": lens.order,
            "twist": lens.twist,
            "residue_orbit": list(lens.residue_orbit()),
        }
        lines.append(
            f"boundary     lens space of order {lens.order}, twist {lens.twist}, "
            f"residue orbit {list(lens.residue_orbit())}"
        )
    _emit(payload, args.json, "\n".join(lines))
    return 0


def cmd_sw_e1_surgery(args) -> int:
    from .knots import e1_knot_surgery_sw
    try:
        twists = [int(x) for x in args.knots.split(",") if x.strip() != ""]
    except ValueError:
        raise CliError(f"bad knot list {args.knots!r}; expected comma-separated integers")
    if len(twists) > MAX_KNOTS:
        raise CliError(f"{len(twists)} knots given; the limit is {MAX_KNOTS}")
    _check_digits(twists, "twists")
    table = e1_knot_surgery_sw(twists)
    payload = {"knots": twists, "table": {str(j): v for j, v in sorted(table.items())}}
    lines = [f"knots: {', '.join(f'T({n})' for n in twists) or '(none)'}"]
    if table:
        for j, v in sorted(table.items(), reverse=True):
            label = "T" if j == 1 else ("-T" if j == -1 else f"{j}T")
            lines.append(f"  SW({label:>4}) = {v}")
    else:
        lines.append("  empty table")
    _emit(payload, args.json, "\n".join(lines))
    return 0


def cmd_lattice(args) -> int:
    from .lattice import is_characteristic, pair, square
    function, arity, wanted = {
        "pair": (pair, 2, "exactly two --class arguments"),
        "square": (square, 1, "exactly one --class argument"),
        "characteristic": (is_characteristic, 1, "exactly one --class argument"),
    }[args.lattice_op]
    model = resolve_model(args.model)
    if len(args.cls) != arity:
        raise CliError(f"{args.lattice_op} needs {wanted}")
    value = function(*(parse_class(model, e) for e in args.cls))
    _emit({"op": args.lattice_op, "value": value}, args.json, f"{args.lattice_op} = {value}")
    return 0


def _key_of(table: str):
    """An argparse type for the keys of ``pipelines.<table>``, which imports
    pipelines only when it parses one, unlike ``choices``."""
    def key(text: str) -> str:
        from . import pipelines
        keys = getattr(pipelines, table)
        if text not in keys:
            raise argparse.ArgumentTypeError(f"invalid choice: {text!r} (choose from {', '.join(map(repr, keys))})")
        return text
    return key


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swsurgery",
        description="Exact surgery calculus for b+ = 1 families: lattices, SW tables, "
        "knot surgery, rational blowdowns, torus monodromy.",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"swsurgery {__version__} (report schema v{REPORT_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    vp = sub.add_parser("verify-paper", help="run the full golden verification suite")
    vp.add_argument("--only", type=_key_of("SECTIONS"), help="run one section of the suite")
    vp.add_argument("--json", action="store_true")
    vp.set_defaults(func=cmd_verify_paper)

    fam = sub.add_parser("family", help="build one family member and verify it")
    fam.add_argument("family", type=_key_of("FAMILIES"), help="a key of the family table; a wrong one lists them")
    fam.add_argument("--n", type=int, required=True)
    fam.add_argument("--json", action="store_true")
    fam.add_argument("--model-out", help="also write the final model as JSON")
    fam.set_defaults(func=cmd_family)

    mono = sub.add_parser("monodromy", help="twist word calculus")
    mono_sub = mono.add_subparsers(dest="mono_op", required=True)
    check = mono_sub.add_parser("check", help="evaluate a word against the identity or another word")
    check.add_argument("word")
    check.add_argument("--equals")
    check.add_argument("--json", action="store_true")
    check.set_defaults(func=cmd_monodromy_check)

    plumb = sub.add_parser("plumbing", help="blowdown chain calculators")
    plumb_sub = plumb.add_subparsers(dest="plumb_op", required=True)
    cp = plumb_sub.add_parser("cp", help="order-p chain: matrix, determinant, boundary")
    source = cp.add_mutually_exclusive_group(required=True)
    source.add_argument("--p", type=int)
    source.add_argument("--weights", help="explicit linear chain, e.g. --weights=-9,-2,-2,-2,-2,-2")
    cp.add_argument("--invert", action="store_true")
    cp.add_argument("--boundary", action="store_true")
    cp.add_argument("--json", action="store_true")
    cp.set_defaults(func=cmd_plumbing_cp)

    sw = sub.add_parser("sw", help="Seiberg-Witten tables")
    sw_sub = sw.add_subparsers(dest="sw_op", required=True)
    e1s = sw_sub.add_parser("e1-surgery", help="table for iterated fiber surgeries")
    e1s.add_argument("--knots", required=True, help="comma-separated twist parameters, e.g. 1,3")
    e1s.add_argument("--json", action="store_true")
    e1s.set_defaults(func=cmd_sw_e1_surgery)

    lat = sub.add_parser("lattice", help="pairings on a stored or builtin model")
    lat.add_argument("lattice_op", choices=["pair", "square", "characteristic"])
    lat.add_argument("--model", required=True,
                     help="model JSON file or builtin (e1, yn:3, zn:2, xn:2, qn:1, ...)")
    lat.add_argument("--class", dest="cls", action="append", required=True,
                     help="class expression, e.g. 'T+E0+E1+E2' (repeat for pair)")
    lat.add_argument("--json", action="store_true")
    lat.set_defaults(func=cmd_lattice)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CliError, ValueError, KeyError) as exc:  # WordSyntaxError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early: send what is left to devnull, so the
        # flush at interpreter exit cannot raise again, and exit 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    run()
