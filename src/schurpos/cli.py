"""Command-line interface: expansions, comparisons, posets, and verification."""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable, Iterable, Sequence
from dataclasses import asdict

from .diagrams import (
    SkewDiagram,
    _ribbon_rows,
    composition_of,
    enumerate_basic_skew,
    mf_pattern,
    ribbon_of,
)
from .errors import DomainError
from .lattice import (
    RectLabel,
    TrimReport,
    covers,
    elements,
    join,
    label_of_ribbon,
    leq_s_closed,
    meet,
    ribbon_of_label,
    schubert_pair,
    trim_report,
    verify_bigdiff,
    verify_fourcovers,
    verify_mflemma,
    verify_onlycovers,
)
from .lr import SchurVector, _check_size, expand
from .partitions import compositions_of
from .poset import PosetModel, SchurClass, build_poset, compare_diagrams, convexity_report

EXPANSION_GUARD = 14
ENUMERATION_GUARD = 7
FAMILY_SWEEP_GUARD = 12
MF_SWEEP_GUARD = 10
TRIM_GUARD = 24


class ParseError(DomainError):
    """Malformed shape or label text; reports the failing position.

    Positions are counted in the input with whitespace removed, which is how
    the grammar reads its tokens; at most 20 characters each side are quoted.
    """

    def __init__(self, text: str, pos: int, message: str):
        lo, hi = max(0, pos - 20), pos + 20
        quote = f"{'...' * (lo > 0)}{text[lo:hi]!r}{'...' * (hi < len(text))}"
        super().__init__(f"{message} at position {pos} in {quote}")
        self.pos = pos


class UsageError(Exception):
    """A flag combination the grammar cannot express."""


def _int_list(s: str, start: int, end: int) -> tuple[int, ...]:
    values = []
    pos = start
    while True:
        head = pos
        # ASCII digits only: str.isdigit also takes superscripts and other
        # scripts' digits, which int() refuses or reads as another number.
        while pos < end and "0" <= s[pos] <= "9":
            pos += 1
        if pos == head:
            raise ParseError(s, head, "expected a number")
        try:
            values.append(int(s[head:pos]))
        except ValueError:
            # Only a number past Python's int-string digit limit gets here.
            raise ParseError(s, head, "number too long") from None
        if pos == end:
            return tuple(values)
        if s[pos] != ",":
            raise ParseError(s, pos, "expected ','")
        pos += 1


def _pair(s: str, start: int, end: int, what: str) -> tuple[int, int]:
    values = _int_list(s, start, end)
    if len(values) != 2:
        raise ParseError(s, start, f"{what} needs exactly two numbers")
    return values[0], values[1]


def _label_with_context(s: str) -> RectLabel:
    close = s.find("]")
    if close < 0:
        raise ParseError(s, len(s), "expected ']'")
    a, b = _pair(s, 1, close, "label")
    if close + 1 >= len(s) or s[close + 1] != "@":
        raise ParseError(s, close + 1, "expected '@size,rows' after the label")
    n, rows = _pair(s, close + 2, len(s), "context")
    return RectLabel(a, b, n, rows)


def parse_shape(text: str, max_size: int | None = None) -> SkewDiagram:
    """Parse '4,3,3/2,2' (skew), '4,3,3', 'r:2,1,3' (ribbon), or '[3,5]@15,6'.

    A label whose context size is above max_size is refused before its
    ribbon is built.
    """
    s = "".join(text.split())
    if not s:
        raise ParseError(s, 0, "empty shape")
    if s.startswith("r:"):
        return ribbon_of(_int_list(s, 2, len(s)))
    if s.startswith("["):
        label = _label_with_context(s)
        if max_size is not None:
            _check_size(label.n, max_size)
        return ribbon_of(ribbon_of_label(label))
    slash = s.find("/")
    if slash < 0:
        return SkewDiagram(_int_list(s, 0, len(s)))
    outer = _int_list(s, 0, slash)
    inner = _int_list(s, slash + 1, len(s)) if slash + 1 < len(s) else ()
    return SkewDiagram(outer, inner)


def parse_label(text: str, n: int, rows: int) -> RectLabel:
    """Parse '[3,5]' or '3,5' against the poset context given by flags."""
    s = "".join(text.split())
    start, end = 0, len(s)
    if s.startswith("["):
        if not s.endswith("]"):
            raise ParseError(s, len(s), "expected ']'")
        start, end = 1, len(s) - 1
    a, b = _pair(s, start, end, "label")
    return RectLabel(a, b, n, rows)


def _integer(text: str) -> int | None:
    """An optional '-' and one number by _int_list's digit rule, else None."""
    digits = text.removeprefix("-")
    try:
        (value,) = _int_list(digits, 0, len(digits))
    except (ParseError, ValueError):
        return None
    return value if digits == text else -value


def _positive(text: str) -> int:
    """Argparse type for sizes: an integer of at least 1."""
    value = _integer(text)
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _guard(value: int | None, default: int) -> int:
    if value is not None:
        return value
    env = os.environ.get("SCHURPOS_MAX_SIZE")
    if env is None:
        return default
    guard = _integer(env)
    if guard is None:
        raise DomainError(f"SCHURPOS_MAX_SIZE must be an integer, got {env!r}")
    if guard < 1:
        raise DomainError(f"SCHURPOS_MAX_SIZE must be at least 1, got {guard}")
    return guard


def _limit(what: str, n: int, guard: int) -> None:
    if n > guard:
        raise DomainError(f"{what} are limited to size {guard}, got {n}")


def _key(parts: Sequence[int]) -> str:
    return ",".join(map(str, parts))


def _vec_dict(vec: SchurVector) -> dict[str, int]:
    return {_key(p): c for p, c in vec.items()}


def _dumps(payload: object) -> str:
    return json.dumps(payload, separators=(",", ":"))


def _shape_text(diagram: SkewDiagram) -> str:
    rows = _ribbon_rows(diagram.outer, diagram.inner)
    if rows is not None:
        return "r:" + _key(rows)
    return diagram.notation()


def _cmd_expand(args: argparse.Namespace) -> int:
    guard = _guard(args.max_size, EXPANSION_GUARD)
    vec = expand(parse_shape(args.shape, guard), guard)
    print(_dumps(_vec_dict(vec)))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    guard = _guard(args.max_size, EXPANSION_GUARD)
    result = compare_diagrams(
        parse_shape(args.first, guard), parse_shape(args.second, guard), guard
    )
    print(result.relation.value)
    if args.show_difference and result.difference is not None:
        print(_dumps(_vec_dict(result.difference)))
    return 0


def _node_label(cls: SchurClass, style: str) -> str:
    rep = cls.representative
    if style == "rect":
        return str(label_of_ribbon(composition_of(rep)))
    return _shape_text(rep).removeprefix("r:")


def _emit_poset(model: PosetModel, fmt: str, style: str) -> None:
    if fmt == "json":
        payload = {
            "classes": [
                {
                    "id": i,
                    "members": [_shape_text(d) for d in cls.members],
                    "expansion": _vec_dict(cls.expansion),
                }
                for i, cls in enumerate(model.classes)
            ],
            "hasse": [[lo, hi] for lo, hi in model.hasse],
        }
        print(_dumps(payload))
        return
    lines = ["digraph poset {", "  rankdir=BT;"]
    for i, cls in enumerate(model.classes):
        lines.append(f'  n{i} [label="{_node_label(cls, style)}"];')
    for lo, hi in model.hasse:
        lines.append(f"  n{lo} -> n{hi};")
    lines.append("}")
    print("\n".join(lines))


def _cmd_poset(args: argparse.Namespace) -> int:
    if (args.rows is not None or args.mf) and not args.ribbons:
        raise UsageError("--rows and --mf apply to ribbon posets; add --ribbons")
    if args.label_style == "rect" and not (args.ribbons and args.mf and args.rows):
        raise UsageError("--label-style rect requires --ribbons --mf and --rows")
    if args.ribbons:
        guard = _guard(args.max_size, EXPANSION_GUARD)
        _limit("ribbon posets", args.n, guard)
        diagrams = [
            ribbon_of(c)
            for c in compositions_of(args.n, args.rows)
            if not args.mf or mf_pattern(c) is not None
        ]
    else:
        guard = _guard(args.max_size, ENUMERATION_GUARD)
        diagrams = enumerate_basic_skew(args.n, guard)
    _emit_poset(build_poset(diagrams, guard), args.format, args.label_style)
    return 0


# Each mf action: the number of labels it takes, and its output lines from
# the context and the parsed labels.  The runs look the library functions up
# when called, so a test can replace one.
_MF: dict[str, tuple[int, Callable[..., Iterable[str]]]] = {
    "list": (0, lambda n, rows: (
        f"{label} r:{_key(ribbon_of_label(label))}" for label in elements(n, rows))),
    "covers": (0, lambda n, rows: (f"{lo} < {hi}" for lo, hi in covers(n, rows))),
    "leq": (2, lambda n, rows, x, y: ["true" if leq_s_closed(x, y) else "false"]),
    "meet": (2, lambda n, rows, x, y: [str(meet(x, y))]),
    "join": (2, lambda n, rows, x, y: [str(join(x, y))]),
    "schubert": (1, lambda n, rows, x: [_dumps([_key(p) for p in schubert_pair(x)])]),
}


def _cmd_mf(args: argparse.Namespace) -> int:
    wanted, run = _MF[args.action]
    if len(args.labels) != wanted:
        raise UsageError(
            f"mf {args.action} takes {wanted} label argument(s), got {len(args.labels)}"
        )
    _limit("multiplicity-free lattices", args.n, _guard(args.max_size, TRIM_GUARD))
    labels = [parse_label(text, args.n, args.rows) for text in args.labels]
    for line in run(args.n, args.rows, *labels):
        print(line)
    return 0


def _trim(args: argparse.Namespace, guard: int) -> TrimReport:
    _limit("trim statistics", args.n, guard)
    return trim_report(args.n, args.rows)


# Each verify choice: its default size guard, the context flags it requires,
# and its run on the parsed flags and the guard.  The runs look the library
# functions up when called, so a test can replace one.
_VERIFY: dict[str, tuple[int, tuple[str, ...], Callable[[argparse.Namespace, int], object]]] = {
    "fourcovers": (FAMILY_SWEEP_GUARD, (), lambda args, guard: verify_fourcovers(guard)),
    "onlycovers": (FAMILY_SWEEP_GUARD, (), lambda args, guard: verify_onlycovers(guard)),
    "bigdiff": (EXPANSION_GUARD, ("n", "rows"),
                lambda args, guard: verify_bigdiff(args.n, args.rows, guard)),
    "convexity": (ENUMERATION_GUARD, ("n",), lambda args, guard: convexity_report(args.n, guard)),
    "trim": (TRIM_GUARD, ("n", "rows"), _trim),
    "mflemma": (MF_SWEEP_GUARD, (), lambda args, guard: verify_mflemma(guard)),
}


def _cmd_verify(args: argparse.Namespace) -> int:
    default, needs, run = _VERIFY[args.what]
    missing = [f"--{name}" for name in needs if getattr(args, name) is None]
    if missing:
        raise UsageError(f"verify {args.what} requires {' and '.join(missing)}")
    report = run(args, _guard(args.max_size, default))
    if isinstance(report, TrimReport):
        for name, value in asdict(report).items():
            print(f"{name.replace('_', '-')}: {str(value).lower()}")
        return 0
    if report.ok:
        print(f"checked {report.checked} instances: OK")
        return 0
    print(f"checked {report.checked} instances: {len(report.disagreements)} disagreements")
    for line in report.disagreements:
        print(line)
    return 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schurpos",
        description="Exact Schur expansions of skew shapes and Schur-positivity posets of ribbons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shape_help = "a shape: '4,3,3/2,2', '4,3,3', 'r:2,1,3', or '[3,5]@15,6'"

    p = sub.add_parser("expand", help="Schur expansion of a shape, as JSON")
    p.add_argument("shape", help=shape_help)
    p.add_argument("--max-size", type=_positive, metavar="M",
                   help=f"largest shape to expand (default {EXPANSION_GUARD})")
    p.set_defaults(handler=_cmd_expand)

    p = sub.add_parser("compare", help="compare two shapes in the Schur-positivity order")
    p.add_argument("first", help=shape_help)
    p.add_argument("second", help=shape_help)
    p.add_argument("--show-difference", action="store_true",
                   help="also print the positive difference as JSON")
    p.add_argument("--max-size", type=_positive, metavar="M",
                   help=f"largest shape to expand (default {EXPANSION_GUARD})")
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("poset", help="build a Schur-positivity poset")
    p.add_argument("--n", type=_positive, required=True, help="number of cells")
    p.add_argument("--ribbons", action="store_true",
                   help="use ribbons of size n instead of all basic skew shapes")
    p.add_argument("--rows", type=_positive, help="keep only ribbons with this many rows")
    p.add_argument("--mf", action="store_true",
                   help="keep only multiplicity-free ribbons")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--label-style", choices=("comp", "rect"), default="comp",
                   help="dot node labels: row-length composition or rectangle label")
    p.add_argument("--max-size", type=_positive, metavar="M",
                   help=f"size guard (default {EXPANSION_GUARD} for ribbons, "
                        f"{ENUMERATION_GUARD} for the full poset)")
    p.set_defaults(handler=_cmd_poset)

    p = sub.add_parser("mf", help="closed-form multiplicity-free ribbon poset")
    p.add_argument("--n", type=_positive, required=True, help="number of cells")
    p.add_argument("--rows", type=_positive, required=True, help="number of ribbon rows")
    p.add_argument("action", choices=tuple(_MF))
    p.add_argument("labels", nargs="*", help="rectangle labels such as '[3,5]' or '3,5'")
    p.add_argument("--max-size", type=_positive, metavar="M",
                   help=f"largest lattice size n (default {TRIM_GUARD})")
    p.set_defaults(handler=_cmd_mf)

    p = sub.add_parser("verify", help="cross-check closed forms against expansions")
    p.add_argument("what", choices=tuple(_VERIFY))
    p.add_argument("--n", type=_positive, help="number of cells, where applicable")
    p.add_argument("--rows", type=_positive, help="number of ribbon rows, where applicable")
    p.add_argument("--max-size", type=_positive, metavar="M",
                   help=f"sweep bound (default {FAMILY_SWEEP_GUARD} for cover families, "
                        f"{MF_SWEEP_GUARD} for mflemma, {ENUMERATION_GUARD} for convexity, "
                        f"{EXPANSION_GUARD} for bigdiff, {TRIM_GUARD} for trim)")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (say, `| head`).  Point stdout at
        # devnull so that the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: input too deep for the recursion limit; lower --max-size", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
