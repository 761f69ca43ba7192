"""Command line surface: inspect roots, translation quivers, moves, paths,
strings and inequality systems, and run the verification checks.

Exit codes: 0 success, 1 verification failure or internal invariant failure,
2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import arquiver, lusztig, strings, verify, wiring
from .cartan import (
    InvariantViolation,
    NotReducedW0,
    NotSimplyLacedAD,
    diagram_type,
    is_reduced_w0,
    reflection_ordering,
)
from .quiver import NotAdapted, QuiverParseError, adapted_word, parse_quiver


class UsageError(ValueError):
    pass


def _parse_word(q, text: str):
    if text == "auto":
        return adapted_word(q)
    try:
        word = tuple(int(tok) for tok in text.replace(" ", "").split(","))
    except ValueError as exc:
        raise UsageError(f"bad word {text!r}, expected 'auto' or comma separated letters") from exc
    if not is_reduced_w0(q.diagram, word):
        raise UsageError(f"word {text!r} is not a reduced expression of the longest element")
    return word


def _require_type_a(q):
    if diagram_type(q.diagram) != "A":
        raise UsageError("this command is defined for type A quivers only")


def _emit(payload: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(payload)
        return
    import tempfile  # only here: it loads random, shutil and more, which stdout never needs

    directory = os.path.dirname(os.path.abspath(out))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".stringcone-")
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
        os.replace(tmp, out)
    except OSError as exc:
        raise UsageError(f"cannot write --out {out}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _pretty_root(root) -> str:
    parts = []
    for idx, c in enumerate(root, start=1):
        if c == 0:
            continue
        parts.append(f"a{idx}" if c == 1 else f"{c}a{idx}")
    return "+".join(parts) if parts else "0"


def _nonnegative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} must be nonnegative")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stringcone",
        description="crystal moves, string cones, and their cross verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p, formats):
        p.add_argument("--format", dest="fmt", default=formats[0], choices=formats)
        p.add_argument("--out", default=None, help="write output atomically to this path")

    def common(p, formats):
        p.add_argument("--quiver", required=True, help="arrows like '2>1,2>3'")
        p.add_argument("--word", default="auto", help="'auto' or letters 'i1,i2,...'")
        output(p, formats)

    p = sub.add_parser("roots", help="positive roots in the word ordering")
    common(p, ("pretty", "json", "tsv"))
    common(sub.add_parser("ar", help="translation quiver"), ("dot", "json"))
    p = sub.add_parser("hammock", help="hammock and its map-to-simple subposet")
    common(p, ("json",))
    p.add_argument("--type-index", type=int, required=True)
    common(sub.add_parser("moves", help="antichain move table"), ("tsv", "json", "pretty"))
    p = sub.add_parser("gp", help="oriented wiring paths and contribution vectors")
    common(p, ("json",))
    p.add_argument("--type-index", type=int, default=None)
    p = sub.add_parser("inequalities", help="cone inequality system")
    common(p, ("pretty", "json"))
    p.add_argument("--source", default="moves", choices=["gp", "moves"])
    p = sub.add_parser("strings", help="string parameters inside a box")
    common(p, ("json",))
    p.add_argument("--box", type=_nonnegative, required=True)
    p = sub.add_parser("crystal", help="crystal graph to a depth")
    common(p, ("json",))
    p.add_argument("--depth", type=_nonnegative, required=True)
    p.add_argument("--param", default="lusztig", choices=["lusztig", "string"])
    common(sub.add_parser("wiring", help="wiring diagram layout"), ("dot",))

    kinds = sub.add_parser("verify", help="verification checks").add_subparsers(
        dest="kind", required=True
    )
    p = kinds.add_parser("theorem")
    common(p, ("pretty", "json"))
    p.add_argument("--strict", action="store_true", help="compare move sets with type tags")
    for kind in ("cone", "conjecture"):
        p = kinds.add_parser(kind)
        common(p, ("pretty", "json"))
        p.add_argument("--box", type=_nonnegative, default=2)
    p = kinds.add_parser("suite")
    p.add_argument("--max-rank", type=_nonnegative, default=4)
    p.add_argument("--box", type=_nonnegative, default=2)
    output(p, ("pretty", "json"))
    return parser


def _dispatch(args) -> tuple[str, int]:
    if args.command == "verify":
        return _run_verify(args)
    q = parse_quiver(args.quiver)
    word = _parse_word(q, args.word)
    if getattr(args, "type_index", None) is not None and not (
        1 <= args.type_index <= q.diagram.n
    ):
        raise UsageError(f"--type-index {args.type_index} out of range 1..{q.diagram.n}")

    if args.command == "roots":
        ordering = reflection_ordering(q.diagram, word)
        if args.fmt == "json":
            return _json_text({"word": list(word), "roots": [list(r) for r in ordering]}), 0
        if args.fmt == "tsv":
            lines = ["position\theight\troot"]
            lines += [f"{k}\t{sum(r)}\t{','.join(map(str, r))}" for k, r in enumerate(ordering, 1)]
            return "\n".join(lines) + "\n", 0
        lines = [f"b{k} = {_pretty_root(r)}" for k, r in enumerate(ordering, 1)]
        return "\n".join(lines) + "\n", 0

    if args.command == "ar":
        ar = arquiver.build_ar(q, word)
        if args.fmt == "json":
            payload = {
                "word": list(word),
                "roots": [list(r) for r in ar.roots],
                "arrows": [list(a) for a in ar.arrows],
                "translation": {str(k): ar.tau[k] for k in sorted(ar.tau)},
            }
            return _json_text(payload), 0
        return arquiver.ar_dot(ar), 0

    if args.command == "hammock":
        ar = arquiver.build_ar(q, word)
        i = args.type_index
        payload = {
            "type": i,
            "hammock": list(ar.hammock(i)),
            "p_set": list(ar.p_set(i)),
        }
        if diagram_type(q.diagram) == "A":
            grid = arquiver.grid_A(ar, i)
            payload["segments"] = [list(grid.left_segment), list(grid.right_segment)]
            payload["grid"] = [
                {"k": k, "l": l, "position": pos} for (k, l), pos in sorted(grid.cells.items())
            ]
        return _json_text(payload), 0

    if args.command == "moves":
        ar = arquiver.build_ar(q, word)
        if args.fmt == "json":
            return _json_text(lusztig.moves_json(ar)), 0
        if args.fmt == "pretty":
            lines = [
                f"{a.type_index}: {strings.pretty_inequality(vec)}"
                for a, vec in lusztig.all_moves(ar)
            ]
            return "\n".join(lines) + "\n", 0
        return lusztig.moves_tsv(ar), 0

    if args.command == "gp":
        _require_type_a(q)
        wd = wiring.build_wiring(word, q.diagram.n)
        return _json_text(wiring.paths_json(wd, args.type_index)), 0

    if args.command == "inequalities":
        if args.source == "gp":
            _require_type_a(q)
            wd = wiring.build_wiring(word, q.diagram.n)
            typed = [(i, vec) for i, _, vec in wiring.gp_table(wd)]
        else:
            ar = arquiver.build_ar(q, word)
            moves = lusztig.all_moves(ar)
            typed = [(a.type_index, vec) for a, vec in moves]
        first_type: dict = {}
        for i, vec in typed:
            first_type.setdefault(vec, i)
        rows = [(i, vec) for vec, i in first_type.items()]
        if args.fmt == "json":
            return _json_text(strings.inequalities_json(rows)), 0
        return "\n".join(strings.pretty_inequality(vec) for _, vec in rows) + "\n", 0

    if args.command == "strings":
        codes = strings.generate_strings(q.diagram, word, args.box)
        found = strings.points(codes, len(word), args.box)
        payload = {"word": list(word), "box": args.box, "count": len(found),
                   "strings": [list(a) for a in found]}
        return _json_text(payload), 0

    if args.command == "crystal":
        if args.param == "lusztig":
            ar = arquiver.build_ar(q, word)
            verify.require_condition_L(ar)
            graph = lusztig.lusztig_crystal(ar, args.depth)
        else:
            graph = strings.string_crystal(q.diagram, word, args.depth)
        payload = {
            "param": args.param,
            "depth": args.depth,
            "vertices": [list(v) for v in sorted(graph.vertices)],
            "edges": [[list(a), i, list(b)] for a, i, b in sorted(graph.edges)],
        }
        return _json_text(payload), 0

    if args.command == "wiring":
        _require_type_a(q)
        wd = wiring.build_wiring(word, q.diagram.n)
        return wiring.wiring_dot(wd), 0

    raise UsageError(f"unknown command {args.command!r}")


def _run_verify(args) -> tuple[str, int]:
    if args.kind == "suite":
        if args.max_rank == 0:
            raise UsageError("--max-rank 0 sweeps no quiver, so no check would run")
        summary = verify.run_suite(args.max_rank, args.box)
        if args.fmt == "json":
            return _json_text(summary.as_json()), 0 if summary.ok else 1
        if summary.ok:
            return f"all checks passed ({len(summary.reports)} checks)\n", 0
        lines = [f"{r.check} FAILED on {r.instance}: {r.witness}" for r in summary.failures]
        return "\n".join(lines) + "\n", 1

    q = parse_quiver(args.quiver)
    word = _parse_word(q, args.word)
    if args.kind == "theorem":
        report = verify.check_theorem_2_4(q, word, strict=args.strict)
    elif args.kind == "cone":
        _require_type_a(q)
        wd = wiring.build_wiring(word, q.diagram.n)
        report = verify.check_cone(q.diagram, word, wiring.gp_cone(wd), args.box)
    else:
        report = verify.check_conjecture(q, word, args.box)
    if args.fmt == "json":
        return _json_text(report.as_json()), 0 if report.passed else 1
    status = "PASS" if report.passed else f"FAIL witness={report.witness}"
    return f"{report.check}: {status} ({report.instance})\n", 0 if report.passed else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        payload, code = _dispatch(args)
        _emit(payload, args.out)
    except (UsageError, QuiverParseError, NotReducedW0, NotAdapted,
            NotSimplyLacedAD, verify.ConditionLFails, verify.NotTypeAInstance) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except InvariantViolation as exc:
        sys.stderr.write(f"internal invariant failed: {exc}; witness: {exc.witness!r}\n")
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
