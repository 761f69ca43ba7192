"""Command line surface: inspect roots, translation quivers, moves, paths,
strings and inequality systems, and run the verification checks.

Exit codes: 0 success, 1 verification failure or internal invariant failure,
2 usage or input errors.

A call builds the argument parser of the command it runs and of no other
(see `_build_parser`); help, a missing or unknown command and leftover
arguments are reported by the parser of every command, so usage and error
text read the same whichever command is named.
"""

from __future__ import annotations

import argparse
import gc
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


_QUIVER = {
    "--quiver": dict(required=True, help="arrows like '2>1,2>3'"),
    "--word": dict(default="auto", help="'auto' or letters 'i1,i2,...'"),
}
_BOX = dict(type=_nonnegative, default=2)


def _output(*formats) -> dict:
    return {
        "--format": dict(dest="fmt", default=formats[0], choices=formats),
        "--out": dict(default=None, help="write output atomically to this path"),
    }


# (name, help, options): options maps each option string to its add_argument
# keywords in the order usage lists them, or is the table of a command's
# subcommands; verify's kinds carry no help, so `verify -h` lists names only
_VERIFY_KINDS = (
    ("theorem", None, {
        **_QUIVER, **_output("pretty", "json"),
        "--strict": dict(action="store_true", help="compare move sets with type tags"),
    }),
    ("cone", None, {**_QUIVER, **_output("pretty", "json"), "--box": _BOX}),
    ("conjecture", None, {**_QUIVER, **_output("pretty", "json"), "--box": _BOX}),
    ("suite", None, {
        "--max-rank": dict(type=_nonnegative, default=4), "--box": _BOX,
        **_output("pretty", "json"),
    }),
)
_COMMANDS = (
    ("roots", "positive roots in the word ordering",
     {**_QUIVER, **_output("pretty", "json", "tsv")}),
    ("ar", "translation quiver", {**_QUIVER, **_output("dot", "json")}),
    ("hammock", "hammock and its map-to-simple subposet", {
        **_QUIVER, **_output("json"), "--type-index": dict(type=int, required=True),
    }),
    ("moves", "antichain move table", {**_QUIVER, **_output("tsv", "json", "pretty")}),
    ("gp", "oriented wiring paths and contribution vectors", {
        **_QUIVER, **_output("json"), "--type-index": dict(type=int, default=None),
    }),
    ("inequalities", "cone inequality system", {
        **_QUIVER, **_output("pretty", "json"),
        "--source": dict(default="moves", choices=["gp", "moves"]),
    }),
    ("strings", "string parameters inside a box", {
        **_QUIVER, **_output("json"), "--box": dict(type=_nonnegative, required=True),
    }),
    ("crystal", "crystal graph to a depth", {
        **_QUIVER, **_output("json"),
        "--depth": dict(type=_nonnegative, required=True),
        "--param": dict(default="lusztig", choices=["lusztig", "string"]),
    }),
    ("wiring", "wiring diagram layout", {**_QUIVER, **_output("dot")}),
    ("verify", "verification checks", _VERIFY_KINDS),
)


def _build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser of the command argv names, or of every command.

    Only the parsers on argv's path get their arguments: the top-level one,
    the command's, and for verify the kind's.  Reading the command from
    argv[0] and the kind from argv[1] is sound because neither the top-level
    parser nor verify's takes an option with a value, so no earlier token can
    be an option's argument.  Every command is built when argv is None or
    names none (help, `--`, a missing or unknown command), and every kind when
    argv names verify and no kind: the output of those cases lists them all.
    """
    parser = argparse.ArgumentParser(
        prog="stringcone",
        description="crystal moves, string cones, and their cross verification",
    )
    _add_commands(parser, "command", _COMMANDS, argv)
    return parser


def _add_commands(parent, dest, table, argv) -> None:
    """Add table's commands to parent: only the one argv[0] names, if any."""
    sub = parent.add_subparsers(dest=dest, required=True)
    named = argv[0] if argv and any(row[0] == argv[0] for row in table) else None
    for name, help_text, options in table:
        if named not in (None, name):
            continue
        p = sub.add_parser(name, **({"help": help_text} if help_text else {}))
        if isinstance(options, dict):
            for flag, keywords in options.items():
                p.add_argument(flag, **keywords)
        else:
            _add_commands(p, "kind", options, argv[1:] if named else None)


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
    """Run one command and return its exit code; argv None reads sys.argv[1:].

    The package leaves no cyclic garbage but argparse's and json's, a constant
    amount per command, so the cyclic collector is paused for the command and
    left as the caller had it."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if collecting:
            gc.enable()


def _main(argv) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args, leftover = _build_parser(argv).parse_known_args(argv)
        if leftover:  # the full parser reports them, with the usage of every command
            args = _build_parser().parse_args(argv)
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
