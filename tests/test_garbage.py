"""The package leaves no reference cycles, and `cli.main` pauses the cyclic
collector only for its own command.

A recursive closure that calls itself through its own cell keeps everything
it captured alive until a collection runs; the builders empty that cell once
the search is done.  What a command still leaves comes from argparse and json,
a fixed amount per command, whatever the size of the instance.
"""

from __future__ import annotations

import gc
import types

import pytest

from stringcone import cli, lusztig
from stringcone.arquiver import build_ar
from stringcone.crystal import bfs_crystal
from stringcone.lusztig import lusztig_e
from stringcone.quiver import adapted_word, parse_quiver
from stringcone.verify import check_conjecture, run_suite


def cyclic_garbage(call) -> tuple[int, list[str]]:
    """The unreachable objects one collection finds after `call()`, run with
    the collector off, and the qualified names of the functions among them."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        call()
        count = gc.collect()
        names = sorted(
            {o.__qualname__ for o in gc.garbage if isinstance(o, types.FunctionType)}
        )
        return count, names
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def _d4():
    q = parse_quiver("4>3,3>1,3>2")
    return q, adapted_word(q)


def _d4_crystal():
    ar = build_ar(*_d4())
    bfs_crystal((0,) * ar.N, range(1, ar.n + 1), lambda i, v: lusztig_e(ar, i, v), 4)


@pytest.mark.parametrize("call", [
    lambda: run_suite(4, 1),
    lambda: check_conjecture(*_d4(), 1),
    _d4_crystal,
], ids=["run_suite", "check_conjecture", "bfs_crystal"])
def test_no_reference_cycles(call):
    count, names = cyclic_garbage(call)
    assert count == 0, names


SMALL, LARGE = "2>1", "2>1,2>3,4>3"  # A2 and A4

COMMANDS = [
    ["roots", "--format", "json"],
    ["ar"],
    ["hammock", "--type-index", "1"],
    ["moves", "--format", "json"],
    ["gp"],
    ["inequalities", "--source", "gp"],
    ["strings", "--box", "1"],
    ["crystal", "--depth", "2"],
    ["crystal", "--depth", "2", "--param", "string"],
    ["wiring"],
    ["verify", "theorem"],
    ["verify", "cone", "--box", "1"],
    ["verify", "conjecture", "--box", "1", "--format", "json"],
]


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: "_".join(a.lstrip("-") for a in argv))
def test_command_garbage_does_not_grow(capsys, argv):
    counts = []
    for spec in (SMALL, LARGE):
        counts.append(cyclic_garbage(lambda: cli.main([*argv, "--quiver", spec])))
    capsys.readouterr()
    assert counts[1][0] == counts[0][0], counts


def test_suite_garbage_does_not_grow(capsys):
    small = cyclic_garbage(lambda: cli.main(["verify", "suite", "--max-rank", "1", "--box", "1"]))
    large = cyclic_garbage(lambda: cli.main(["verify", "suite", "--max-rank", "4", "--box", "1"]))
    capsys.readouterr()
    assert large[0] == small[0], (small, large)


@pytest.mark.parametrize("argv, code", [
    (["roots", "--quiver", "2>1"], 0),
    (["verify", "suite", "--max-rank", "0"], 2),  # refused by the command
    (["roots", "--quiver", "2>1", "--format", "dot"], 2),  # refused by argparse
    (["crystal", "--quiver", "2>1", "--depth", "1"], 1),  # with a broken raising step
])
@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_the_collector(capsys, monkeypatch, argv, code, enabled):
    if code == 1:
        def maximal_row(ar, i, t):
            return None, lusztig._Entry(
                ideal=(), cominimals=(), move=(-1,) * ar.N, u=(0,) * ar.N, mask=0
            )

        monkeypatch.setattr(lusztig, "_maximal_row", maximal_row)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert cli.main(argv) == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


def test_main_pauses_the_collector(capsys, monkeypatch):
    seen = []
    dispatch = cli._dispatch

    def watched(args):
        seen.append(gc.isenabled())
        return dispatch(args)

    monkeypatch.setattr(cli, "_dispatch", watched)
    assert gc.isenabled()
    assert cli.main(["roots", "--quiver", "2>1"]) == 0
    assert seen == [False] and gc.isenabled()
    capsys.readouterr()
