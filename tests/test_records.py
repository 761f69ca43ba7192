import os
import subprocess
import sys

import pytest

from stringcone.cartan import path_diagram
from stringcone.lusztig import Antichain
from stringcone.quiver import all_orientations, parse_quiver, quiver_spec
from stringcone.verify import VerificationReport
from stringcone.wiring import GPPath

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# (record, its field values in order, its repr, a field to assign to)
RECORDS = [
    (Antichain(1, (2,)), (1, (2,)), "Antichain(type_index=1, positions=(2,))", "positions"),
    (
        GPPath(2, (3,), (3, 1)),
        (2, (3,), (3, 1)),
        "GPPath(type_index=2, crossings=(3,), wires=(3, 1))",
        "wires",
    ),
    (
        parse_quiver("2>1,2>3"),
        (path_diagram(3), ((2, 1), (2, 3))),
        "Quiver(diagram=DynkinDiagram(n=3, edges=((1, 2), (2, 3))), arrows=((2, 1), (2, 3)))",
        "arrows",
    ),
    (path_diagram(2), (2, ((1, 2),)), "DynkinDiagram(n=2, edges=((1, 2),))", "n"),
    (
        VerificationReport("word 1", "string_cone_box0", True),
        ("word 1", "string_cone_box0", True, None),
        "VerificationReport(instance='word 1', check='string_cone_box0', passed=True,"
        " witness=None)",
        "passed",
    ),
]


@pytest.mark.parametrize(
    "record, fields, text, name", RECORDS, ids=[type(r[0]).__name__ for r in RECORDS]
)
def test_record_hash_repr_and_immutability(record, fields, text, name):
    # set and dict orders, sorted orientations and the pinned report reprs
    # all rest on these three properties of the records
    assert hash(record) == hash(tuple(fields))
    assert repr(record) == text
    with pytest.raises(AttributeError):
        setattr(record, name, None)


def test_sorted_orientations_keep_their_order():
    quivers = list(all_orientations(path_diagram(4)))
    assert [quiver_spec(q) for q in sorted(reversed(quivers))] == [
        "1>2,2>3,3>4", "1>2,2>3,4>3", "1>2,3>2,3>4", "1>2,3>2,4>3",
        "2>1,2>3,3>4", "2>1,2>3,4>3", "2>1,3>2,3>4", "2>1,3>2,4>3",
    ]


def _loaded_by_cli_import(names):
    """Which of `names` a fresh `import stringcone.cli` loads; -S keeps the
    imports of site and of installed .pth files out of the check."""
    code = f"import sys, stringcone.cli; print(sorted({set(names)!r} & {{*sys.modules}}))"
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_no_dataclasses():
    # dataclasses pulls in inspect, ast, dis, tokenize and more, which nothing
    # else needs and every CLI call would pay for at start-up
    assert _loaded_by_cli_import({"dataclasses", "inspect"}) == "[]\n"


def test_import_loads_no_tempfile():
    # tempfile (and random and shutil behind it) serves only `--out`, so it is
    # imported there; a CLI call that writes to stdout must not pay for it
    assert _loaded_by_cli_import({"tempfile"}) == "[]\n"
