import json

from stringcone.cli import main

D4_FIFTEEN = """t1>=0
t2>=0
t3-t1-t2>=0
t4-t2>=0
t5-t1>=0
t4+t5-t3>=0
t7-t6>=0
t10>=0
t6-t3>=0
t7-t4-t5>=0
t8-t5>=0
t9-t4>=0
t8+t9-t7>=0
t11-t10>=0
t12>=0
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_inequalities_pretty_matches_table(capsys):
    code, out, _ = run(
        capsys, "inequalities", "--quiver", "4>3,3>1,3>2", "--word", "auto",
        "--source", "moves", "--format", "pretty",
    )
    assert code == 0
    assert out == D4_FIFTEEN


def test_moves_tsv_contains_type_two_block(capsys):
    code, out, _ = run(capsys, "moves", "--quiver", "2>1,2>3", "--word", "auto", "--format", "tsv")
    assert code == 0
    rows = [line.split("\t") for line in out.strip().split("\n")[1:]]
    block = [r[3] for r in rows if r[0] == "2"]
    assert block == [
        "-1,-1,1,0,0,0",
        "0,-1,0,1,0,0",
        "-1,0,0,0,1,0",
        "0,0,-1,1,1,0",
        "0,0,0,0,0,1",
    ]


def test_gp_and_inequalities_sources_agree(capsys):
    code, gp_out, _ = run(
        capsys, "inequalities", "--quiver", "2>1,2>3", "--source", "gp", "--format", "json"
    )
    assert code == 0
    code, mv_out, _ = run(
        capsys, "inequalities", "--quiver", "2>1,2>3", "--source", "moves", "--format", "json"
    )
    assert code == 0
    normals = lambda text: {tuple(row["normal"]) for row in json.loads(text)}
    assert normals(gp_out) == normals(mv_out)


def test_strings_command(capsys):
    code, out, _ = run(capsys, "strings", "--quiver", "2>1", "--box", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 40
    assert [0, 0, 3] in payload["strings"]
    assert [1, 0, 0] not in payload["strings"]


def test_crystal_command(capsys):
    code, out, _ = run(
        capsys, "crystal", "--quiver", "2>1", "--depth", "1", "--param", "lusztig"
    )
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload["vertices"]) == [[0, 0, 0], [0, 0, 1], [1, 0, 0]]
    code, out, _ = run(
        capsys, "crystal", "--quiver", "2>1", "--depth", "1", "--param", "string"
    )
    payload = json.loads(out)
    assert sorted(payload["vertices"]) == [[0, 0, 0], [0, 0, 1], [0, 1, 0]]


def test_roots_and_ar_and_wiring(capsys):
    code, out, _ = run(capsys, "roots", "--quiver", "4>3,3>1,3>2")
    assert code == 0
    assert out.splitlines()[6] == "b7 = a1+a2+2a3+a4"
    code, out, _ = run(capsys, "ar", "--quiver", "2>1,2>3")
    assert code == 0 and out.startswith("digraph ar {")
    code, out, _ = run(capsys, "wiring", "--quiver", "2>1,2>3")
    assert code == 0 and out.startswith("graph wiring {")
    code, out, _ = run(capsys, "hammock", "--quiver", "2>1,2>3", "--type-index", "2")
    assert code == 0
    assert json.loads(out)["p_set"] == [3, 4, 5, 6]


def test_verify_subcommands(capsys):
    code, out, _ = run(capsys, "verify", "theorem", "--quiver", "2>1")
    assert code == 0 and "PASS" in out
    code, out, _ = run(capsys, "verify", "cone", "--quiver", "2>1", "--box", "3")
    assert code == 0
    code, out, _ = run(capsys, "verify", "suite", "--max-rank", "4", "--box", "2")
    assert code == 0 and "all checks passed" in out


def test_usage_errors_exit_two(capsys):
    code, _, err = run(capsys, "roots", "--quiver", "1>2,2>3,3>1")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "moves", "--quiver", "2>1,2>3", "--word", "2,1,3,2,1,3")
    assert code == 2 and "not adapted" in err
    code, _, err = run(capsys, "roots", "--quiver", "2>1", "--word", "1,2")
    assert code == 2
    code, _, err = run(capsys, "gp", "--quiver", "4>3,3>1,3>2")
    assert code == 2
    code, _, err = run(capsys, "verify", "conjecture", "--quiver", "3>1,3>2,3>4", "--box", "1")
    assert code == 2
    code, _, err = run(capsys, "gp", "--quiver", "2>1,2>3", "--type-index", "7")
    assert code == 2 and "out of range" in err
    code, _, err = run(capsys, "strings", "--quiver", "2>1", "--box", "-1")
    assert code == 2 and "nonnegative" in err


def test_invariant_violation_exits_one(capsys, monkeypatch):
    # a move that empties a multiplicity trips the raising operator's check,
    # which must survive python -O
    from stringcone import lusztig

    monkeypatch.setattr(lusztig, "move", lambda ar, a: (-1,) * ar.N)
    code, out, err = run(capsys, "crystal", "--quiver", "2>1", "--depth", "1")
    assert code == 1 and out == ""
    assert "internal invariant failed: raising gave a negative multiplicity" in err
    assert "'result': (-1, -1, -1)" in err


def test_argparse_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2


def test_output_determinism(capsys):
    first = run(capsys, "gp", "--quiver", "2>1,2>3", "--type-index", "2")
    second = run(capsys, "gp", "--quiver", "2>1,2>3", "--type-index", "2")
    assert first == second


def test_atomic_out_file(tmp_path, capsys):
    target = tmp_path / "ineq.txt"
    code = main([
        "inequalities", "--quiver", "4>3,3>1,3>2", "--source", "moves",
        "--format", "pretty", "--out", str(target),
    ])
    capsys.readouterr()
    assert code == 0
    assert target.read_text() == D4_FIFTEEN
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".stringcone-")]
    assert not leftovers
