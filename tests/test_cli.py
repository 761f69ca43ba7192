import hashlib
import json

import pytest

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


def test_verify_suite_prints_one_line_per_failure(capsys, monkeypatch):
    from stringcone import verify

    summary = verify.run_suite(2, 0)
    for k in (1, 5):
        summary.reports[k] = summary.reports[k]._replace(passed=False, witness=[k])
    monkeypatch.setattr(verify, "run_suite", lambda max_rank, box: summary)
    code, out, _ = run(capsys, "verify", "suite", "--max-rank", "2", "--box", "0")
    assert code == 1
    assert out.splitlines() == [
        f"{summary.reports[k].check} FAILED on {summary.reports[k].instance}: [{k}]"
        for k in (1, 5)
    ]


def test_verify_suite_json_carries_an_internal_fault(capsys, monkeypatch):
    # a check that raises is one failing report whose witness survives JSON
    from stringcone import verify
    from stringcone.quiver import quiver_spec

    original = verify.arquiver.build_ar

    def shifted(q, word=None):
        ar = original(q, word)
        if quiver_spec(q) != "2>1,2>3":
            return ar
        tau = {k: t - 1 if t > 1 else t for k, t in ar.tau.items()}
        return ar._replace(tau=tau, cache={})

    monkeypatch.setattr(verify.arquiver, "build_ar", shifted)
    code, out, _ = run(
        capsys, "verify", "suite", "--max-rank", "3", "--box", "0", "--format", "json"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["checks"] == 203  # the clean sweep's count
    faults = [f for f in payload["failures"] if f["check"] == "raising_witness"]
    assert len(faults) == 1
    assert faults[0]["instance"].startswith("quiver 2>1,2>3 ")
    assert faults[0]["witness"][0][:2] == ["internal_fault", "InvariantViolation"]


def test_invariant_violation_exits_one(capsys, monkeypatch):
    # a move that empties a multiplicity trips the raising operator's check,
    # which must survive python -O
    from stringcone import lusztig

    monkeypatch.setattr(
        lusztig, "_maximal_row", lambda ar, i, t: (None, lusztig._Entry((), (), (-1,) * ar.N, 0))
    )
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


@pytest.mark.parametrize("out", ["missing-dir/x", "sub"], ids=["missing-dir", "directory"])
def test_unwritable_out_exits_two(tmp_path, capsys, monkeypatch, out):
    # an output path that cannot be written is a usage error; a directory as
    # target fails after the temporary file is made next to it in tmp_path,
    # so the emptiness check sees whether that file was removed
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    code, stdout, err = run(capsys, "roots", "--quiver", "2>1", "--out", out)
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: cannot write --out {out}: ")
    assert list(tmp_path.iterdir()) == [tmp_path / "sub"]


# stdout sha256 and exit code of every README example and of every format each
# command produces (on A3 and, where the command takes type D, on D4); output
# is promised byte-for-byte, so changing any of these is a deliberate act that
# updates its row
STDOUT_DIGESTS = [
    ("inequalities --quiver 4>3,3>1,3>2 --word auto --source moves --format pretty", 0,
     "dc74ab67a3ee412e9a383fd46f98c8c08331870cbe100c863acded408dcd4508"),
    ("moves --quiver 2>1,2>3 --word auto --format tsv", 0,
     "aa03e8ce1bf8e340066db5fdef01a8c8db9c2f2154adabde2a4c33a6b63f6c69"),
    ("gp --quiver 2>1,2>3 --type-index 2", 0,
     "0f5b6d9688eac30669f7b82cf2070fcafe5269c0b7d819b864b0b4bf57c95336"),
    ("roots --quiver 4>3,3>1,3>2", 0,
     "81d8d64992589a3e427a43ea957e284829adb52f6ad027e3a9f2286161c1d0c5"),
    ("ar --quiver 2>1,2>3 --format dot", 0,
     "ca94fe1d3ab040d43cdd53f4cf9f7e367e0fa20748d37a0dcac404430272d0cd"),
    ("wiring --quiver 2>1,2>3", 0,
     "d313650535419b5331e50dc58c855585a51859e0425c9e2aa85dcdc414c20858"),
    ("hammock --quiver 2>1,2>3 --type-index 2", 0,
     "0df4cbb29314e37e519886b0c01c838da100f60381c6bd2f42d85e334d3b8764"),
    ("strings --quiver 2>1 --box 3", 0,
     "f56fb659865177f077e5b94042b2091d9ea90772d465d69e738fa059efcb34bf"),
    ("crystal --quiver 2>1 --depth 2 --param lusztig", 0,
     "9c407a792b37773dc4cece6d3667cecaf066ab4250caa024c1c67c6fc98c03fd"),
    ("verify theorem --quiver 2>1,2>3", 0,
     "d4cab6ad68377f57f06d8fe1f56a4fbbd467f3d8c558c6618ca3774edb3f462f"),
    ("verify cone --quiver 2>1 --box 3", 0,
     "9bf5e31f6c8b909c4f5497162ec3bdbe3ff8feeb678ed25ecd8487c05378ca95"),
    ("verify conjecture --quiver 4>3,3>1,3>2 --box 2", 0,
     "930c1b75a7e3a251d1542fae5b2a8221e3c77a93a42ee04ff8a5c686e345c728"),
    ("verify suite --max-rank 4 --box 2", 0,
     "7738af2b62247c079e14476ab7c99dde324701fbeb2f2e97fb1bcf594a033970"),
    ("moves --quiver 4>3,3>1,3>2 --word auto --format pretty", 0,
     "6cbe0b03b08f6cccf237ed3e56a09037d097d85a586e6a0da88f20fadd6ee985"),
    # every supported (command, format) pair, then sources, parametrizations and reports
    ("roots --quiver 2>1,2>3 --format pretty", 0,
     "b2880a917b989747d9acfd94bc7c29a1b0d2278b7056dd3580e67db3f6e97639"),
    ("roots --quiver 2>1,2>3 --format json", 0,
     "ab10a728cde76b6ee53448c35f0645a9186fcdbb552ddac2a5d90f43e322d9d6"),
    ("roots --quiver 2>1,2>3 --format tsv", 0,
     "3fec5461a99fa617131ad6ef4a18d9f88033d9c0c08d4d8681aadfe35eed9be9"),
    ("roots --quiver 4>3,3>1,3>2 --format pretty", 0,
     "81d8d64992589a3e427a43ea957e284829adb52f6ad027e3a9f2286161c1d0c5"),
    ("roots --quiver 4>3,3>1,3>2 --format json", 0,
     "c6241def1eee343471121edc4908f42f9916d8c45e82fc79d11b9b0accc476ed"),
    ("roots --quiver 4>3,3>1,3>2 --format tsv", 0,
     "a7e7b20b97e4dea5a4cf5ae5834b171bf100db64614a7ff7721e6f85f2cd4e63"),
    ("ar --quiver 2>1,2>3 --format json", 0,
     "edd66909317dab072ec50b2e595375b05ad07bea318de0d7f2c793cc9478bf1b"),
    ("ar --quiver 4>3,3>1,3>2 --format dot", 0,
     "e720af1e694ceb6da6656b1a6912d87e425b0fd488280bdd6d2b4616cb5ae4c3"),
    ("ar --quiver 4>3,3>1,3>2 --format json", 0,
     "2455d1712e78ba125b96929d601f130c0a0c78895c1293b194918419de748c88"),
    ("hammock --quiver 2>1,2>3 --type-index 2 --format json", 0,
     "0df4cbb29314e37e519886b0c01c838da100f60381c6bd2f42d85e334d3b8764"),
    ("hammock --quiver 4>3,3>1,3>2 --type-index 2 --format json", 0,
     "d99ca440da37cb1b71de3c9942eab308fcd75d3da16845c432423564b6d957e5"),
    ("moves --quiver 2>1,2>3 --format tsv", 0,
     "aa03e8ce1bf8e340066db5fdef01a8c8db9c2f2154adabde2a4c33a6b63f6c69"),
    ("moves --quiver 2>1,2>3 --format json", 0,
     "3ae36e806fefe4bda3167aadfd6f5b08290c688e2427376438e7508a4839ac20"),
    ("moves --quiver 2>1,2>3 --format pretty", 0,
     "30b691782de08a829e4bdd6effe2c2c6dfe476bc0dadd4ac8a492c65c23b8f12"),
    ("moves --quiver 4>3,3>1,3>2 --format tsv", 0,
     "512cf3add02d297a7e4e110cc473e1c48b647360ce9bcd7f47d1ba8d77223ff7"),
    ("moves --quiver 4>3,3>1,3>2 --format json", 0,
     "bfa63c64668cf1206154ee11559c8b2d734cbce367385e4b264c28ad7cb0ab93"),
    ("moves --quiver 4>3,3>1,3>2 --format pretty", 0,
     "6cbe0b03b08f6cccf237ed3e56a09037d097d85a586e6a0da88f20fadd6ee985"),
    ("gp --quiver 2>1,2>3 --format json", 0,
     "034eb0acaf83138ddc99c48bdc7ac09c57aa852203e2b093299eecd5d0d55d05"),
    ("inequalities --quiver 2>1,2>3 --format pretty", 0,
     "f98983f45719e9c47ce147e93d9f2b13fa977426e107665c54cfb3599dcddf09"),
    ("inequalities --quiver 2>1,2>3 --format json", 0,
     "e35c2be90384af0f11bee6fab4738caf8acedc5f9488d6fd5b4f37322d9c4a27"),
    ("inequalities --quiver 4>3,3>1,3>2 --format pretty", 0,
     "dc74ab67a3ee412e9a383fd46f98c8c08331870cbe100c863acded408dcd4508"),
    ("inequalities --quiver 4>3,3>1,3>2 --format json", 0,
     "5e8e8024255ee2a9677205bec42dfdcae965975d718af67a9d278f8b5555e018"),
    ("strings --quiver 2>1,2>3 --box 2 --format json", 0,
     "ee7e86d87add5219f483ed5551708771973a1ca2c3594b6a4eb663443c703cb2"),
    ("strings --quiver 4>3,3>1,3>2 --box 2 --format json", 0,
     "dc9d8ad85bfbc6fdf949684ccf988ce9e16924ee27c19767a1eb8f1684b00c41"),
    ("crystal --quiver 2>1,2>3 --depth 2 --format json", 0,
     "c27f8f9e39c3ae639f7fd2657ec9c1b4ed6c061308abfd7be7027bd86e0ad759"),
    ("crystal --quiver 4>3,3>1,3>2 --depth 2 --format json", 0,
     "aa5240a102f8f8312105c03a441021e4966f66ce1303b5bd92b9ce81814c13a0"),
    ("wiring --quiver 2>1,2>3 --format dot", 0,
     "d313650535419b5331e50dc58c855585a51859e0425c9e2aa85dcdc414c20858"),
    ("inequalities --quiver 2>1,2>3 --source gp --format pretty", 0,
     "f98983f45719e9c47ce147e93d9f2b13fa977426e107665c54cfb3599dcddf09"),
    ("inequalities --quiver 2>1,2>3 --source gp --format json", 0,
     "e35c2be90384af0f11bee6fab4738caf8acedc5f9488d6fd5b4f37322d9c4a27"),
    ("crystal --quiver 4>3,3>1,3>2 --depth 2 --param string --format json", 0,
     "fd3fbb933546bfd2a6296ad74dde7bf1fd7284fd191013da5ec24d1298355873"),
    ("verify theorem --quiver 2>1,2>3 --strict --format json", 0,
     "4f6cf067446c11a88e30dc3684088d4d89e52eb76587a347203a2309cedce5de"),
    ("verify cone --quiver 2>1 --box 3 --format json", 0,
     "4c413075fec30052f3d961743a84bc5e416b1536322a2e9dae3b67e74827e4c8"),
    ("verify conjecture --quiver 4>3,3>1,3>2 --box 1 --format json", 0,
     "af54f82e1d43d8a18037d66d247c5499e16a76922bc68d977d47482d443fcc37"),
    ("verify suite --max-rank 3 --box 1 --format json", 0,
     "48b7444113561d130e6f1345c5d0a3002e543d1570fd89abde9433dfdc0dcd04"),
    ("verify conjecture --quiver 1>3,2>3,3>4,4>5 --box 1", 0,
     "678e5fcc9a01beca2a518e7dd08e8e70429751436953a55b7aa47ba79355cca3"),
]


@pytest.mark.parametrize("argv, code, digest", STDOUT_DIGESTS, ids=[a for a, _, _ in STDOUT_DIGESTS])
def test_stdout_digest(capsys, argv, code, digest):
    got_code, out, _ = run(capsys, *argv.split())
    assert (got_code, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


# each command's formats; every other format, and every verify flag foreign
# to its kind, is refused before any output
FORMATS = {
    "roots --quiver 2>1": ("pretty", "json", "tsv"),
    "ar --quiver 2>1": ("dot", "json"),
    "hammock --quiver 2>1 --type-index 1": ("json",),
    "moves --quiver 2>1": ("tsv", "json", "pretty"),
    "gp --quiver 2>1": ("json",),
    "inequalities --quiver 2>1": ("pretty", "json"),
    "strings --quiver 2>1 --box 1": ("json",),
    "crystal --quiver 2>1 --depth 1": ("json",),
    "wiring --quiver 2>1": ("dot",),
}
REFUSED = [
    *(
        f"{command} --format {fmt}"
        for command, formats in FORMATS.items()
        for fmt in ("json", "tsv", "dot", "pretty")
        if fmt not in formats
    ),
    "verify suite --max-rank 1 --box 0 --quiver 2>1",
    "verify suite --max-rank 1 --box 0 --word 1",
    "verify suite --max-rank 1 --box 0 --strict",
    "verify theorem --quiver 2>1 --box 1",
    "verify theorem --quiver 2>1 --max-rank 1",
    "verify cone --quiver 2>1 --box 1 --strict",
    "verify conjecture --quiver 2>1 --box 1 --max-rank 1",
    "verify --box 1 suite",
    "verify theorem",
    "roots --quiver 2>1 --word 3,1,2",
    "roots --quiver 2>1 --word=0,1,2",
    "verify theorem --quiver 2>1 --word 3,1,2",
    "verify conjecture --quiver 2>1 --word 3,1,2",
    "crystal --quiver 3>1,3>2,3>4 --param lusztig --depth 2",
    "roots --quiver 2>1 --word a,b",
    "strings --quiver 2>1 --box x",
]


@pytest.mark.parametrize("argv", REFUSED)
def test_unsupported_option_exits_two(capsys, argv):
    assert run(capsys, *argv.split())[:2] == (2, "")
