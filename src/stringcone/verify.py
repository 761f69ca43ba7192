"""End-to-end cross checks: move set versus path cone, cone membership versus
generated strings, the bounded conjecture instance, and sweepable structural
properties of the translation-quiver and wiring machinery."""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add

from . import arquiver, lusztig, strings, wiring
from .cartan import (
    diagram_type,
    pair_root_weight,
    path_diagram,
    simple_root,
    weyl_act,
    w0_involution,
)
from .quiver import (
    Quiver,
    adapted_word,
    all_orientations,
    condition_L,
    coxeter_act_root,
    coxeter_act_weight,
    phi_R,
    quiver_spec,
    rho,
    rho_t,
)


class ConditionLFails(ValueError):
    """The quiver lacks the multiplicity-one property required for moves."""


class NotTypeAInstance(ValueError):
    """The check needs a type A quiver."""


@dataclass(frozen=True)
class VerificationReport:
    instance: str
    check: str
    passed: bool
    witness: object = None

    def as_json(self) -> dict:
        return {
            "instance": self.instance,
            "check": self.check,
            "pass": self.passed,
            "witness": self.witness,
        }


def _instance(q: Quiver, word) -> str:
    return f"quiver {quiver_spec(q)} word {','.join(str(i) for i in word)}"


def check_theorem_2_4(q: Quiver, word=None, strict: bool = False) -> VerificationReport:
    """Path-cone vectors equal move vectors, as plain or type-tagged sets."""
    if diagram_type(q.diagram) != "A":
        raise NotTypeAInstance("the path cone is a type A construction")
    if word is None:
        word = adapted_word(q)
    ar = arquiver.build_ar(q, word)
    wd = wiring.build_wiring(word, q.diagram.n)
    return _theorem_2_4(ar, wd, strict)


def _theorem_2_4(
    ar: arquiver.ARQuiver, wd: wiring.WiringDiagram, strict: bool
) -> VerificationReport:
    moves = lusztig.move_vectors(ar, typed=strict)
    cone = wiring.gp_cone(wd, typed=strict)
    witness = None
    if moves != cone:
        extra_moves = sorted(moves - cone)
        extra_paths = sorted(cone - moves)
        witness = {"moves_only": extra_moves[:3], "paths_only": extra_paths[:3]}
    return VerificationReport(
        _instance(ar.quiver, ar.word), "moves_equal_path_cone", moves == cone, witness
    )


def check_cone(diagram, word, normals, box: int) -> VerificationReport:
    """Cone integer points, generated strings, and the membership oracle agree.

    Over [0..box]^N the integer points of the cone must equal the raising
    closure of zero, and the lowering oracle's strings in the box must equal
    that closure too: every cone point accepted, every other point rejected.
    """
    word = tuple(word)
    dim = len(word)
    normals = sorted(set(tuple(v) for v in normals))
    generated = strings.generate_strings(diagram, word, box)
    cone = strings.cone_points_pruned(normals, box, dim)
    witness = None
    passed = generated == cone
    if not passed:
        missing = sorted(cone - generated)
        extra = sorted(generated - cone)
        witness = {"cone_only": missing[:3], "generated_only": extra[:3]}
    else:
        filtered = strings.strings_in_box(diagram, word, box)
        if filtered != generated:
            passed = False
            witness = {
                "filter_only": sorted(filtered - generated)[:3],
                "generated_only": sorted(generated - filtered)[:3],
            }
    name = f"string_cone_box{box}"
    return VerificationReport(f"word {','.join(map(str, word))}", name, passed, witness)


def require_condition_L(ar: arquiver.ARQuiver) -> None:
    """Raise ConditionLFails unless the quiver of `ar` has the multiplicity-one
    property, without which the antichain moves are no crystal operators."""
    if not condition_L(ar):
        raise ConditionLFails(
            f"quiver {quiver_spec(ar.quiver)} has a module with multiplicity two"
        )


def check_conjecture(q: Quiver, word=None, box: int = 2) -> VerificationReport:
    """Bounded-box instance of the move-vectors-define-the-cone statement.

    This certifies equality over [0..box]^N only; nothing beyond the box.
    """
    if word is None:
        word = adapted_word(q)
    ar = arquiver.build_ar(q, word)
    require_condition_L(ar)
    normals = lusztig.move_vectors(ar)
    report = check_cone(q.diagram, word, normals, box)
    return VerificationReport(
        _instance(q, word), f"moves_define_cone_box{box}", report.passed, report.witness
    )


def structural_reports(q: Quiver, word=None) -> list[VerificationReport]:
    """Property suite for one instance; type A gets the wiring comparisons.

    The crystal checks presume the multiplicity-one property and are skipped
    where it fails (they would test a vacuous hypothesis).  They read the move
    table, not a crystal graph: `move_weight_increment` checks that every type-i
    move vector has weight alpha_i, which covers every raising step at any
    depth, and `raising_witness` that raising each antichain's u-vector adds
    exactly its move.
    """
    if word is None:
        word = adapted_word(q)
    return _structural(arquiver.build_ar(q, word))


def _structural(
    ar: arquiver.ARQuiver, wd: wiring.WiringDiagram | None = None
) -> list[VerificationReport]:
    """`structural_reports` on a built translation quiver; in type A, `wd` is
    the wiring diagram of the same word, built here when not given."""
    q, word = ar.quiver, ar.word
    inst = _instance(q, word)
    d = q.diagram
    n = d.n
    simple = [simple_root(d, i) for i in range(1, n + 1)]
    out: list[VerificationReport] = []

    def report(check: str, passed: bool, witness=None) -> None:
        out.append(VerificationReport(inst, check, passed, witness))

    # translation matches the Coxeter action on roots
    bad = [
        k
        for k in range(1, ar.N + 1)
        if k in ar.tau and ar.root(ar.tau[k]) != coxeter_act_root(q, ar.root(k))
    ]
    report("translation_is_coxeter", not bad, bad[:3] or None)

    # first/last positions per level carry projective/injective vectors
    invol = w0_involution(d)
    bad = []
    for i in range(1, n + 1):
        positions = ar.level_positions(i)
        if not positions:
            bad.append(("missing-level", i))
            continue
        if ar.root(positions[0]) != arquiver.projective_dimension_vector(q, i):
            bad.append(("projective", i))
        if ar.root(positions[-1]) != arquiver.injective_dimension_vector(q, invol[i - 1]):
            bad.append(("injective", i))
    report("level_endpoints", not bad, bad[:3] or None)

    # coxeter action sends the column weights to the negated row weights
    bad = [
        i
        for i in range(1, n + 1)
        if coxeter_act_weight(q, rho(q, i)) != tuple(-x for x in rho_t(q, i))
    ]
    report("coxeter_rho", not bad, bad or None)

    # mesh relation: the roots at k and at its translate sum to the roots at
    # the middle terms, the starts of the arrows into k
    middle = [[0] * n for _ in range(ar.N)]
    for j, k in ar.arrows:
        middle[k - 1] = list(map(add, middle[k - 1], ar.root(j)))
    bad = [
        k
        for k, t in sorted(ar.tau.items())
        if list(map(add, ar.root(k), ar.root(t))) != middle[k - 1]
    ]
    report("mesh_relation", not bad, bad[:3] or None)

    # map-space dimensions stay nonnegative
    bad = [
        (k, i)
        for k, row in enumerate(ar.hom_table(), start=1)
        for i, dim in enumerate(row, start=1)
        if dim < 0
    ]
    report("hom_nonnegative", not bad, bad[:3] or None)

    if condition_L(ar):
        # every type-i move has weight alpha_i, so every raising step adds it
        bad = [
            (a.type_index, a.positions)
            for a, vec in lusztig.all_moves(ar)
            if lusztig.lusztig_weight(ar, vec) != simple[a.type_index - 1]
        ]
        report("move_weight_increment", not bad, bad[:3] or None)

        # witness property: raising the translated-minimals module applies the move
        bad = []
        for i in range(1, n + 1):
            for a, ideal, comin, mv, t_u in lusztig.antichain_rows(ar, i):
                expected = tuple(map(add, t_u, mv))
                if lusztig.lusztig_e(ar, i, t_u) != expected:
                    bad.append((i, a.positions))
                for k in ideal:
                    delta = t_u[k - 1] - (t_u[ar.tau[k] - 1] if k in ar.tau else 0)
                    if delta < 0:
                        bad.append(("ideal-delta", i, a.positions, k))
                for k in comin:
                    delta = t_u[k - 1] - (t_u[ar.tau[k] - 1] if k in ar.tau else 0)
                    if delta != -1:
                        bad.append(("comin-delta", i, a.positions, k))
        report("raising_witness", not bad, bad[:3] or None)

    if diagram_type(d) != "A":
        return out

    if wd is None:
        wd = wiring.build_wiring(word, n)

    # chamber weights against the Weyl-translated fundamental weights
    bad = []
    for k in range(1, ar.N + 1):
        # in the weight basis the fundamental weight omega_i has coordinates e_i
        omega = simple[word[k - 1] - 1]
        if wiring.lambda_minus(wd, k) != weyl_act(d, word[: k - 1], omega, basis="weight"):
            bad.append(("minus", k))
        if wiring.lambda_plus(wd, k) != weyl_act(d, word[:k], omega, basis="weight"):
            bad.append(("plus", k))
    report("chamber_weights", not bad, bad[:3] or None)

    # lambda-plus equals the negated column map on every crossing
    bad = [k for k in range(1, ar.N + 1) if wiring.lambda_plus(wd, k) != phi_R(q, ar.root(k))]
    report("lambda_plus_column_map", not bad, bad[:3] or None)

    # membership pairing: (root, rho_i) equals the i-th left-label coordinate
    bad = []
    rhos = [rho(q, i) for i in range(1, n + 1)]
    for k in range(1, ar.N + 1):
        lm = wiring.lambda_minus(wd, k)
        for i in range(1, n + 1):
            if pair_root_weight(ar.root(k), rhos[i - 1]) != lm[i - 1]:
                bad.append((k, i))
    report("membership_pairing", not bad, bad[:3] or None)

    for i in range(1, n + 1):
        grid = arquiver.grid_A(ar, i)
        z = wiring.zones(wd, i)
        ham = set(ar.hammock(i))
        pset = set(ar.p_set(i))

        # grid cells carry the segment-interval roots; order matches path order
        bad = []
        for (c1, pos1) in grid.cells.items():
            for (c2, pos2) in grid.cells.items():
                if pos1 in pset and pos2 in pset:
                    if grid.leq(c1, c2) != ar.leq(pos1, pos2):
                        bad.append((c1, c2))
        report(f"grid_order_type{i}", not bad, bad[:3] or None)

        # the subgraph on the hammock matches wiring adjacency through positions
        adj_ar = {
            frozenset((k1, k2))
            for k1, k2 in ar.arrows
            if k1 in ham and k2 in ham
        }
        adj_wd = set()
        for wire, route in wd.wire_route.items():
            for u, v in zip(route, route[1:]):
                if u in ham and v in ham:
                    adj_wd.add(frozenset((u, v)))
        report(f"hammock_isomorphism_type{i}", adj_ar == adj_wd,
               sorted(map(sorted, adj_ar ^ adj_wd))[:3] or None)

        # rightmost chamber corners realize the module positions
        report(f"zone_positions_type{i}", z.z_positions == pset,
               sorted(z.z_positions ^ pset) or None)

        # limiting path is a valid path contributing the simple-root coordinate
        delta_ok = wiring.is_gp_path(wd, z.delta)
        alpha_pos = ar.position_by_root[simple[i - 1]]
        kvec = wiring.k_vector(wd, z.delta)
        expected = tuple(1 if k == alpha_pos else 0 for k in range(1, ar.N + 1))
        report(f"limiting_path_type{i}", delta_ok and kvec == expected, None)

        # every path stays on zone vertices; border vertices of the zone lie
        # on the limiting path
        paths = wiring.gp_paths(wd, i)
        bad = [p.crossings for p in paths if not set(p.crossings) <= z.y_positions]
        report(f"paths_inside_zone_type{i}", not bad, bad[:3] or None)
        outside = z.y_positions - z.z_positions - set(z.delta.crossings)
        report(f"zone_border_on_limiting_type{i}", not outside, sorted(outside) or None)

        # path/antichain correspondence matches vectors one for one
        chains = lusztig.antichains(ar, i)
        bad = []
        if len(paths) != len(chains):
            bad.append(("count", len(paths), len(chains)))
        rebuilt = {a: wiring.antichain_path(wd, ar, a) for a in chains}
        for a, p in rebuilt.items():
            if wiring.k_vector(wd, p) != lusztig.move(ar, a):
                bad.append(("vector", a.positions))
        for p in paths:
            if rebuilt.get(wiring.path_antichain(wd, ar, p)) != p:
                bad.append(("roundtrip", p.crossings))
        report(f"path_antichain_bijection_type{i}", not bad, bad[:3] or None)

    return out


@dataclass
class SuiteSummary:
    reports: list[VerificationReport] = field(default_factory=list)

    @property
    def failures(self) -> list[VerificationReport]:
        return [r for r in self.reports if not r.passed]

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_json(self) -> dict:
        return {
            "checks": len(self.reports),
            "passed": len(self.reports) - len(self.failures),
            "failures": [r.as_json() for r in self.failures],
        }


def run_suite(max_rank: int, box: int) -> SuiteSummary:
    """Sweep every type A orientation up to the rank, running all checks."""
    summary = SuiteSummary()
    for n in range(1, max_rank + 1):
        d = path_diagram(n)
        for q in all_orientations(d):
            word = adapted_word(q)
            ar = arquiver.build_ar(q, word)
            wd = wiring.build_wiring(word, n)
            summary.reports.append(_theorem_2_4(ar, wd, strict=True))
            normals = lusztig.move_vectors(ar)
            cone = check_cone(d, word, normals, box)
            summary.reports.append(
                VerificationReport(_instance(q, word), cone.check, cone.passed, cone.witness)
            )
            summary.reports.extend(_structural(ar, wd))
    return summary
