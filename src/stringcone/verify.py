"""End-to-end cross checks: move set versus path cone, cone membership versus
generated strings, the bounded conjecture instance, and sweepable structural
properties of the translation-quiver and wiring machinery."""

from __future__ import annotations

from operator import add
from typing import NamedTuple

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


class VerificationReport(NamedTuple):
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
        witness = {"moves_only": sorted(moves - cone)[:3], "paths_only": sorted(cone - moves)[:3]}
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
        witness = {"cone_only": sorted(cone - generated)[:3],
                   "generated_only": sorted(generated - cone)[:3]}
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
    report = check_cone(q.diagram, word, lusztig.move_vectors(ar), box)
    return report._replace(instance=_instance(q, word), check=f"moves_define_cone_box{box}")


def structural_reports(q: Quiver, word=None) -> list[VerificationReport]:
    """Property suite for one instance: the reports of every group of
    `STRUCTURAL_CHECKS` that applies to it.  The crystal checks presume the
    multiplicity-one property and are skipped where it fails (they would test a
    vacuous hypothesis); type A gets the wiring comparisons."""
    if word is None:
        word = adapted_word(q)
    return _structural(arquiver.build_ar(q, word))


# The structural checks.  Each takes the translation quiver and, in type A, the
# wiring diagram of the same word (None otherwise), a per-type check also the
# type index i, and returns the list of what it found wrong.  They read the move
# table, not a crystal graph.


def translation_is_coxeter(ar, wd):
    # translation matches the Coxeter action on roots
    return [k for k in range(1, ar.N + 1)
            if k in ar.tau and ar.root(ar.tau[k]) != coxeter_act_root(ar.quiver, ar.root(k))]


def level_endpoints(ar, wd):
    # first/last positions per level carry projective/injective vectors
    q = ar.quiver
    invol = w0_involution(q.diagram)
    bad = []
    for i in range(1, ar.n + 1):
        positions = ar.level_positions(i)
        if not positions:
            bad.append(("missing-level", i))
            continue
        if ar.root(positions[0]) != arquiver.projective_dimension_vector(q, i):
            bad.append(("projective", i))
        if ar.root(positions[-1]) != arquiver.injective_dimension_vector(q, invol[i - 1]):
            bad.append(("injective", i))
    return bad


def coxeter_rho(ar, wd):
    # coxeter action sends the column weights to the negated row weights
    q = ar.quiver
    return [i for i in range(1, ar.n + 1)
            if coxeter_act_weight(q, rho(q, i)) != tuple(-x for x in rho_t(q, i))]


def mesh_relation(ar, wd):
    # mesh relation: the roots at k and at its translate sum to the roots at
    # the middle terms, the starts of the arrows into k
    middle = [[0] * ar.n for _ in range(ar.N)]
    for j, k in ar.arrows:
        middle[k - 1] = list(map(add, middle[k - 1], ar.root(j)))
    return [k for k, t in sorted(ar.tau.items())
            if list(map(add, ar.root(k), ar.root(t))) != middle[k - 1]]


def hom_nonnegative(ar, wd):
    # map-space dimensions stay nonnegative
    rows = enumerate(ar.hom_table(), start=1)
    return [(k, i) for k, row in rows for i, dim in enumerate(row, start=1) if dim < 0]


def move_weight_increment(ar, wd):
    # every type-i move has weight alpha_i, so every raising step adds it
    simple = [simple_root(ar.quiver.diagram, i) for i in range(1, ar.n + 1)]
    return [(a.type_index, a.positions) for a, vec in lusztig.all_moves(ar)
            if lusztig.lusztig_weight(ar, vec) != simple[a.type_index - 1]]


def raising_witness(ar, wd):
    # witness property: raising the translated-minimals module applies the move
    bad = []
    for i in range(1, ar.n + 1):
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
    return bad


def chamber_weights(ar, wd):
    # chamber weights against the Weyl-translated fundamental weights
    d, word = ar.quiver.diagram, ar.word
    simple = [simple_root(d, i) for i in range(1, ar.n + 1)]
    bad = []
    for k in range(1, ar.N + 1):
        # in the weight basis the fundamental weight omega_i has coordinates e_i
        omega = simple[word[k - 1] - 1]
        if wiring.lambda_minus(wd, k) != weyl_act(d, word[: k - 1], omega, basis="weight"):
            bad.append(("minus", k))
        if wiring.lambda_plus(wd, k) != weyl_act(d, word[:k], omega, basis="weight"):
            bad.append(("plus", k))
    return bad


def lambda_plus_column_map(ar, wd):
    # lambda-plus equals the negated column map on every crossing
    return [k for k in range(1, ar.N + 1)
            if wiring.lambda_plus(wd, k) != phi_R(ar.quiver, ar.root(k))]


def membership_pairing(ar, wd):
    # membership pairing: (root, rho_i) equals the i-th left-label coordinate
    bad = []
    rhos = [rho(ar.quiver, i) for i in range(1, ar.n + 1)]
    for k in range(1, ar.N + 1):
        lm = wiring.lambda_minus(wd, k)
        for i in range(1, ar.n + 1):
            if pair_root_weight(ar.root(k), rhos[i - 1]) != lm[i - 1]:
                bad.append((k, i))
    return bad


def grid_order(ar, wd, i):
    # grid cells carry the segment-interval roots; order matches path order
    grid = arquiver.grid_A(ar, i)
    pset = set(ar.p_set(i))
    cells = [(c, pos) for c, pos in grid.cells.items() if pos in pset]
    return [(c1, c2) for c1, pos1 in cells for c2, pos2 in cells
            if grid.leq(c1, c2) != ar.leq(pos1, pos2)]


def hammock_isomorphism(ar, wd, i):
    # the subgraph on the hammock matches wiring adjacency through positions
    ham = set(ar.hammock(i))
    adj_ar = {frozenset((k1, k2)) for k1, k2 in ar.arrows if k1 in ham and k2 in ham}
    adj_wd = {frozenset((u, v)) for route in wd.wire_route.values()
              for u, v in zip(route, route[1:]) if u in ham and v in ham}
    return sorted(map(sorted, adj_ar ^ adj_wd))


def zone_positions(ar, wd, i):
    # rightmost chamber corners realize the module positions
    return sorted(wiring.zones(wd, i).z_positions ^ set(ar.p_set(i)))


def limiting_path(ar, wd, i):
    # limiting path is a valid path contributing the simple-root coordinate
    delta = wiring.zones(wd, i).delta
    alpha_pos = ar.position_by_root[simple_root(ar.quiver.diagram, i)]
    expected = tuple(1 if k == alpha_pos else 0 for k in range(1, ar.N + 1))
    if wiring.is_gp_path(wd, delta) and wiring.k_vector(wd, delta) == expected:
        return []
    return [delta.crossings]


def paths_inside_zone(ar, wd, i):
    # every path stays on zone vertices
    y_positions = wiring.zones(wd, i).y_positions
    return [p.crossings for p in wiring.gp_paths(wd, i) if not set(p.crossings) <= y_positions]


def zone_border_on_limiting(ar, wd, i):
    # border vertices of the zone lie on the limiting path
    z = wiring.zones(wd, i)
    return sorted(z.y_positions - z.z_positions - set(z.delta.crossings))


def path_antichain_bijection(ar, wd, i):
    # path/antichain correspondence matches vectors one for one
    paths = wiring.gp_paths(wd, i)
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
    return bad


# The checks in report order, by group: every instance, under condition L, type
# A, and type A once for each type i, reported as `<name>_type{i}`.
STRUCTURAL_CHECKS = (
    ("every", (translation_is_coxeter, level_endpoints, coxeter_rho, mesh_relation,
               hom_nonnegative)),
    ("L", (move_weight_increment, raising_witness)),
    ("A", (chamber_weights, lambda_plus_column_map, membership_pairing)),
    ("A per type", (grid_order, hammock_isomorphism, zone_positions, limiting_path,
                    paths_inside_zone, zone_border_on_limiting, path_antichain_bijection)),
)


def _structural(
    ar: arquiver.ARQuiver, wd: wiring.WiringDiagram | None = None
) -> list[VerificationReport]:
    """`structural_reports` on a built translation quiver; in type A, `wd` is
    the wiring diagram of the same word, built here when not given.  A check
    that raises fails with an `internal_fault` witness."""
    inst = _instance(ar.quiver, ar.word)
    type_a = diagram_type(ar.quiver.diagram) == "A"
    if type_a and wd is None:
        wd = wiring.build_wiring(ar.word, ar.n)
    # the extra arguments of each run of a group's checks
    once, per_type = [()], [(i,) for i in range(1, ar.n + 1)]
    runs = {"every": once, "L": once if condition_L(ar) else [],
            "A": once if type_a else [], "A per type": per_type if type_a else []}
    out = []
    for group, checks in STRUCTURAL_CHECKS:
        for extra in runs[group]:
            suffix = "".join(f"_type{i}" for i in extra)
            for check in checks:
                try:
                    bad = check(ar, wd, *extra)
                except Exception as exc:
                    witness = repr(getattr(exc, "witness", None) or None)
                    bad = [("internal_fault", type(exc).__name__, str(exc), witness)]
                name = check.__name__ + suffix
                out.append(VerificationReport(inst, name, not bad, bad[:3] or None))
    return out


class SuiteSummary:
    def __init__(self) -> None:
        self.reports: list[VerificationReport] = []

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
            cone = check_cone(d, word, lusztig.move_vectors(ar), box)
            summary.reports.append(cone._replace(instance=_instance(q, word)))
            summary.reports.extend(_structural(ar, wd))
    return summary
