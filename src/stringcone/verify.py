"""End-to-end cross checks: move set versus path cone, cone membership versus
generated strings, the bounded conjecture instance, and sweepable structural
properties of the translation-quiver and wiring machinery.

One function, `_report`, makes every report: a check returns the list of what
it found wrong, the report passes when the list is empty and keeps its first
three items as the witness, and a check that raises fails with an
`internal_fault` witness.  Bad arguments raise before any report is made."""

from __future__ import annotations

from collections import namedtuple
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


class VerificationReport(
    namedtuple("VerificationReport", "instance check passed witness", defaults=(None,))
):
    __slots__ = ()

    def as_json(self) -> dict:
        return {
            "instance": self.instance,
            "check": self.check,
            "pass": self.passed,
            "witness": self.witness,
        }


def _instance(ar: arquiver.ARQuiver) -> str:
    return f"quiver {quiver_spec(ar.quiver)} word {','.join(map(str, ar.word))}"


def _report(instance: str, name: str, check, *args) -> VerificationReport:
    """The report `name` on `instance` of what `check(*args)` found wrong."""
    try:
        bad = check(*args)
    except Exception as exc:
        witness = repr(getattr(exc, "witness", None) or None)
        bad = [("internal_fault", type(exc).__name__, str(exc), witness)]
    return VerificationReport(instance, name, not bad, bad[:3] or None)


def _sides(a_tag, a, b_tag, b, order=sorted):
    """Each point of one set missing from the other, tagged with its side; each
    difference is listed as `order` gives it."""
    if a == b:  # the common case, and cheaper than two differences
        return []
    return [(a_tag, v) for v in order(a - b)] + [(b_tag, v) for v in order(b - a)]


def check_theorem_2_4(q: Quiver, word=None, strict: bool = False) -> VerificationReport:
    """Path-cone vectors equal move vectors, as plain or type-tagged sets."""
    if diagram_type(q.diagram) != "A":
        raise NotTypeAInstance("the path cone is a type A construction")
    ar = arquiver.build_ar(q, word)
    wd = wiring.build_wiring(ar.word, q.diagram.n)
    return _report(_instance(ar), "moves_equal_path_cone", moves_equal_path_cone, ar, wd, strict)


def moves_equal_path_cone(ar, wd, strict):
    # the move vectors and the path vectors, tagged by type when strict
    moves = lusztig.move_vectors(ar, typed=strict)
    return _sides("moves_only", moves, "paths_only", wiring.gp_cone(wd, typed=strict))


def check_cone(diagram, word, normals, box: int) -> VerificationReport:
    """Cone integer points, generated strings, and the lowering rule agree.

    Over [0..box]^N the integer points of the cone must equal the raising
    closure of zero, and every nonzero point of that closure must pass the
    lowering certificate of `strings.generate_strings`: its lowering, by the
    lowering rule alone, is defined and lands in the closure.
    """
    word = tuple(word)
    normals = [tuple(v) for v in normals]
    if any(len(v) != len(word) for v in normals):
        raise ValueError("dimension mismatch between word and normal")
    instance = f"word {','.join(map(str, word))}"
    return _report(instance, f"string_cone_box{box}", string_cone, diagram, word, normals, box)


def string_cone(diagram, word, normals, box):
    # the cone's points against the raising closure of zero, one box search
    # that also runs the lowering certificate on the closure; only when the
    # two sets agree, the points that fail the certificate, sorted.  The
    # kernels give point codes, so the sets are compared as codes and only
    # their differences are decoded, sorted by point
    def decoded(codes):
        return strings.points(codes, len(word), box)

    not_lowered = []
    try:
        generated = strings.generate_strings(diagram, word, box)
    except strings.NotLowered as exc:
        generated, not_lowered = exc.codes, exc.points
    cone = strings.cone_points_pruned(sorted(set(normals)), box, len(word))
    return (_sides("cone_only", cone, "generated_only", generated, decoded)
            or [("cone_not_lowered", v) for v in not_lowered])


def moves_define_cone(ar, box):
    # the cone comparison on the inequalities the move vectors give
    return string_cone(ar.quiver.diagram, ar.word, lusztig.move_vectors(ar), box)


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
    ar = arquiver.build_ar(q, word)
    require_condition_L(ar)
    return _report(_instance(ar), f"moves_define_cone_box{box}", moves_define_cone, ar, box)


def structural_reports(q: Quiver, word=None) -> list[VerificationReport]:
    """Property suite for one instance: the reports of every group of
    `STRUCTURAL_CHECKS` that applies to it.  The crystal checks presume the
    multiplicity-one property and are skipped where it fails (they would test a
    vacuous hypothesis); type A gets the wiring comparisons."""
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
        for a, comin, mv, t_u in lusztig.antichain_rows(ar, i):
            expected = tuple(map(add, t_u, mv))
            if lusztig.lusztig_e(ar, i, t_u) != expected:
                bad.append((i, a.positions))
            for k in comin:
                delta = t_u[k - 1] - (t_u[ar.tau[k] - 1] if k in ar.tau else 0)
                if delta != -1:
                    bad.append(("comin-delta", i, a.positions, k))
    return bad


def chamber_weights(ar, wd):
    # chamber weights against the Weyl-translated fundamental weights; weyl_act
    # runs on every prefix on purpose, an independent route to each chamber
    # weight that shares no walk with the wiring diagram's track table
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
        if wiring.path_vector(wd, p) != lusztig.move(ar, a):
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
    the wiring diagram of the same word, built here when not given."""
    inst = _instance(ar)
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
            out.extend(_report(inst, c.__name__ + suffix, c, ar, wd, *extra) for c in checks)
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
        for q in all_orientations(path_diagram(n)):
            ar = arquiver.build_ar(q)
            wd = wiring.build_wiring(ar.word, n)
            inst = _instance(ar)
            summary.reports.append(
                _report(inst, "moves_equal_path_cone", moves_equal_path_cone, ar, wd, True))
            summary.reports.append(
                _report(inst, f"string_cone_box{box}", moves_define_cone, ar, box))
            summary.reports.extend(_structural(ar, wd))
    return summary
