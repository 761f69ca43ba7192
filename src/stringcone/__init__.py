"""Exact combinatorics of crystal moves and string cone inequalities.

Crystal operator moves are computed from translation-quiver antichains, string
cone defining inequalities from wiring-diagram path enumeration, and the two
systems are verified against each other and against brute-force string sets.
"""

__version__ = "0.1.0"

from .cartan import (  # noqa: F401
    DynkinDiagram,
    InvariantViolation,
    NotReducedW0,
    NotSimplyLacedAD,
    d_diagram,
    diagram_type,
    dynkin_diagram,
    path_diagram,
    positive_roots,
    reflection_ordering,
    w0_involution,
    weyl_act,
)
from .quiver import (  # noqa: F401
    NotAdapted,
    Quiver,
    QuiverParseError,
    adapted_word,
    all_orientations,
    condition_L,
    is_adapted,
    parse_quiver,
    quiver_spec,
)
from .arquiver import ARQuiver, build_ar, grid_A  # noqa: F401
from .lusztig import (  # noqa: F401
    Antichain,
    antichains,
    f_value,
    lusztig_crystal,
    lusztig_e,
    move,
    move_vectors,
)
from .strings import (  # noqa: F401
    generate_strings,
    in_cone,
    is_string,
    points,
    pretty_inequality,
    string_e,
    string_f,
    string_r,
)
from .wiring import (  # noqa: F401
    GPPath,
    WiringDiagram,
    antichain_path,
    build_wiring,
    gp_cone,
    gp_paths,
    k_vector,
    path_antichain,
    zones,
)
from .verify import (  # noqa: F401
    VerificationReport,
    check_cone,
    check_conjecture,
    check_theorem_2_4,
    run_suite,
)
