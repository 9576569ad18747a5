"""Lower-bound graph families and the Alice-Bob reduction framework.

Sections 5 and 7 of the paper prove Omega~(n^2) CONGEST lower bounds by
building *families of lower bound graphs* (Definition 18): graphs whose
Alice-side edges depend only on ``x``, whose Bob-side edges depend only on
``y``, whose cut is tiny (O(log k) edges), and whose optimum crosses a
predicate threshold exactly when set-disjointness does.  Theorem 19 then
converts communication complexity into round lower bounds.

Each construction module exposes a ``build_*`` function returning a
:class:`~repro.lowerbounds.framework.LowerBoundFamily` plus verification
helpers that check the paper's reduction lemmas with exact solvers.
:func:`build_family` builds a member of any family in :data:`FAMILIES`,
the ones ``repro gallery`` and ``repro verify`` name.
"""

from repro.lowerbounds.disjointness import (
    disj,
    random_instance,
    all_instances,
    disjointness_cc_bound,
)
from repro.lowerbounds.framework import (
    LowerBoundFamily,
    implied_round_lower_bound,
    verify_side_independence,
)
from repro.lowerbounds.ckp17 import build_ckp17_mvc, ckp17_threshold
from repro.lowerbounds.mwvc_square import build_mwvc_square_family
from repro.lowerbounds.mvc_square import (
    build_mvc_square_family,
    mvc_square_threshold,
)
from repro.lowerbounds.bcd19 import build_bcd19_mds, bcd19_threshold
from repro.lowerbounds.mds_square_exact import (
    build_mds_square_family,
    mds_square_threshold,
)
from repro.lowerbounds.set_system import (
    has_r_covering_property,
    find_r_covering_system,
)
from repro.lowerbounds.mds_square_gap import (
    build_gap_family,
    GapConstructionParams,
)
from repro.lowerbounds.limitation import two_party_cover_protocol
from repro.lowerbounds.normal_forms import (
    normalize_dangling_cover,
    normalize_path5_dominating_set,
)

#: The family names ``repro gallery`` and ``repro verify`` accept.
FAMILIES = ("ckp17", "bcd19", "gap-weighted", "gap-unweighted")


def build_family(family: str, x, y, k: int) -> LowerBoundFamily:
    """The member of ``family`` for the disjointness inputs ``x`` and ``y``.

    ckp17 and bcd19 are built at size ``k``.  The gap constructions index
    rows by their ``T`` sets, so they keep only the pairs of ``x`` and
    ``y`` whose coordinates are both at most ``T`` (3 by default).
    """
    if family == "ckp17":
        return build_ckp17_mvc(x, y, k)
    if family == "bcd19":
        return build_bcd19_mds(x, y, k)
    if family not in FAMILIES:
        raise ValueError(
            f"unknown lower-bound family {family!r}; expected one of "
            f"{', '.join(FAMILIES)}"
        )
    params = GapConstructionParams()
    rows = params.num_sets
    small_x = frozenset(p for p in x if p[0] <= rows and p[1] <= rows)
    small_y = frozenset(p for p in y if p[0] <= rows and p[1] <= rows)
    return build_gap_family(
        small_x, small_y, params, weighted=family == "gap-weighted"
    )


__all__ = [
    "FAMILIES",
    "build_family",
    "disj",
    "random_instance",
    "all_instances",
    "disjointness_cc_bound",
    "LowerBoundFamily",
    "implied_round_lower_bound",
    "verify_side_independence",
    "build_ckp17_mvc",
    "ckp17_threshold",
    "build_mwvc_square_family",
    "build_mvc_square_family",
    "mvc_square_threshold",
    "build_bcd19_mds",
    "bcd19_threshold",
    "build_mds_square_family",
    "mds_square_threshold",
    "has_r_covering_property",
    "find_r_covering_system",
    "build_gap_family",
    "GapConstructionParams",
    "two_party_cover_protocol",
    "normalize_dangling_cover",
    "normalize_path5_dominating_set",
]
