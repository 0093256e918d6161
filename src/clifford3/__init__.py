"""Exact Clifford-type bounds on section counts of rank-1/2/3 bundles on
curves of genus >= 2, with Krawtchouk refinements, an elementary-
transformation calculus and sharpness witnesses on hyperelliptic curves."""

from .bounds import (
    Rank3Query,
    bound,
    h0_line_bound,
    h0_prop21_bound,
    h0_rank2_bound,
    h0_rank3_semistable_bound,
    h0_rank3_unstable_bound,
    slope_bound,
    suggested_min_s1f,
)
from .elmtrans import (
    ElmState,
    certified_ranks,
    generic_sequence,
    s2_lower_bound_track,
    seed_state_lemma36,
    seed_state_rank3_extended,
    step,
    trajectory,
)
from .families import (
    ExampleReport,
    family_a,
    family_b,
    family_c,
    genus_reports,
    stable_pairs_for_degree5_genus2,
    suite,
    unstable_sharpness,
)
from .invariants import (
    BoundResult,
    BundleInvariants,
    Curve,
    h0_hyperelliptic_power,
    serre_dual,
    twist_by_line,
)
from .krawtchouk import KrawtchoukQuery, delta_vanishes, krawtchouk, krawtchouk_oracle

__version__ = "0.1.0"

__all__ = [
    "BoundResult",
    "BundleInvariants",
    "Curve",
    "ElmState",
    "ExampleReport",
    "KrawtchoukQuery",
    "Rank3Query",
    "bound",
    "certified_ranks",
    "delta_vanishes",
    "family_a",
    "family_b",
    "family_c",
    "generic_sequence",
    "genus_reports",
    "h0_hyperelliptic_power",
    "h0_line_bound",
    "h0_prop21_bound",
    "h0_rank2_bound",
    "h0_rank3_semistable_bound",
    "h0_rank3_unstable_bound",
    "krawtchouk",
    "krawtchouk_oracle",
    "s2_lower_bound_track",
    "seed_state_lemma36",
    "seed_state_rank3_extended",
    "serre_dual",
    "slope_bound",
    "stable_pairs_for_degree5_genus2",
    "step",
    "suggested_min_s1f",
    "suite",
    "trajectory",
    "twist_by_line",
    "unstable_sharpness",
]
