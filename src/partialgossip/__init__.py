"""Partial gossip: optimal call counts, schedule synthesis, simulation, search.

Each of n persons starts with one unique gossip; a telephone call merges
the two participants' gossip sets.  This package computes the minimum
number of calls P(n,k) after which everyone knows at least k gossips,
synthesizes schedules attaining it, simulates gossip spreading, and
verifies the structural lower-bound lemmas behind the closed form by
exhaustive search and property testing.
"""

__version__ = "0.1.0"

from .core import (
    Call,
    KnowledgeState,
    Schedule,
    ValidationError,
    apply_preliminary,
    awareness,
    is_exact_k_informing,
    is_k_informing,
    max_informing_level,
    schedule_from_json,
    schedule_to_json,
    simulate,
)
from .formulas import (
    REGIME_BAND,
    REGIME_CEIL_FRACTION,
    TRegime,
    classify_regime,
    lemma1b_bound,
    p_min_calls,
    t_value,
)
from .constructions import (
    max_feasible_blocks,
    minimal_informing_tree,
    multiblock_feasible,
    synth_doubling,
    synth_multiblock,
    synth_tree_copies,
    synth_tree_variant,
)
from .graph import (
    CommGraph,
    ComponentKind,
    are_equivalent,
    classify_components,
    first_call_split,
    full_graph,
    is_spanning_tree,
    swap_blocks,
    to_dot,
)
from .oracle import (
    SearchConfig,
    SearchResult,
    canonical_key,
    enumerate_tree_schemes,
    enumerate_unicyclic_schemes,
    min_calls_bruteforce,
)
from .lemmas import LEMMA_IDS, LemmaParams, LemmaReport, check_lemma

__all__ = [
    "Call",
    "CommGraph",
    "ComponentKind",
    "KnowledgeState",
    "LEMMA_IDS",
    "LemmaParams",
    "LemmaReport",
    "REGIME_BAND",
    "REGIME_CEIL_FRACTION",
    "Schedule",
    "SearchConfig",
    "SearchResult",
    "TRegime",
    "ValidationError",
    "apply_preliminary",
    "are_equivalent",
    "awareness",
    "canonical_key",
    "check_lemma",
    "classify_components",
    "classify_regime",
    "enumerate_tree_schemes",
    "enumerate_unicyclic_schemes",
    "first_call_split",
    "full_graph",
    "is_exact_k_informing",
    "is_k_informing",
    "is_spanning_tree",
    "lemma1b_bound",
    "max_feasible_blocks",
    "max_informing_level",
    "min_calls_bruteforce",
    "minimal_informing_tree",
    "multiblock_feasible",
    "p_min_calls",
    "schedule_from_json",
    "schedule_to_json",
    "simulate",
    "swap_blocks",
    "synth_doubling",
    "synth_multiblock",
    "synth_tree_copies",
    "synth_tree_variant",
    "t_value",
    "to_dot",
]
