"""Dynamic graphs: the time-varying networks of Sections 2 and 5.

Names resolve on first access (PEP 562): the engine needs only
:class:`DynamicGraph`, not the generators around it.
"""

from repro import _lazy

_EXPORTS = {
    "repro.dynamics.dynamic_graph": (
        "DynamicGraph", "FunctionDynamicGraph", "PeriodicDynamicGraph",
        "SequenceDynamicGraph", "StaticAsDynamic",
    ),
    "repro.dynamics.generators": (
        "random_dynamic_strongly_connected", "recurring_dynamic_pool",
        "random_dynamic_symmetric", "sparse_pulsed_dynamic",
    ),
    "repro.dynamics.diameter": ("dynamic_diameter", "window_to_completeness"),
    "repro.dynamics.starts": ("AsynchronousStartGraph",),
    "repro.dynamics.weak_connectivity": (
        "certify_unbounded_diameter", "eventually_split_dynamic", "growing_gap_dynamic",
    ),
    "repro.dynamics.pairwise": ("random_matching_dynamic",),
    "repro.dynamics.adversarial": (
        "bottleneck_dynamic", "rooted_tree_dynamic", "rotating_star_dynamic",
    ),
    "repro.dynamics.lossy": ("LossyDynamicGraph",),
}

__all__ = [
    "AsynchronousStartGraph",
    "LossyDynamicGraph",
    "bottleneck_dynamic",
    "rooted_tree_dynamic",
    "rotating_star_dynamic",
    "DynamicGraph",
    "FunctionDynamicGraph",
    "PeriodicDynamicGraph",
    "SequenceDynamicGraph",
    "StaticAsDynamic",
    "certify_unbounded_diameter",
    "dynamic_diameter",
    "eventually_split_dynamic",
    "growing_gap_dynamic",
    "random_dynamic_strongly_connected",
    "random_dynamic_symmetric",
    "random_matching_dynamic",
    "recurring_dynamic_pool",
    "sparse_pulsed_dynamic",
    "window_to_completeness",
]

__getattr__, __dir__ = _lazy.lazy_exports(globals(), _EXPORTS)
