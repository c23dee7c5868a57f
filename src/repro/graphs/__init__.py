"""Directed multigraphs and related machinery for anonymous networks.

This subpackage provides the graph substrate of the library: vertex-valued,
edge-colored directed multigraphs (:mod:`repro.graphs.digraph`), standard
constructions (:mod:`repro.graphs.builders`), structural predicates and
distances (:mod:`repro.graphs.properties`), the round-composition product of
dynamic-network theory (:mod:`repro.graphs.products`), isomorphism testing
(:mod:`repro.graphs.isomorphism`), and the hash-consed in-view structures of
Boldi and Vigna (:mod:`repro.graphs.views`).

Names resolve on first access (PEP 562): importing the graph type does
not load the isomorphism search or the product constructions.
"""

from repro import _lazy

_EXPORTS = {
    "repro.graphs.digraph": ("DiGraph", "Edge"),
    "repro.graphs.builders": (
        "bidirectional_ring", "complete_bipartite", "complete_graph",
        "de_bruijn_graph", "directed_ring", "hypercube", "lollipop", "path_graph",
        "random_strongly_connected", "random_symmetric_connected", "star_graph",
        "torus", "wheel_graph",
    ),
    "repro.graphs.products": ("graph_product", "iterated_product"),
    "repro.graphs.properties": (
        "diameter", "indegree_sequence", "is_complete", "is_strongly_connected",
        "is_symmetric", "outdegree_sequence",
    ),
    "repro.graphs.isomorphism": ("are_isomorphic", "find_isomorphism"),
    "repro.graphs.views": ("View", "ViewBuilder", "view_of"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)

__getattr__, __dir__ = _lazy.lazy_exports(globals(), _EXPORTS)
