"""What a scenario config may name: graph families, input patterns, probes.

The schema layer validates config strings against these tables (so every
typo fails at load time with the key and file in the message), and the
runner compiles the validated names back into graphs, input vectors, and
:class:`~repro.core.engine.batch.BatchJob` algorithms.  Everything here
is deterministic in ``(n, seed)`` — the registries introduce no
randomness of their own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.models import CommunicationModel

#: The generation of what a grid row says.  Bump when a probe's factory,
#: target or oracle changes what a row says: scenario row keys and
#: scenario document keys bind it, so a store filled under the old
#: meaning is never served for the new one.  It is written into no
#: document.  (2: the census oracle reads the built graph, not the
#: family name.)
SCENARIO_VERSION = 2


# ---------------------------------------------------------------------- #
# graph families
# ---------------------------------------------------------------------- #

@dataclass(frozen=True)
class GraphFamily:
    """One buildable topology family: ``build(n, seed)`` plus an optional
    per-size constraint (``check_size(n)`` returns an error message or
    ``None``).

    ``uses_seed`` declares whether ``build`` reads its seed.  The default
    is the safe one: a family that declares ``False`` promises that every
    seed builds an equal graph, so one run may build its network once per
    size and hand the same immutable graph to every seed and probe
    (:meth:`network_key`).  ``tests/scenarios/test_graph_sharing.py``
    proves each declaration.
    """

    name: str
    build: Callable[[int, int], Any]
    check_size: Optional[Callable[[int], Optional[str]]] = None
    uses_seed: bool = True

    def network_key(self, n: int, seed: int) -> Tuple[Any, ...]:
        """What fixes the graph ``build(n, seed)`` returns: the family and
        the size, plus the seed only when the family reads it."""
        if self.uses_seed:
            return (self.name, n, seed)
        return (self.name, n)


def _build_complete(n: int, seed: int):
    from repro.graphs.builders import complete_graph

    return complete_graph(n)


def _build_ring(n: int, seed: int):
    from repro.graphs.builders import bidirectional_ring

    return bidirectional_ring(n)


def _build_directed_ring(n: int, seed: int):
    from repro.graphs.builders import directed_ring

    return directed_ring(n)


def _build_star(n: int, seed: int):
    from repro.graphs.builders import star_graph

    return star_graph(n)


def _build_hypercube(n: int, seed: int):
    from repro.graphs.builders import hypercube

    return hypercube(n.bit_length() - 1)


def _check_hypercube(n: int) -> Optional[str]:
    if n < 2 or n & (n - 1):
        return f"hypercube sizes must be powers of two >= 2, got {n}"
    return None


def _build_random(n: int, seed: int):
    from repro.graphs.builders import random_strongly_connected

    return random_strongly_connected(n, seed=seed)


GRAPH_FAMILIES: Dict[str, GraphFamily] = {
    family.name: family
    for family in (
        GraphFamily("complete", _build_complete, uses_seed=False),
        GraphFamily("ring", _build_ring, uses_seed=False),
        GraphFamily("directed-ring", _build_directed_ring, uses_seed=False),
        GraphFamily("star", _build_star, uses_seed=False),
        GraphFamily("hypercube", _build_hypercube, _check_hypercube, uses_seed=False),
        GraphFamily("random", _build_random),
    )
}


# ---------------------------------------------------------------------- #
# input patterns
# ---------------------------------------------------------------------- #

def _bits_alternating(n: int, seed: int) -> List[int]:
    return [i % 2 for i in range(n)]


def _bits_one_hot(n: int, seed: int) -> List[int]:
    return [1 if i == 0 else 0 for i in range(n)]


def _bits_zeros(n: int, seed: int) -> List[int]:
    return [0] * n


def _bits_seeded(n: int, seed: int) -> List[int]:
    rng = random.Random(seed * 1_000_003 + 17)
    return [rng.randint(0, 1) for _ in range(n)]


INPUT_PATTERNS: Dict[str, Callable[[int, int], List[int]]] = {
    "alternating": _bits_alternating,
    "one-hot": _bits_one_hot,
    "zeros": _bits_zeros,
    "seeded": _bits_seeded,
}


# ---------------------------------------------------------------------- #
# probes
# ---------------------------------------------------------------------- #

@dataclass(frozen=True)
class Probe:
    """One grid probe: the algorithm, its model, the convergence target
    as a function of the inputs, and the oracle saying, from the built
    graph, whether the probe is *expected* to converge (a row is
    ``consistent`` when measurement and oracle agree — including expected
    failures)."""

    name: str
    model: CommunicationModel
    factory: Callable[[], Any]
    target: Callable[[List[int], int], Any]
    oracle: Callable[[Any], bool]


def _make_or_flood():
    from repro.algorithms.onebit import OneBitFloodingAlgorithm

    return OneBitFloodingAlgorithm()


def _make_census():
    from repro.algorithms.onebit import OneBitCensusAlgorithm

    return OneBitCensusAlgorithm()


def _make_gossip_max():
    from repro.algorithms.gossip import GossipAlgorithm

    return GossipAlgorithm(max)


def _hears_everyone(graph) -> bool:
    """Whether every vertex's in-neighbours are all n vertices, each once:
    the complete networks, whichever family builds them."""
    everyone = list(graph.vertices())
    return all(sorted(graph.in_neighbors(v)) == everyone for v in everyone)


PROBES: Dict[str, Probe] = {
    probe.name: probe
    for probe in (
        # OR-flooding converges to the disjunction on every strongly
        # connected network — the model pack's positive probe.
        Probe(
            "or-flood",
            CommunicationModel.ONE_BIT_BROADCAST,
            _make_or_flood,
            target=lambda bits, n: max(bits) if bits else 0,
            oracle=lambda graph: True,
        ),
        # The census counts ones exactly when every agent hears every
        # agent once, i.e. on complete networks with self-loops — small
        # rings, stars and hypercubes included.  Everywhere else the
        # expected verdict is failure (one bit per round does not carry a
        # global multiset through a bottleneck).
        Probe(
            "census",
            CommunicationModel.ONE_BIT_BROADCAST,
            _make_census,
            target=lambda bits, n: (n, sum(bits)),
            oracle=_hears_everyone,
        ),
        # Plain set-flooding gossip under simple broadcast — proves the
        # grid kind is not one-bit-specific.
        Probe(
            "gossip-max",
            CommunicationModel.SIMPLE_BROADCAST,
            _make_gossip_max,
            target=lambda bits, n: max(bits) if bits else 0,
            oracle=lambda graph: True,
        ),
    )
}
