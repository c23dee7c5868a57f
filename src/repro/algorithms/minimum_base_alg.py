"""Distributed minimum-base construction à la Boldi–Vigna (§3.2, §4.2).

Each agent maintains its in-view ``T_i^t``, growing by one level per round:
the round-``t`` view is a fresh root labelled with the agent's input whose
children are the views received from in-neighbors (self included, through
the self-loop).  Depending on the model, child edges carry extra
decoration:

* outdegree awareness — the sender's current outdegree (σ may depend on
  ``d⁻``, so senders ship it alongside their view);
* output port awareness — the sender's port number for that edge;
* symmetric communications — nothing (plain broadcast).

From its view the agent extracts the candidate base ``B(T_i^t)``: with
``k = ⌊t/2⌋``, two view nodes within the top ``k - 1`` levels are
identified when their depth-``k`` truncations coincide; the identified
classes with the witnesses' child links form a quotient multigraph.  Once
``t`` is large enough (``t ≥ 2(n + D)`` suffices; empirically much less —
the stabilization benchmark measures it) the extraction *is* the minimum
base of the (decorated) network, and stays so forever.

Self-stabilization comes from the *finite-state variant* (pass
``max_view_depth``; see :class:`_ViewStateMixin`): bounding the stored
depth flushes any garbage — corrupted initial views, an asynchronous
start-up transient — out of memory within ``max_view_depth`` rounds,
mirroring the paper's bounded version with its O(D log D) overhead.  The
unbounded version keeps the whole history and is only correct from clean
synchronous starts.  Views are hash-consed (:mod:`repro.graphs.views`),
so each round costs O(n·t) pointer work rather than the exponential
unfolded size.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.core.agent import BroadcastAlgorithm, OutdegreeAlgorithm, OutputPortAlgorithm
from repro.core.models import CommunicationModel
from repro.graphs.digraph import DiGraph
from repro.graphs.views import View, ViewBuilder, nodes_within_levels

State = Tuple[Any, View]


def extract_base(
    view: View, builder: ViewBuilder, skip_root: bool = False
) -> Optional[DiGraph]:
    """The candidate base ``B(T^t)`` from a depth-``t`` view.

    Returns ``None`` while the view is too shallow or still inconsistent
    (a child class escaping the collected set); both resolve with more
    rounds.  The result is a vertex-valued, edge-colored multigraph whose
    values are the view labels and whose colors are the edge decorations
    (ports / None).

    ``skip_root`` collects witnesses from level 1 on — used by the
    outdegree model, whose *stored* root is unlabeled (the full
    ``(value, outdegree)`` label is only attached when sending, since σ
    learns ``d⁻`` at send time); every vertex still appears at level ≥ 1
    through its self-loop.

    The result is a function of the view alone, so it is memoized in
    ``builder.memo`` per ``(view.uid, skip_root)``: every agent of a fibre,
    and every algorithm sharing the builder, extracts it once.  Equal
    candidates are one graph, memoized by content (values plus edge
    specs): a base that every round's new views repeat is built and kept
    once, not once per view.
    """
    key = ("base", view.uid, skip_root)
    memo = builder.memo
    if key not in memo:
        memo[key] = _extract_base(view, builder, skip_root)
    return memo[key]


def _extract_base(view: View, builder: ViewBuilder, skip_root: bool) -> Optional[DiGraph]:
    t = view.depth
    k = t // 2
    if k < 1 or (skip_root and k < 2):
        return None
    witnesses = nodes_within_levels(view, max_level=k - 1)
    if skip_root:
        witnesses = [(lv, node) for (lv, node) in witnesses if lv >= 1]
    class_ids = {}
    class_witness: List[View] = []
    for _level, node in witnesses:
        key = builder.truncate(node, k).uid
        if key not in class_ids:
            class_ids[key] = len(class_witness)
            class_witness.append(node)
    specs = []
    for ci, witness in enumerate(class_witness):
        for (color, child) in witness.children:
            child_key = builder.truncate(child, k).uid
            cj = class_ids.get(child_key)
            if cj is None:
                return None
            specs.append((cj, ci, color))
    values = tuple(w.label for w in class_witness)
    content = ("base content", values, tuple(specs))
    memo = builder.memo
    if content not in memo:
        memo[content] = DiGraph(len(class_witness), specs, values=values)
    return memo[content]


class _ViewStateMixin:
    """Shared init/output for the three view-exchange variants.

    ``max_view_depth`` enables the paper's *finite-state variant* (§3.2):
    stored and sent views are truncated to that many levels.  Any bound
    ``>= 2(n + D) + 2`` preserves correctness, and it buys genuine
    self-stabilization — arbitrarily deep garbage planted in the initial
    views is pushed below the truncation horizon within ``max_view_depth``
    rounds, after which every stored level is authentic.  Without a bound
    the views grow forever (exact semantics, correct from clean or
    asynchronous starts, but garbage of depth ``g`` keeps perturbing the
    depth-based cutoff at every other round).
    """

    def __init__(
        self,
        builder: Optional[ViewBuilder] = None,
        max_view_depth: Optional[int] = None,
    ):
        self.builder = builder if builder is not None else ViewBuilder()
        if max_view_depth is not None and max_view_depth < 2:
            raise ValueError("max_view_depth must be >= 2")
        self.max_view_depth = max_view_depth

    #: Whether base extraction must skip the (unlabeled) root level.
    _skip_root = False

    def initial_state(self, input_value: Any) -> State:
        return (input_value, self.builder.leaf(input_value))

    def _clip(self, view: View) -> View:
        if self.max_view_depth is None:
            return view
        return self.builder.truncate(view, self.max_view_depth)

    def output(self, state: Any) -> Optional[DiGraph]:
        _input, view = state
        return extract_base(view, self.builder, skip_root=self._skip_root)


class OutdegreeViewAlgorithm(_ViewStateMixin, OutdegreeAlgorithm):
    """View exchange under outdegree awareness.

    The paper's §4.2 works on the *double-valued* graph ``G_{v,d⁻}``: the
    outdegree is part of the vertex label, not merely ambient data.  That
    matters — sender-outdegree annotations on view *edges* are too weak:
    two vertices with different outdegrees can have identical annotated
    in-views forever (each sees both annotations, one via its self-loop
    and one from the other), merging fibres that ``G_od`` separates and
    leaving eq. (1) without a well-defined ``b``.

    Since the sending function σ(q, d⁻) learns the outdegree exactly when
    sending, the sender *relabels its root* to ``(value, d⁻)`` in the
    outgoing message; the stored root stays unlabeled (plain value) until
    the next send.  Base extraction therefore skips level 0 — every class
    appears from level 1 on anyway, through the self-loops.
    """

    #: ``ViewBuilder.node`` sorts the children: the view is the multiset.
    receives = "multiset"

    _skip_root = True

    def message(self, state: State, outdegree: int) -> View:
        input_value, view = state
        return self.builder.node((input_value, outdegree), view.children)

    def transition(self, state: State, received: Tuple[View, ...]) -> State:
        input_value, _old = state
        children = [(None, v) for v in received]
        return (input_value, self._clip(self.builder.node(input_value, children)))


class SymmetricViewAlgorithm(_ViewStateMixin, BroadcastAlgorithm):
    """View exchange by plain broadcast, for symmetric networks."""

    model = CommunicationModel.SYMMETRIC
    receives = "multiset"

    def message(self, state: State) -> View:
        return state[1]

    def transition(self, state: State, received: Tuple[View, ...]) -> State:
        input_value, _old = state
        children = [(None, v) for v in received]
        return (input_value, self._clip(self.builder.node(input_value, children)))


class PortViewAlgorithm(_ViewStateMixin, OutputPortAlgorithm):
    """View exchange with output ports: port ℓ ships ``(ℓ, view)``."""

    receives = "multiset"

    def messages(self, state: State, outdegree: int) -> Sequence[Tuple[int, View]]:
        return [(port, state[1]) for port in range(outdegree)]

    def transition(self, state: State, received: Tuple[Tuple[int, View], ...]) -> State:
        input_value, _old = state
        children = [(port, v) for (port, v) in received]
        return (input_value, self._clip(self.builder.node(input_value, children)))


def DistributedMinimumBase(
    model: CommunicationModel,
    builder: Optional[ViewBuilder] = None,
    max_view_depth: Optional[int] = None,
):
    """Factory: the view-exchange algorithm for a communication model."""
    if model is CommunicationModel.OUTDEGREE_AWARE:
        return OutdegreeViewAlgorithm(builder, max_view_depth)
    if model is CommunicationModel.SYMMETRIC:
        return SymmetricViewAlgorithm(builder, max_view_depth)
    if model is CommunicationModel.OUTPUT_PORT_AWARE:
        return PortViewAlgorithm(builder, max_view_depth)
    raise ValueError(
        f"no distributed base construction for {model} "
        "(simple broadcast cannot compute the base — Theorem 4.1)"
    )
