"""The static computation algorithm (Theorem 4.1, Corollaries 4.2–4.4).

The full pipeline run by every agent, entirely locally, every round:

1. grow the in-view by one level (:mod:`.minimum_base_alg`);
2. extract the candidate base ``B(T_i^t)``;
3. solve for the fibre-cardinality ratios ``z`` (:mod:`.fibre_solver`);
4. reconstruct a representative input vector and apply ``f``:

   * no help / bound on ``n`` — the vector with each base value repeated
     ``z_i`` times is equivalent in frequency to the true input, so any
     *frequency-based* ``f`` lands on ``f(v)`` (Theorem 4.1);
   * ``n`` known — ``k = n / Σ z_i`` turns ratios into exact
     multiplicities, recovering the multiset: any *multiset-based* ``f``
     (Corollary 4.3);
   * ℓ leaders — eq. (5): ``|φ⁻¹(i)| = ℓ·z_i / Σ_{j ∈ leaders} z_j``,
     again the exact multiset (Corollary 4.4).

Before stabilization the extraction/solvers return ``None`` and so does
the output; afterwards the output is exact and constant — finite-time,
δ0 computation, hence δ-computation for every metric.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.core.models import CommunicationModel
from repro.core.network_class import Knowledge
from repro.graphs.digraph import DiGraph
from repro.graphs.views import View, ViewBuilder
from repro.algorithms.minimum_base_alg import (
    OutdegreeViewAlgorithm,
    PortViewAlgorithm,
    SymmetricViewAlgorithm,
    extract_base,
)
from repro.algorithms.fibre_solver import (
    fibre_ratios_outdegree,
    fibre_ratios_ports,
    fibre_ratios_symmetric,
)

_SOLVERS = {
    CommunicationModel.OUTDEGREE_AWARE: fibre_ratios_outdegree,
    CommunicationModel.SYMMETRIC: fibre_ratios_symmetric,
    CommunicationModel.OUTPUT_PORT_AWARE: fibre_ratios_ports,
}


class _FunctionOutput:
    """Output stage shared by the three model-specific subclasses."""

    #: Maps a base label to the agent's input value.  In the outdegree
    #: model the base is that of the double-valued graph ``G_{v,d⁻}``, so
    #: labels are ``(value, outdegree)`` pairs and the value is the first
    #: component; the other models label with the value directly.
    _unwrap = staticmethod(lambda label: label)

    def _configure(
        self,
        f: Callable[[List[Any]], Any],
        solver: Callable[[DiGraph], Optional[List[int]]],
        knowledge: Knowledge,
        n: Optional[int],
        leader_count: int,
    ) -> None:
        self._f = f
        self._solver = solver
        self._knowledge = knowledge
        self._n = n
        self._leader_count = leader_count
        # The output is a function of the view alone, and agents in one
        # fibre share a hash-consed view: memoize per view uid (uids are
        # append-only within ``self.builder``).
        self._outputs: Dict[int, Any] = {}

    def _multiplicities(self, base: DiGraph, z: List[int]) -> Optional[List[int]]:
        if self._knowledge in (Knowledge.NONE, Knowledge.BOUND_N):
            # Ratios suffice: the reconstructed vector is ν-equivalent to
            # the input, which is all a frequency-based f needs.
            return z
        if self._knowledge is Knowledge.EXACT_N:
            total = sum(z)
            if self._n is None or self._n % total != 0:
                return None
            k = self._n // total
            return [k * zi for zi in z]
        if self._knowledge is Knowledge.LEADER:
            # Inputs are (value, is_leader); eq. (5).
            leader_sum = 0
            for i in base.vertices():
                label = self._unwrap(base.value(i))
                if isinstance(label, tuple) and len(label) == 2 and label[1]:
                    leader_sum += z[i]
            if leader_sum == 0:
                return None
            mults = []
            for zi in z:
                numerator = self._leader_count * zi
                if numerator % leader_sum != 0:
                    return None
                mults.append(numerator // leader_sum)
            return mults
        raise AssertionError(f"unhandled knowledge {self._knowledge}")

    def output(self, state: Any) -> Any:
        _input, view = state
        if view.uid not in self._outputs:
            self._outputs[view.uid] = self._output(view)
        return self._outputs[view.uid]

    def _output(self, view: View) -> Any:
        base = extract_base(view, self.builder, skip_root=self._skip_root)
        if base is None:
            return None
        z = self._solver(base)
        if z is None:
            return None
        mults = self._multiplicities(base, z)
        if mults is None:
            return None
        vector: List[Any] = []
        for i in base.vertices():
            label = self._unwrap(base.value(i))
            if self._knowledge is Knowledge.LEADER and isinstance(label, tuple):
                label = label[0]
            vector.extend([label] * mults[i])
        if not vector:
            return None
        return self._f(vector)


class _OutdegreeFunction(_FunctionOutput, OutdegreeViewAlgorithm):
    _unwrap = staticmethod(lambda label: label[0])


class _SymmetricFunction(_FunctionOutput, SymmetricViewAlgorithm):
    pass


class _PortFunction(_FunctionOutput, PortViewAlgorithm):
    pass


def StaticFunctionAlgorithm(
    f: Callable[[List[Any]], Any],
    model: CommunicationModel,
    knowledge: Knowledge = Knowledge.NONE,
    n: Optional[int] = None,
    leader_count: int = 1,
    builder: Optional[ViewBuilder] = None,
    max_view_depth: Optional[int] = None,
):
    """The paper's static algorithm, assembled for one model and help level.

    ``f`` receives a reconstructed input vector: ν-equivalent to the true
    input below ``EXACT_N``, the exact multiset at ``EXACT_N``/``LEADER``.
    With ``LEADER``, feed inputs as ``(value, is_leader)`` pairs and pass
    ``leader_count``.  Agents output ``None`` until their view stabilizes,
    then the exact value forever.

    ``max_view_depth`` selects the finite-state variant (§3.2): with any
    bound ``>= 2(n + D) + 2`` — e.g. ``4·N`` from a known bound ``N`` on
    the network size — memory is bounded and the algorithm becomes
    self-stabilizing against arbitrarily corrupted initial views.
    """
    if knowledge is Knowledge.EXACT_N and n is None:
        raise ValueError("EXACT_N needs the network size n")
    classes = {
        CommunicationModel.OUTDEGREE_AWARE: _OutdegreeFunction,
        CommunicationModel.SYMMETRIC: _SymmetricFunction,
        CommunicationModel.OUTPUT_PORT_AWARE: _PortFunction,
    }
    if model not in classes:
        raise ValueError(
            f"{model} cannot compute frequency-based functions (Theorem 4.1); "
            "use GossipAlgorithm for set-based functions"
        )
    algorithm = classes[model](builder, max_view_depth)
    algorithm._configure(f, _SOLVERS[model], knowledge, n, leader_count)
    return algorithm
