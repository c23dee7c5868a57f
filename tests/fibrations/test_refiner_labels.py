"""The refiner's class labels and each quotient's edge order are output.

:func:`~repro.fibrations.minimum_base.equitable_partition` numbers its
classes canonically, and :func:`~repro.fibrations.minimum_base.quotient_by_partition`
lists base edges in the representatives' in-edge order; base vertex ids,
base edge ids and the fibration's edge map all reach documents and
snapshots.  The other tests compare partitions (which ignore label
names) or compare the refiner against itself, so only these literal
digests fail when a change relabels classes or reorders a base.

The corpus: the seedless grid families at sizes 8-128 and
``random_strongly_connected`` at seeds 1-4, each unvalued, valued
one-hot and port-colored, plus the cover pairs the tables build with
:func:`~repro.analysis.impossibility.two_fibre_cover`.
"""

import hashlib

import pytest

from repro.analysis.impossibility import two_fibre_cover
from repro.fibrations.minimum_base import equitable_partition, quotient_by_partition
from repro.scenarios.registry import GRAPH_FAMILIES

SIZES = (8, 16, 32, 64, 128)
NETWORKS = [name for name, family in GRAPH_FAMILIES.items() if not family.uses_seed]
NETWORKS += [f"random-{seed}" for seed in (1, 2, 3, 4)]
VARIANTS = {
    "unvalued": lambda g: g,
    "one-hot": lambda g: g.with_values([1 if v == 0 else 0 for v in g.vertices()]),
    "port-colored": lambda g: g.with_port_colors(),
}


def graphs_of(network):
    if network.startswith("random-"):
        seed = int(network.split("-")[1])
        return [GRAPH_FAMILIES["random"].build(n, seed) for n in SIZES]
    return [GRAPH_FAMILIES[network].build(n, 0) for n in SIZES]


def cover_graphs():
    return [
        two_fibre_cover(*z, value_a=a, value_c=c)
        for z in ((1, 2), (1, 3), (2, 2))
        for a, c in ((9, 1), ((9, True), (1, False)))
    ]


def labels_digest(graphs) -> str:
    """SHA-256 over each graph's class labels, base edges and values, and edge map."""
    digest = hashlib.sha256()
    for g in graphs:
        classes = equitable_partition(g)
        mb = quotient_by_partition(g, classes, verify=False)
        payload = (classes, mb.base.edge_specs(), mb.base.values, mb.fibration.edge_map)
        digest.update(repr(payload).encode())
    return digest.hexdigest()


#: Literal digests: change one only with a deliberate relabel.
PINNED = {
    ("complete", "one-hot"): "832d5c9387d9f08b5b6c20d381beb42e5a83fb8fca50c2d671fdf8716375fbcd",
    ("complete", "port-colored"): "948e0ed6a800bb5bad99ded95e3469a55c7b66efd334a1a10ed906d8e69de2db",
    ("complete", "unvalued"): "7f7d196b1a7e9868ff3d5dcf831d2113e8e99cc9ce886f451b4bf3fd0dfc0107",
    ("ring", "one-hot"): "dae01f3db33a06752d35e00edd75742bcc1395180845bd7f72f7d5119053f5ba",
    ("ring", "port-colored"): "46e4cbcdcb88facf7b845569c30d85413bee5f7616ec9c4b877ab3019c2d9cc2",
    ("ring", "unvalued"): "b0fb8a2e1c82633141bc1cd123e56aa23ec33c3d6b53cd5930b2288536c7d250",
    ("directed-ring", "one-hot"): "03171115604af25a6adf8a5b4c3d749c245429f86369197590d43047822ff8be",
    ("directed-ring", "port-colored"): "923079322bcbc4bc7cc56e6d1e8e7dcd05320c06071a1f19930ccd9be98de47e",
    ("directed-ring", "unvalued"): "76bc6a5d2d3e1b61bfb74a3335578e018248ae6c3d8155904a0db56463087a2e",
    ("star", "one-hot"): "855e4e684219b5e3e2a54285987ad3f80602afc90da356c6010a5586f7e79b2d",
    ("star", "port-colored"): "f7ed3f17eed8e909f2e7900da2a5c36b02aa781ba6f2c5a8d9e829eda9bee8b2",
    ("star", "unvalued"): "9a74dbe3fe204a0df778273a22a7b2ebcf9bbbdab94f4a18cc5ba721d71163bc",
    ("hypercube", "one-hot"): "f2b6541a8becfacecfb05aa28c534da7ef06c4a36da8b6557f6f897bcb040e05",
    ("hypercube", "port-colored"): "322d4f3c1e9739307f0e050a670e03f485543fe60cbcf2ea08ffd9264ab2a3fc",
    ("hypercube", "unvalued"): "7d92b2b71a49900508942b2e5e27e2d510f30c930baf775ea3942b2e255f9818",
    ("random-1", "one-hot"): "2dd4ccbe6766496b00983828e5db44790f4eaf496490f95547bc2b9b6fdd0b4f",
    ("random-1", "port-colored"): "0dbf6fa5a2590089ed603b6966a792725f800f786b6dadec695577cb2da74da7",
    ("random-1", "unvalued"): "08328b0442f9c8d1335c1151f13de9d0e7e5003c4a36a1e17eafe1ed64135300",
    ("random-2", "one-hot"): "65f43c6fe5039fe099cb8f3e819bfe7ca10f5fe7422921d0db4884bd1a7d6774",
    ("random-2", "port-colored"): "b4a29cd365e77fe3c39729a152830b55399101112a381fda77e43dbce199dce2",
    ("random-2", "unvalued"): "74cf37c71c0f7dd5cccf5ba1b01fcd661c51c0035e3fd357e5badb6b4234504e",
    ("random-3", "one-hot"): "a23c34645e1051c11f6f0e7892975e4bdfc4fe2dbd9fd826806c9970c24bad26",
    ("random-3", "port-colored"): "4842d0aec476016512e6b2e9d51f6c7de8f46b2d961f21f19af72e6a993231bb",
    ("random-3", "unvalued"): "8164f0fdd8229236d721c0965bb6573e922a32c5eaf75d763b0c6559993096bf",
    ("random-4", "one-hot"): "7be58971c976f4a5ef1287e87a6b655262da5b335e89a0bc5e0eaa4b8ac755e1",
    ("random-4", "port-colored"): "1d12f125863c8af7627015d0847baf34233aa82c607a6c9199fd82ff1f1289b6",
    ("random-4", "unvalued"): "a6de670941ce7b882409274a3e551b87a977a01004300ea4d367981737c7f1d3",
    ("two-fibre-cover", "as-built"): "b0c7a8bf1b9cfbd88e2edd7695b132212a7f50aba305657bd65dd89367e17528",
}


@pytest.mark.parametrize("network", NETWORKS)
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_grid_network_labels(network, variant):
    graphs = [VARIANTS[variant](g) for g in graphs_of(network)]
    assert labels_digest(graphs) == PINNED[network, variant]


def test_table_cover_labels():
    assert labels_digest(cover_graphs()) == PINNED["two-fibre-cover", "as-built"]
