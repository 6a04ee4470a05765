"""Property-based tests for topology construction and the hwloc format."""

import asyncio

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.arbiter import LeaseLedger, NodeArbiter
from repro.topology.distances import DistanceMatrix
from repro.topology.hwloc import format_topology, parse_topology
from repro.topology.machine import MachineTopology

shapes = st.tuples(
    st.integers(min_value=1, max_value=3),  # sockets
    st.integers(min_value=1, max_value=3),  # nodes/socket
    st.integers(min_value=1, max_value=2),  # ccds/node
    st.integers(min_value=1, max_value=4),  # cores/ccd
)


def build(shape) -> MachineTopology:
    s, n, c, k = shape
    return MachineTopology.build(
        num_sockets=s, nodes_per_socket=n, ccds_per_node=c, cores_per_ccd=k
    )


@settings(max_examples=40, deadline=None)
@given(shapes)
def test_build_invariants(shape):
    topo = build(shape)
    s, n, c, k = shape
    assert topo.num_cores == s * n * c * k
    assert topo.num_nodes == s * n
    assert topo.num_ccds == s * n * c
    # nodes partition cores
    seen = sorted(cid for node in topo.nodes for cid in node.core_ids)
    assert seen == list(range(topo.num_cores))
    # node/ccd/socket membership agree for every core
    for core in topo.cores:
        assert core.core_id in topo.nodes[core.node_id].core_ids
        assert core.core_id in topo.ccds[core.ccd_id].core_ids
        assert topo.nodes[core.node_id].socket_id == core.socket_id


@settings(max_examples=40, deadline=None)
@given(shapes)
def test_hwloc_roundtrip_any_shape(shape):
    topo = build(shape)
    text = format_topology(topo)
    parsed = parse_topology(text)
    assert format_topology(parsed) == text
    assert parsed.num_cores == topo.num_cores
    assert parsed.num_nodes == topo.num_nodes
    for a, b in zip(parsed.nodes, topo.nodes):
        assert a.core_ids == b.core_ids
        assert a.socket_id == b.socket_id


@settings(max_examples=40, deadline=None)
@given(
    shapes,
    st.integers(min_value=10, max_value=30),
    st.integers(min_value=0, max_value=30),
)
def test_distance_matrix_classes(shape, intra, extra):
    topo = build(shape)
    inter = intra + extra
    d = DistanceMatrix.from_topology(topo, intra_socket=intra, inter_socket=inter)
    grants = asyncio.run(_grants_from_each_seed(topo, d))
    n = topo.num_nodes
    for a in range(n):
        # a lease grows from its seed node, nearest nodes first: the seed
        # alone, then nested growth, never a farther node before a nearer
        assert grants[a, 1] == {a}
        for k in range(1, n + 1):
            granted = grants[a, k]
            assert len(granted) == k
            if k < n:
                assert granted < grants[a, k + 1]
                outside = set(range(n)) - granted
                assert max(d.matrix[a, b] for b in granted) <= min(
                    d.matrix[a, b] for b in outside)
        for b in range(n):
            expected = (
                10 if a == b else (intra if topo.same_socket(a, b) else inter)
            )
            assert d.matrix[a, b] == expected


async def _grants_from_each_seed(topo, distances):
    """The node set NodeArbiter grants for every (seed node, size) pair
    on an otherwise idle machine."""
    arbiter = NodeArbiter(LeaseLedger(topo, distances))
    grants = {}
    for a in range(topo.num_nodes):
        for k in range(1, topo.num_nodes + 1):
            mask = await arbiter.acquire("job", k, preferred=a)
            grants[a, k] = set(mask.indices())
            await arbiter.release("job")
    return grants
