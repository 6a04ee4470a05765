"""Unit tests for the SLIT-style NUMA distance matrix."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.interference.model import InterferenceModel
from repro.memory.bandwidth import BandwidthModel
from repro.serve.arbiter import LeaseLedger
from repro.topology.distances import LOCAL_DISTANCE, DistanceMatrix


class TestConstruction:
    def test_from_topology_zen4(self, zen4):
        d = DistanceMatrix.from_topology(zen4)
        assert d.num_nodes == 8
        assert d.matrix[0, 0] == LOCAL_DISTANCE
        assert d.matrix[0, 1] == 11  # same socket
        assert d.matrix[0, 4] == 14  # cross socket

    def test_symmetry(self, zen4):
        d = DistanceMatrix.from_topology(zen4)
        assert np.allclose(d.matrix, d.matrix.T)

    def test_custom_distances(self, small):
        d = DistanceMatrix.from_topology(small, intra_socket=12, inter_socket=20)
        assert d.matrix[0, 1] == 12
        assert d.matrix[0, 2] == 20

    def test_invalid_ordering_rejected(self, small):
        with pytest.raises(TopologyError):
            DistanceMatrix.from_topology(small, intra_socket=40, inter_socket=20)
        with pytest.raises(TopologyError):
            DistanceMatrix.from_topology(small, intra_socket=5, inter_socket=20)

    def test_bad_matrix_rejected(self):
        with pytest.raises(TopologyError):
            DistanceMatrix(matrix=np.array([[10.0, 16.0]]))  # not square
        with pytest.raises(TopologyError):
            DistanceMatrix(matrix=np.array([[12.0]]))  # bad diagonal
        m = np.array([[10.0, 16.0], [20.0, 10.0]])
        with pytest.raises(TopologyError):
            DistanceMatrix(matrix=m)  # asymmetric
        m = np.array([[10.0, 5.0], [5.0, 10.0]])
        with pytest.raises(TopologyError):
            DistanceMatrix(matrix=m)  # remote below local

    def test_matrix_is_frozen(self, zen4):
        d = DistanceMatrix.from_topology(zen4)
        with pytest.raises(ValueError):
            d.matrix[0, 1] = 99


class TestLatencyFactors:
    """The factors the interference model derives from the matrix:
    ``InterferenceModel.latency[c, n]`` from core ``c``'s node to ``n``."""

    @staticmethod
    def latency(topology):
        d = DistanceMatrix.from_topology(topology)
        return InterferenceModel(topology, d, BandwidthModel.from_topology(topology)).latency

    def test_local_factor_is_one(self, small):
        # core 8 sits on node 2
        assert self.latency(small)[8, 2] == 1.0

    def test_remote_factors(self, small):
        lat = self.latency(small)
        assert lat[0, 1] == pytest.approx(1.1)
        assert lat[0, 2] == pytest.approx(1.4)

    def test_factors_vector(self, small):
        vec = self.latency(small)[0]
        assert vec.shape == (4,)
        assert vec[0] == 1.0
        assert vec[3] == pytest.approx(1.4)

    def test_nearest_nodes_order(self, zen4):
        # a lease grows from its seed node by distance
        ledger = LeaseLedger(zen4, DistanceMatrix.from_topology(zen4))
        assert ledger.grant("one", 1, preferred=5).indices() == [5]
        ledger.release("one")
        # same-socket nodes (4..7) come before the other socket
        assert ledger.grant("four", 4, preferred=5).indices() == [4, 5, 6, 7]
