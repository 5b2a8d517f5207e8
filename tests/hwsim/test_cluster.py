"""Unit tests for the node/cluster topology."""

import pytest

from repro.hwsim.cluster import Cluster, HierarchicalTopology, Node, multi_node, single_node
from repro.hwsim.interconnect import INFINIBAND_100G, NVLINK2, PCIE_GEN3_X16
from repro.hwsim.units import GIB


def test_single_node_defaults_match_paper_testbed():
    cluster = single_node()
    assert cluster.num_nodes == 1
    assert cluster.total_gpus == 4
    assert cluster.node.has_accelerator


def test_total_hbm_and_dram():
    cluster = single_node(4)
    assert cluster.total_hbm_bytes == 4 * 16 * GIB
    assert cluster.total_dram_bytes == 192 * GIB


def test_multi_node_scales_resources():
    cluster = multi_node(4, gpus_per_node=4)
    assert cluster.total_gpus == 16
    assert cluster.total_hbm_bytes == 16 * 16 * GIB
    assert cluster.total_dram_bytes == 4 * 192 * GIB


def test_node_capacity_properties():
    node = Node(num_gpus=2)
    assert node.total_hbm_bytes == 2 * 16 * GIB
    assert node.total_dram_bytes == 192 * GIB


def test_custom_gpu_count():
    assert single_node(1).total_gpus == 1
    assert single_node(2).total_gpus == 2


@pytest.mark.parametrize("num_gpus", [0, -1, -4])
def test_node_rejects_nonpositive_gpu_count(num_gpus):
    with pytest.raises(ValueError, match="at least one GPU"):
        Node(num_gpus=num_gpus)


@pytest.mark.parametrize("num_nodes", [0, -2])
def test_cluster_rejects_nonpositive_node_count(num_nodes):
    with pytest.raises(ValueError, match="at least one node"):
        Cluster(num_nodes=num_nodes)


def test_cluster_link_tiers_collapse_onto_two_fabrics():
    cluster = multi_node(2, 4)
    assert cluster.link("gpu") is cluster.node.gpu_link
    for tier in ("nic", "node", "spine"):
        assert cluster.link(tier) is cluster.inter_link
    assert cluster.link("pcie") is cluster.node.pcie
    with pytest.raises(ValueError, match="unknown link tier"):
        cluster.link("smoke-signal")


def test_hierarchical_topology_counts_and_links():
    topo = HierarchicalTopology(gpus_per_nic=4, nics_per_node=2, num_nodes=8)
    assert topo.gpus_per_node == 8
    assert topo.link("gpu") is NVLINK2
    assert topo.link("pcie") is PCIE_GEN3_X16
    assert topo.link("spine") is INFINIBAND_100G  # non-blocking by default


@pytest.mark.parametrize(
    "kwargs,match",
    [
        ({"gpus_per_nic": 0}, "gpus_per_nic"),
        ({"gpus_per_nic": -4}, "gpus_per_nic"),
        ({"nics_per_node": 0}, "nics_per_node"),
        ({"nics_per_node": -1}, "nics_per_node"),
        ({"num_nodes": 0}, "at least one node"),
        ({"num_nodes": -8}, "at least one node"),
        ({"oversubscription": 0.0}, "oversubscription"),
        ({"oversubscription": -4.0}, "oversubscription"),
    ],
)
def test_hierarchical_topology_rejects_degenerate_shapes(kwargs, match):
    with pytest.raises(ValueError, match=match):
        HierarchicalTopology(**kwargs)
