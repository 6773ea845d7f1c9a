"""The traversal orders that synthetic traces depend on, pinned by digest.

The benchmark traces pick anomaly nodes from ``iter_nodes()`` with a seeded
RNG, the injector draws each extra record from the leaves under a node, and
the trace generator draws background records from its leaf list; ADA's
reference nodes come level by level.  Any change to one of these orders
moves every trace built on it, so each is pinned here for the two benchmark
trees.  The digests were recorded on the node-object tree that the array
tree replaced.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.datagen.anomalies import AnomalyInjector
from repro.datagen.arrival import SeasonalRateModel
from repro.datagen.generator import TraceGenerator
from repro.hierarchy.builders import build_ccd_trouble_tree, build_scd_network_tree
from repro.streaming.clock import SimulationClock

TREES = {
    "ccd-trouble-777": lambda: build_ccd_trouble_tree(seed=777),
    "scd-network-77": lambda: build_scd_network_tree(seed=77, scale=0.05),
}

PINNED = {
    "ccd-trouble-777": {
        "iter_nodes": "a383562bebb8080faca51499e542d63b9870d671dc7f82d03616917265fed47d",
        "levels": "eb4629cffd8d290e734df0b82dfb1deb305a69560339f39264e64e704c052bad",
        "injector": "c00728ef3c0f0d74fb1f29dd1330a316fa29526307e779f5f785b73ae798b79a",
        "generator": "03d25c732d478190d33b93b5b9bb296d3409c2e4a96371f7456ec791d9a718a1",
        "generator_weights": "1f2fd4d24907a042d70d298fb7f38de0b1c56f3e0176aa85e3302c076fe9683b",
        "generator_mix": "4f70f0d7f611139c7ac57ce9931aa70c15c7483ca8a957647e302c175b4a5538",
        "generator_mix_weights": "4142c33b1fa6c490247c92292c2970cf03a51d51dbfea77b481f3e49fecd6c62",
    },
    "scd-network-77": {
        "iter_nodes": "951f5405177c802e6998ec97518555dd0292f71367ad69be25c7c3a66755895f",
        "levels": "765c49082b1018dba56179e817701d05bc1d1a697a90eeed24191f75945db75b",
        "injector": "fb2aeeda78df277f515d31669483a890cbe6aaf290b1be6c9a2c54a70a1b3cc7",
        "generator": "453acedc84497b30baa2d42a1591be501c416305e2973b80fa238920661566ab",
        "generator_weights": "69b481569363d39d7ee93bec3b5ddf1207bd181a527a7c0b83af499bc0718b52",
    },
}


def digest(items) -> str:
    return hashlib.sha256(repr(list(items)).encode()).hexdigest()


@pytest.fixture(params=sorted(TREES))
def case(request):
    return request.param, TREES[request.param]()


def generator(tree, top_level_weights=None) -> TraceGenerator:
    return TraceGenerator(
        tree=tree,
        rate_model=SeasonalRateModel(base_rate=1.0),
        clock=SimulationClock(delta=900.0),
        top_level_weights=top_level_weights,
        zipf_exponent=1.3,
        seed=5,
    )


def test_iter_nodes_order(case):
    name, tree = case
    assert digest((node.path, node.depth) for node in tree.iter_nodes()) == PINNED[name]["iter_nodes"]


def test_level_order(case):
    name, tree = case
    paths = (path for depth in range(tree.depth) for path in tree.paths_at_depth(depth))
    assert digest(paths) == PINNED[name]["levels"]


def test_injector_leaf_order(case):
    name, tree = case
    injector = AnomalyInjector(tree)
    under = (injector._leaves_under(node.path) for node in tree.iter_nodes())
    assert digest(under) == PINNED[name]["injector"]


def test_generator_leaf_order(case):
    name, tree = case
    drawn = generator(tree)
    assert digest(drawn._leaves) == PINNED[name]["generator"]
    assert digest(drawn._weights) == PINNED[name]["generator_weights"]


def test_generator_leaf_order_with_a_ticket_mix():
    drawn = generator(TREES["ccd-trouble-777"](), {"TV": 0.5, "Internet": 0.3})
    assert digest(drawn._leaves) == PINNED["ccd-trouble-777"]["generator_mix"]
    assert digest(drawn._weights) == PINNED["ccd-trouble-777"]["generator_mix_weights"]
