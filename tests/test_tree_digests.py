"""Every tree the package builds, pinned by the sha256 of its JSON text.

A digest covers one tree, or the trees of one family joined by newlines.
`tree_to_json` writes every float with 17 significant digits, so a match
means the trees are `==` and serialize byte for byte as pinned.
"""

import hashlib

import numpy as np
import pytest

from adapted_ot import (TimeGrid, align, bursty_time_change,
                        coarsen_filtration, common_grid, counterexample_limit,
                        counterexample_pair, hk_minimize, law, natural_tree,
                        offset_rw_pair, quantized_bm_tree,
                        random_martingale_tree, random_tree, random_walk_tree,
                        regrid, shifted_time_change, standard_tree,
                        time_changed_bm_pair, tree_to_json)
from adapted_ot.experiments import _pair_for

from test_trees import _grouping_corpus

DIGESTS = {
    "rw1": "2e698b08a5efe78f353411096c2415131dae29dc5eef720c0f30ffacc69853c6",
    "rw2": "c900b72a534dd7ffb688146d25b88e472bbc3fb1ad7a83b66653b067cb49d2ee",
    "rw3": "4b4fb4a49a82eb40074ada611551e85a061a90d345b028e4bcf92e8f2f194f45",
    "rw4": "4e49a7c084a46f40e818416afcda5a3aa8b19be7e992da6fce06c19d2fffe43f",
    "rw5": "5619c6dfaa80bb50e15789332906aa2c85b8a649bddc453f81f9c2cfe16c86a2",
    "rw6": "34b46cd0454fa3528d24c0c5f893fbbdeffa3e64dc564546af4f8aa7fb82c49e",
    "rw7": "304a4f67254d97ef326ddb27f33e63a43fb6c159883b33e83afe8c4434a6d1c6",
    "rw8": "2d8ba3945c219bf3fffa8ed108f502c61c9d228af5489360e7d5e274b504d7a2",
    "rw9": "d47b235d2e5dd8848e6849ceb4c54d8f2a237a36b65158e8ba29ded17eacf057",
    "rw10": "e46319e623172b49e53eafe92bc13672e5ab83abaace1555e7e0362fb3d42442",
    "rw11": "6128db5ffc6547762301e89305ac7b5bea7aa4c2ee30a501a35ea110b47bb4ed",
    "rw12": "6fe4321f5daeffc28335c84ff63096c8912943c9b9a01040cf6c0db9f4907c2d",
    "bm3,2": "9f054bf02124e959bde1fdc9c74beca6e51eaf612215ac6ff0af764bb3ccd1d3",
    "bm5,3": "cf9ed3aa66114ee0c7ed18037d85669336ca6023a2628e5fa3a510172c386927",
    "bm8,3": "0cfc9ac8e1c44d8cde6bd1e526487beaf3cdfb6f27485e976993e6ef4ed53f94",
    "bm10,2": "4545def8457b1701c185c01b1b62a27c18653673c76a9e1574e081fd87d1184e",
    "tcbm-cli": "ee2dc506ed41c0647a2f2dab67653e3c8d2878cbe50fa18d44c8a6f4f5c483df",
    "tcbm-table": "fc8b1796186f43b7d665dae5062a580d52f4a8429b04b6681ff70db952dcce9b",
    "offset1": "2655777736462dbd53a7086fa8faa6bf92eaded25c1ec4ddae3fcbf3f2f1f7f6",
    "offset2": "2458fafaa4a6afe985d197387101b10c5349e6c708f16c0b70fe9e85bc55221f",
    "offset3": "70e2a4a4d8d09d26a6ec2d7eba80cc0aa385a3d3f49b0bbbc2d603dd9442c455",
    "offset4": "14e6077bc569aed7ec1dd75dad405a294a5b62987be00de85e0cffe622b5b395",
    "ce1,2": "0d87c4e125245fb5d9519eb819f12383a802821bf5c9e17b89eaa8b5c4ea7eca",
    "ce2,8": "6ef92cd8d739b60da4aa217112f7a23c601c7a48ae4505ab5d709bada1d64683",
    "ce3,12": "943aa054e898210a70f5506d9bf397f308b42bb31d489790c744e419de657a63",
    "ce4,16": "d7b7747e4f1e40e6d429568ccd183792976b67029113d2a277691915f0b9978f",
    "ce-limit8": "9c264371bff4def8f0d80c065912f332d399cb50dd68d0c8497c9ca880eda6bd",
    "random": "5a3796ca6fdeac50086d6218a9e6ef9ef1fedc5c15ed8f4fa50314e1f0ee8c84",
    "random-roots3": "936d84f22d1f2688b567867aff364f31a24e0b1cceec87697c19bb753a48c0e8",
    "random-dim2": "12792d2e7aa49f178f66a58176403f0af87d387f93ea89fa3fb4d03d3cfc6c77",
    "martingale": "87038654b2939803853e735ae98887a37b5cbadeea16ac60514970420fe6181b",
    "martingale-wide": "662269acbd7270fd4082056cb483980fe17f842b53e0c534affd5d69b8d17591",
    "standard_tree": "1f21be8962e6d6c663b74150cbdd710f5978750432fe9e12c093c56023caa615",
    "natural_tree": "1f21be8962e6d6c663b74150cbdd710f5978750432fe9e12c093c56023caa615",
    "hk_minimize": "8055e9019fae8c70370229ec16f60eb8ed7f1a56826f96604784589ac55a4f4b",
    "coarsen_filtration": "f4943041e07f0fe7140a5bfa57e7b8bee51e7dd8c2726725688c30782f9ab8e6",
    "regrid": "52a5e75d276ec66029b4b60bfa725b714958ad2ee48a8ee166e51e74225cf876",
    "align": "c7d9a2c533ca8ee96cd60c9d8becd6db3d324278e014957e7b65adc45e4c2b1a",
}


def _corpus():
    return _grouping_corpus(np.random.default_rng(20240901))


def _coarse_grid(tree):
    """Every other grid time, always keeping t = 1."""
    times = tree.grid.times
    return TimeGrid(times[1::2] if len(times) % 2 == 0 else times[::2])


def _random_trees(make, seed, **kwargs):
    rng = np.random.default_rng(seed)
    return [make(rng, **kwargs) for _ in range(6)]


def _families():
    for n in range(1, 13):
        yield f"rw{n}", lambda n=n: [random_walk_tree(n)]
    for n, m in ((3, 2), (5, 3), (8, 3), (10, 2)):
        yield f"bm{n},{m}", lambda n=n, m=m: [quantized_bm_tree(n, m)]

    def cli_tcbm():
        phi = bursty_time_change(5, 0.05)
        return list(time_changed_bm_pair(phi, shifted_time_change(phi, 0.05), 20, 2))
    yield "tcbm-cli", cli_tcbm
    yield "tcbm-table", lambda: list(_pair_for("tcbm", 0.05))
    for m in range(1, 5):
        yield f"offset{m}", lambda m=m: list(offset_rw_pair(m))
    for n, m in ((1, 2), (2, 8), (3, 12), (4, 16)):
        yield f"ce{n},{m}", lambda n=n, m=m: list(counterexample_pair(n, m))
    yield "ce-limit8", lambda: [counterexample_limit(8)]
    yield "random", lambda: _random_trees(random_tree, 1, max_steps=4)
    yield "random-roots3", lambda: _random_trees(random_tree, 2, root_atoms=3)
    yield "random-dim2", lambda: _random_trees(random_tree, 3, dim=2,
                                               branching=(1, 2, 3))
    yield "martingale", lambda: _random_trees(random_martingale_tree, 4,
                                              max_steps=4)
    yield "martingale-wide", lambda: _random_trees(random_martingale_tree, 5,
                                                   branching=(1, 4))
    yield "standard_tree", lambda: [standard_tree(law(t)) for t in _corpus()]
    yield "natural_tree", lambda: [natural_tree(t) for t in _corpus()]
    yield "hk_minimize", lambda: [hk_minimize(t) for t in _corpus()]
    yield "coarsen_filtration", lambda: [
        coarsen_filtration(t, g) for t in _corpus()
        for g in (_coarse_grid(t), TimeGrid((1.0,)))]
    yield "regrid", lambda: [
        regrid(t, common_grid(t.grid, TimeGrid((0.3, 0.7, 1.0)))) for t in _corpus()]

    def aligned():
        corpus = _corpus()
        return [s for a, b in zip(corpus, corpus[1:]) if a.dim == b.dim
                for s in align(a, b)]
    yield "align", aligned


FAMILIES = dict(_families())


def _digest(trees) -> str:
    return hashlib.sha256("\n".join(map(tree_to_json, trees)).encode()).hexdigest()


@pytest.mark.parametrize("name", list(FAMILIES))
def test_tree_digest(name):
    assert _digest(FAMILIES[name]()) == DIGESTS[name]
