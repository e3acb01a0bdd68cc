"""Every command pinned on its whole small domain.

The golden corpus (``test_golden_cli.py``) pins chosen calls byte for byte.
This module pins every call of each command on a small domain, written below
as one generator per command.  Each call runs in-process through
``test_golden_cli.run``, in text and in ``--output json``, with an env
holding only the case's variables (none here); the sha256 over the exit
codes and stdouts of a command's calls must equal the one recorded in
``domain_digests.json``, beside the generator's name and the number of
calls, so a changed domain shows too.

The stand-alone check and ``--record`` of ``tests/test_golden_cli.py`` check
and re-record these digests together with the golden corpus.
"""

from __future__ import annotations

import hashlib
import json
from itertools import product
from pathlib import Path

from test_golden_cli import run

DIGESTS_PATH = Path(__file__).with_name("domain_digests.json")


def _small(most: int) -> list:
    """Every partition of degree at most ``most``, by degree."""
    from tensorcat.diagrams import partitions

    return [p for d in range(most + 1) for p in partitions(d)]


def _partitions(most: int) -> list[str]:
    """Every partition of degree at most ``most``, as CLI text."""
    return list(map(str, _small(most)))


def _quads(most: int) -> list[str]:
    """Every quadruple of naturals with sum at most ``most``, as CLI text."""
    return [",".join(map(str, q)) for q in product(range(most + 1), repeat=4) if sum(q) <= most]


def _simples(most: int) -> list[str]:
    """Every simple index (four partitions) of total degree at most ``most``, as CLI text."""
    from tensorcat.diagrams import partitions

    by_degree = [[str(p) for p in partitions(d)] for d in range(most + 1)]
    return [
        ",".join(slots)
        for degrees in product(range(most + 1), repeat=4)
        if sum(degrees) <= most
        for slots in product(*(by_degree[d] for d in degrees))
    ]


def _pairs(most: int) -> list[str]:
    """Every o/sp pair of naturals with sum at most ``most``, as CLI text."""
    return [f"{l},{m}" for l in range(most + 1) for m in range(most + 1 - l)]


def _partition_pairs(most: int) -> list[tuple[str, str]]:
    """Every pair of partitions of total degree at most ``most``, as CLI text."""
    return [(str(a), str(b)) for a, b in product(_small(most), repeat=2) if a.degree + b.degree <= most]


def lr_degree_4():
    from tensorcat.diagrams import partitions

    for mu, nu in product(_small(4), repeat=2):
        for lam in partitions(mu.degree + nu.degree):
            yield ["lr", str(lam), str(mu), str(nu)]


def product_degree_5():
    for mu, nu in product(_partitions(5), repeat=2):
        yield ["product", mu, nu]


def plethysm_k_6():
    from tensorcat.cli import PLETHYSM_FAMILIES

    for family, k in product(PLETHYSM_FAMILIES, range(7)):
        yield ["plethysm", family, str(k)]


def decompose_sum_7():
    for q in _quads(7):
        yield ["decompose", q]


def socle_sum_7():
    for q in _quads(7):
        yield ["socle", q]


def layers_k_6():
    for k in range(7):
        yield ["layers", str(k)]


def defect_sum_3():
    for a, b in product(_quads(3), repeat=2):
        yield ["defect", a, b]


def chains_sum_3():
    for a, b in product(_quads(3), repeat=2):
        yield ["chains", a, b]


def covers_sum_3_bound_4():
    for a, bound in product(_quads(3), range(5)):
        yield ["covers", a, "--bound", str(bound)]


def ext_trivial_degree_4():
    for index, degree in product(_simples(4), range(4)):
        yield ["ext-trivial", index, "--degree", str(degree)]


def ext_thick_degree_3():
    for index, (alpha, beta), degree in product(_simples(3), _partition_pairs(1), range(3)):
        yield ["ext-thick", index, alpha, beta, "--degree", str(degree)]


def ext_vanishes_degree_2():
    for source, target, degree in product(_simples(2), _simples(2), range(3)):
        yield ["ext-vanishes", source, target, "--degree", str(degree)]


def resolution_j_6():
    for j in range(7):
        yield ["resolution", str(j)]


def kernel_layer_sum_6():
    for j in range(7):
        for k in range(7 - j):
            yield ["kernel-layer", str(j), str(k)]


def homdim_sum_5():
    from tensorcat.cli import HOM_MOVES

    for q, flavor in product(_quads(5), HOM_MOVES):
        yield ["homdim", q, flavor]


def quadkernel_sum_5():
    for q, check in product(_quads(5), ([], ["--check"])):
        yield ["quadkernel", q, *check]


def _osp(leaf: str, words: list[tuple[str, ...]]):
    """The o/sp command ``leaf`` on each tuple of words, for each kind."""
    from tensorcat.ospcat import KINDS

    for kind, argv in product(KINDS, words):
        yield ["osp", "--kind", kind, leaf, *argv]


def osp_leq_sum_3():
    yield from _osp("leq", list(product(_pairs(3), repeat=2)))


def osp_defect_sum_3():
    yield from _osp("defect", list(product(_pairs(3), repeat=2)))


def osp_layers_k_6():
    yield from _osp("layers", [(str(k),) for k in range(7)])


def osp_ext_trivial_degree_4():
    yield from _osp("ext-trivial", [(*pair, "--degree", str(j)) for pair, j in product(_partition_pairs(4), range(4))])


def osp_conjugate_degree_4():
    yield from _osp("conjugate", _partition_pairs(4))


# command name (as cli.COMMANDS declares it) -> its domain, in --help order
DOMAINS = {
    "lr": lr_degree_4,
    "product": product_degree_5,
    "plethysm": plethysm_k_6,
    "decompose": decompose_sum_7,
    "socle": socle_sum_7,
    "layers": layers_k_6,
    "defect": defect_sum_3,
    "chains": chains_sum_3,
    "covers": covers_sum_3_bound_4,
    "ext-trivial": ext_trivial_degree_4,
    "ext-thick": ext_thick_degree_3,
    "ext-vanishes": ext_vanishes_degree_2,
    "resolution": resolution_j_6,
    "kernel-layer": kernel_layer_sum_6,
    "homdim": homdim_sum_5,
    "quadkernel": quadkernel_sum_5,
    "osp leq": osp_leq_sum_3,
    "osp defect": osp_defect_sum_3,
    "osp layers": osp_layers_k_6,
    "osp ext-trivial": osp_ext_trivial_degree_4,
    "osp conjugate": osp_conjugate_degree_4,
}


def digest(domain) -> dict:
    """Run every call of one domain in text and in JSON; its generator's name, call count and sha256."""
    sha, calls = hashlib.sha256(), 0
    for argv in domain():
        for mode in ([], ["--output", "json"]):
            case = run(mode + argv, {})
            sha.update(f"{case['exit']}\n{case['stdout']}\0".encode("utf-8"))
        calls += 1
    return {"domain": domain.__name__, "calls": calls, "sha256": sha.hexdigest()}


def digest_all() -> dict[str, dict]:
    return {name: digest(domain) for name, domain in DOMAINS.items()}


def differences(actual: dict[str, dict], expected: dict[str, dict]) -> list[str]:
    """The commands whose digest, domain or call count differs, or that only one side has."""
    return [name for name in {**expected, **actual} if actual.get(name) != expected.get(name)]


def test_every_command_has_a_domain():
    from tensorcat.cli import COMMANDS

    assert list(DOMAINS) == [name for name, *_ in COMMANDS]


def test_domain_digests():
    expected = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    assert differences(digest_all(), expected) == []

