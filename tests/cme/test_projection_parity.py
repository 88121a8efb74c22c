"""Projection assembly is bitwise-stable across backends and refactors.

:class:`~repro.cme.expansion.ProjectionAssembler` classifies every
(state, reaction) edge of a projection through the ``key_index``
kernel-backend op.  The integers that op returns must not depend on the
backend, and the floats assembled from them must not depend on how the
edge pass is organised.  So the SHA-256 digests below were recorded
from the per-reaction, dict-indexed assembler that preceded the
flattened edge pass: for each of the four paper models, four rounds of
``assemble`` (the CSR arrays and the outflow vector), a weighted
``frontier`` (each of its arrays) and a flux-ranked, capped ``grow``,
with the grown projection shuffled before the next round so the
per-state cache is hit out of insertion order.  Both backends must
reproduce every digest.
"""

import hashlib

import numpy as np
import pytest

from repro import backends
from repro.cme import ProjectionAssembler, StateSpace, initial_projection
from repro.cme.models import toggle_switch
from repro.cme.models.brusselator import brusselator
from repro.cme.models.phage_lambda import phage_lambda
from repro.cme.models.schnakenberg import schnakenberg

MODELS = {
    "toggle-20": lambda: toggle_switch(max_protein=20),
    "phage-6-3": lambda: phage_lambda(max_monomer=6, max_dimer=3),
    "brusselator-30": lambda: brusselator(max_x=30, max_y=20),
    "schnakenberg-30": lambda: schnakenberg(max_x=30, max_y=20),
}

ROUNDS = 4


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        a = a.astype(np.int64 if a.dtype.kind in "iu" else np.float64)
        h.update(str(a.shape).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def projection_digests(network) -> list[tuple[str, ...]]:
    """Per round: digests of ``(A.indptr, A.indices, A.data)``, the
    outflow vector, and the frontier's states, inward rates, total
    rates and influx."""
    asm = ProjectionAssembler(network)
    space = initial_projection(network, size=32)
    out = []
    for r in range(ROUNDS):
        A, outflow = asm.assemble(space)
        weights = np.linspace(1.0, 2.0, space.size)
        weights /= weights.sum()
        fr = asm.frontier(space, weights=weights)
        out.append((_digest(A.indptr, A.indices, A.data), _digest(outflow),
                    _digest(fr.states), _digest(fr.inward_rates),
                    _digest(fr.total_rates), _digest(fr.influx)))
        grown, _ = asm.grow(space, depth=2, weights=weights,
                            max_new_states=48)
        perm = np.random.default_rng(r).permutation(grown.size)
        space = StateSpace(network=network, states=grown.states[perm])
    return out


#: ``projection_digests`` of each model, recorded before the flattened
#: edge pass and the ``key_index`` op existed.
EXPECTED = {
    "brusselator-30": [
        ["f1a8738bd284ed39", "a2d34fdfbca6e6da", "2d9a72ff42fe89b0",
         "aa029a84324252c8", "2b0e2f1d240b8a0a", "b7d500f8e82bf738"],
        ["16d5333274caac46", "5fefbe767bf8a8b4", "7a224847ed738a0c",
         "dd4ec928dd92bbd8", "5fc244cf8068024b", "c5511250543b1962"],
        ["a9c19e055d939e84", "f2fdeb1559fcf461", "cd829457007cea84",
         "40cf52b28652db91", "40dbd6f82e446ae4", "8b961bf8e5c02d10"],
        ["d844269a88e3430d", "09ec2b65f5d5ef1d", "00284799b53bd1e4",
         "aed971a264facf0c", "5509e1c66c516711", "b6faa76ce467d0dc"],
    ],
    "phage-6-3": [
        ["91f83cb9276d8879", "eb8b6a19aff9cc67", "0c1a607cc90463d4",
         "f9f9242d9e39fff5", "1343e47a1ccd8abc", "557015d3389b34ca"],
        ["46883f6901720c5b", "cdf925be024eddec", "e05a0ef996db9d3d",
         "8025d0f079b12f8d", "a0bf8fbb912bb2c4", "1f689ebcc3377fe2"],
        ["2571d7b5ebbfd4c4", "bec71642783d3a8c", "3d0ae97ea728cdfb",
         "525428b2bcda4b76", "f47f9d4d80344980", "686d549ef074e4d0"],
        ["d9843021945a39c0", "a3118057f106ff44", "da78d3830bbb107e",
         "6c0c4625a79bcad6", "ae7b365cbcf7c64d", "7b5a3cfabebc4017"],
    ],
    "schnakenberg-30": [
        ["0bbec624dcbc1dd1", "2fb4dec1f12a9475", "c73fb0e4711cf67e",
         "e577097863b9b699", "2c4778c1691e88fd", "f04e86b4ecde027f"],
        ["2b7b6f9c443f83b8", "769f8f1b413e7544", "f7081114a7871f8b",
         "8b69044445cc4fea", "393be2fe5d0d765e", "0ff6aacac5bcd493"],
        ["bf8711ae2a8f1c89", "5a56313e424d5b89", "75779976993b2066",
         "9a1ebc23f49bf3b3", "24fb1335855da25e", "8c2d6fa7d5148df3"],
        ["0d765e33c7316c41", "b8bfa999cdfe9f7b", "a7c2729a7a47b1a2",
         "bfd92e52cd52cdb6", "8afb1db29e22d726", "4ffb7369f382f9e6"],
    ],
    "toggle-20": [
        ["427cff6e990faf45", "88507d75e85be0de", "7f024d3e4e76d057",
         "ce5fc666d4e8f4f6", "12dfa41df7678365", "fb8df27d84d7fc69"],
        ["fc1480a56b0a777c", "77c8b2a1d82cf436", "e029ffcc0908d80a",
         "4fde4d02b68e169d", "533dbd066d139185", "f8d0f0681fca1ad3"],
        ["b3d31fe25bee1783", "fadc14cb863a0bdb", "84c815a5215e1515",
         "2bf74dbc742f3885", "06ac7fd975ffdc06", "fe4931984da34c87"],
        ["4bc2a612ab14e898", "0185718f69e09c5b", "7f037b7c68dcadb9",
         "01929b9737aaffde", "b3f07634e7af286d", "39756517964b2404"],
    ],
}


@pytest.mark.parametrize("backend", backends.available_backends())
@pytest.mark.parametrize("model", sorted(MODELS))
def test_assembly_digests_match_recorded(model, backend):
    with backends.use(backend):
        got = projection_digests(MODELS[model]())
    assert [list(r) for r in got] == EXPECTED[model]
