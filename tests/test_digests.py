"""Output digests of short runs of the three benchmark workload configs and
of a hyperplane config, and tree digests of forests grown above the default
tie threshold.

The first three take the options of ``perfbench/bench.py``'s ``WORKLOADS``,
at one seed each. Those cover only the SEA and RBF generators, so a
hyperplane stream is pinned too. A change meant to keep outputs
byte-identical must keep these digests; a change meant to move outputs
updates them and says why.

All four runs keep the tie threshold at 0.01, where a leaf breaks a tie only
after about 23k instances, so they rarely reach the tie rule or a tied
choice. The forests of ``GROWTH`` split at 0.1, where both are common; their
trees' paths and their spectra at several energy thresholds are pinned too.

A digest key is a glob under the output directory; the matching files'
contents are hashed in name order, so ``repository/spectrum_*.txt`` pins the
coefficient text of every exported spectrum.
"""

import hashlib
from functools import lru_cache

import pytest

from fct import harness
from fct.forest import Forest
from fct.spectrum import dft

WORKLOADS = {
    "sea-recurring": {"dataset": "sea", "segments": "4x2500x2",
                      "bits_per_attr": 3, "noise": 0.1, "mode": "fct",
                      "seed": 1000},
    # stores, evicts (entry ids reach 10, 4 held) and answers from spectra
    "rbf-churn": {"dataset": "rbf", "segments": "4x1000x3", "bits_per_attr": 3,
                  "noise": 0.0, "repo_cap": 4, "mode": "fct", "seed": 1001},
    "sea-small-cbdt": {"dataset": "sea", "segments": "4x5000x1",
                       "bits_per_attr": 1, "noise": 0.1, "mode": "cbdt",
                       "seed": 1000},
    "hyperplane": {"dataset": "hyperplane", "segments": "4x3000x1",
                   "bits_per_attr": 2, "noise": 0.05, "seed": 1000},
}

DIGESTS = {
    "sea-recurring": {
        "metrics.csv": "25e2d4d54be62f03dfbb610fa8f9d6e2ce9737e397c380f22420cbdc06fffd93",
        "drifts.csv": "9209b6560e2906a2b67207b0b277b8be463c4625835012545e66292470fae5cb",
        "repository/index.csv": "a392d9fc29ae6223d155bc058a19606d5fea492295986e19df5ce1c0225015bd",
        "repository/spectrum_*.txt": "2bbf12e82fd9084e5b6995a1bc422aa276d92612d846665514675e4df69d0741",
    },
    "rbf-churn": {
        "metrics.csv": "e6bd21873b7f1ce457d525f1ba650ba8173da1e020d5c1148ccc7f064eb46396",
        "drifts.csv": "3eb4120b1d6de9b6fffcc3dcf26275466582aefd71d7c02842ac0825624717fc",
        "repository/index.csv": "9400b7a9f19a11e96b3f4e00518640d3a74b18f5b03b5068170407a2184a7f86",
        "repository/spectrum_*.txt": "faed8b01e6bdb2811355a97f4d5094524f820d2533eb852f086241764120f6e8",
    },
    "sea-small-cbdt": {
        "metrics.csv": "2050ee639d70207528cf4e74986f8de2a40eccbc370144c8eef7259407b77c63",
        "drifts.csv": "9fe0d396c75bc79cbaebc06192c7feef04f8dd0be73b47ff49bd7c5aa421a883",
        "repository/index.csv": "5600683fb251b4dad22b1bcbf8d356bef63d7672b7715c4aca01989c72cc45da",
    },
    "hyperplane": {
        "metrics.csv": "c09b81a02b0a5165c68cc0baf2b2940f0c2bdee2b8bd0643cd9b1a9de8b8eb3d",
        "drifts.csv": "0059b063752702a7d0ee6b380429ebf858db136015dd031816a3bf3e90ed5fd9",
        "repository/index.csv": "4c0b1c3d21cec41bfa289e166449d8880ca18039228657cc3490b05ef955263d",
        "repository/spectrum_*.txt": "39f5095e351ded82538ddd8c100e573f367dc6c907e9f31f839bdc2351f59a49",
    },
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_outputs_keep_their_digests(name, tmp_path):
    harness.run_once(dict(harness.DEFAULTS, **WORKLOADS[name],
                          out=str(tmp_path)))
    got = {}
    for pattern in DIGESTS[name]:
        files = sorted(tmp_path.glob(pattern))
        assert files, pattern
        got[pattern] = hashlib.sha256(
            b"".join(f.read_bytes() for f in files)).hexdigest()
    assert got == DIGESTS[name]


GROWTH = {
    "sea-3bit": {"dataset": "sea", "bits_per_attr": 3},
    "rbf-2bit": {"dataset": "rbf", "bits_per_attr": 2},
}

GROWTH_DIGESTS = {
    "sea-3bit": "1b5b26270fc99970457fdd3d213a9fcacb936cf0a87a303d17ca3393259cbabf",
    "rbf-2bit": "bfe89efac132239bdb130734eb00b630ab519392fb23d2d3d8c7fc88335b58cf",
}


SPECTRUM_ENERGIES = (0.4, 0.8, 0.95, 1.0)

GROWTH_SPECTRUM_DIGESTS = {
    "sea-3bit": "54808b726eac59b09a5e463fbeaf752e5aa4633d0d54b664fe47d80af93cebde",
    "rbf-2bit": "77646feb3330bdf05f20ec7e77a02970a0f86e7347963fe98b94ec19230cab12",
}


@lru_cache(maxsize=None)
def grown_forest(name: str) -> Forest:
    stream = harness.build_stream(dict(harness.DEFAULTS, **GROWTH[name],
                                       segments="4x5000x1", seed=1000))
    forest = Forest(stream.schema, tie_threshold=0.1)
    for inst in stream:
        forest.train(inst)
    return forest


@pytest.mark.parametrize("name", sorted(GROWTH))
def test_forest_growth_at_tie_threshold_0_1_keeps_its_digest(name):
    paths = [[(p.defined_mask, p.ones_mask, p.label)
              for p in tree.extract_paths()] for tree in grown_forest(name).trees]
    got = hashlib.sha256(repr(paths).encode()).hexdigest()
    assert got == GROWTH_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(GROWTH))
def test_grown_forest_spectra_keep_their_digest(name):
    text = "".join(dft(tree, energy).to_text()
                   for tree in grown_forest(name).trees
                   for energy in SPECTRUM_ENERGIES)
    got = hashlib.sha256(text.encode()).hexdigest()
    assert got == GROWTH_SPECTRUM_DIGESTS[name]
