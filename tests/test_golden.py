"""Golden bytes: sweep tables and discover decision logs pinned by digest.

Refactors and exact-path speedups must reproduce these digests byte for
byte.  A deliberate change of scientific output updates them in the same
change, with the reason stated.
"""

import hashlib

import numpy as np
import pytest

from tspc.cli import main
from tspc.data import DataMatrix, write_csv
from tspc.graphs import Dag, to_json
from tspc.reproduce import METHODS, SweepConfig, frequency_csv, metrics_csv, run_sweep


def sha256(text: str | bytes) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


SWEEP_DIGESTS = {
    "LinearGaussianVAR": "8113028e26fbe2e2032a82321ba903b0ae1e09cdb68e2753e6235a72bdfd8794",
    "NonlinearNonGaussianVAR": "f6c1f0c39e99a81952ca924ecad8c5f6deb6559c0791a4892a4abd7c268d3359",
}


@pytest.mark.parametrize("paradigm", sorted(SWEEP_DIGESTS))
def test_sweep_tables_match_golden_digest(paradigm):
    result = run_sweep(SweepConfig(
        paradigm=paradigm, methods=METHODS, reps=2, n=300, num_subsamples=5,
        hsic_max_rows=100, calibration_replicates=5, seed=3,
    ))
    assert sha256(metrics_csv(result) + frequency_csv(result)) == SWEEP_DIGESTS[paradigm]


def chain_csv(path, n=120, seed=31):
    # x -> y -> z plus an unrelated w, so both removals and survivors are logged
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    y = x + rng.normal(size=n)
    z = np.tanh(y) + 0.5 * rng.normal(size=n)
    w = rng.normal(size=n)
    write_csv(DataMatrix(np.column_stack([x, y, z, w])), path)
    return path


DISCOVER_DIGESTS = {
    "gaussian": "8140e8a3acb0bc928815112949daf379655a99d0144665a16dc4a843bbdfc624",
    "hsic": "2ce6ef3bed62666bc0e89a5b103465f2b197e8c2e59dac4be56953aafc05a56f",
    "oracle": "4532c95fbbad62ee8653dbdc05e4b6844bcfc0f2ce296f5f92a4f0ea47b8daa7",
}

DISCOVER_FLAGS = {
    "gaussian": ["--alpha", "0.05"],
    "hsic": ["--bootstrap-replicates", "20", "--block-length", "10", "--seed", "6"],
    "oracle": ["--truth", "truth.json"],
}


@pytest.mark.parametrize("test", sorted(DISCOVER_DIGESTS))
def test_discover_decisions_match_golden_digest(tmp_path, test):
    src = chain_csv(tmp_path / "chain.csv")
    (tmp_path / "truth.json").write_text(
        to_json(Dag(4, frozenset({(0, 1), (1, 2), (3, 2)})))
    )
    flags = [str(tmp_path / f) if f.endswith(".json") else f for f in DISCOVER_FLAGS[test]]
    out = tmp_path / "out"
    rc = main(["discover", "--method", "pc", "--test", test,
               "--in", str(src), "--out", str(out), *flags])
    assert rc == 0
    assert sha256((out / "decisions.csv").read_bytes()) == DISCOVER_DIGESTS[test]


# The verdict columns (i, j, k, independent) of the kernel decision logs.
# They pin every removal and survival while leaving the last bits of the
# statistic free, so they hold across an exact rearrangement of the kernel
# arithmetic that re-records only the full decisions.csv digests.
HSIC_VERDICT_DIGESTS = {
    "pc": "834d3cfe6ed689a0c4f1cf8147e552e1d74aa20f491603d1ae346c6fd6de2894",
    "tpcs": "631d4c90ef8714a48aec0fe79145be9f8517253dfea6c6567029577ac4cd76bd",
}


@pytest.mark.parametrize("method", sorted(HSIC_VERDICT_DIGESTS))
def test_hsic_decision_verdicts_match_golden_digest(tmp_path, method):
    src = chain_csv(tmp_path / "chain.csv")
    out = tmp_path / "out"
    window = ["--tau", "2", "--stride", "1"] if method == "tpcs" else []
    rc = main(["discover", "--method", method, "--test", "hsic", *window,
               "--in", str(src), "--out", str(out), *DISCOVER_FLAGS["hsic"]])
    assert rc == 0
    rows = (out / "decisions.csv").read_text().splitlines()
    verdicts = "".join(",".join(row.split(",")[c] for c in (0, 1, 2, 5)) + "\n" for row in rows)
    assert sha256(verdicts) == HSIC_VERDICT_DIGESTS[method]


WINDOWED_DIGESTS = {
    ("tpcs", "gaussian"): {
        "graph.json": "796a2021134587774eeb6b89475b8f09e224d69df743bb60c5230609a79b3313",
        "rolled.json": "7bd20e0b36e48f7d5cd2743ad4f5f7b496f5397a203f4c6bbc9a6c83e25c3743",
        "decisions.csv": "cc9460ac2099051bfdfdda431040b0cd321ad764490950cd3993dee265edaa75",
    },
    ("tpcs", "hsic"): {
        "graph.json": "210a3dcf9841255849d9234eaaf495142866f03a662503f5ed0d5e42bf98b8e0",
        "rolled.json": "fe82b8b840c0c70bd26c1d8d15b84794ab7c632db5c3160a670831d45161aca3",
        "decisions.csv": "d73c7bfaebc9f3bdbd89a8c06c4d6270b074c0aa48d77f128971786854fe09b0",
    },
    ("tpcns", "gaussian"): {
        "graph.json": "eff0b05276d2cf337d7c78053738968ff89f23d5173f8007660e0f1b88c8da7d",
        "frequencies.csv": "8707dfbdfead9cf5be3c7b09c725d41f34f8c151861043ce119a13f472f92503",
    },
    ("tpcns", "hsic"): {
        "graph.json": "f9ccfa6196770f070a16b768c7621e273e5fb50b83a9f99a7ac0e9ff8b6466b5",
        "frequencies.csv": "ece3b8b29afd8c27cd7abdfaa73f68a14f98aa1ca8f96bcdd9b28a409e1e255d",
    },
}

WINDOWED_FLAGS = {"tpcs": [], "tpcns": ["--L", "40", "--subsamples", "5"]}


@pytest.mark.parametrize("method,test", sorted(WINDOWED_DIGESTS))
def test_discover_windowed_outputs_match_golden_digest(tmp_path, method, test):
    src = chain_csv(tmp_path / "chain.csv")
    out = tmp_path / "out"
    rc = main(["discover", "--method", method, "--test", test, "--tau", "2", "--stride", "1",
               *WINDOWED_FLAGS[method], "--in", str(src), "--out", str(out),
               *DISCOVER_FLAGS[test]])
    assert rc == 0
    digests = {name: sha256((out / name).read_bytes()) for name in WINDOWED_DIGESTS[method, test]}
    assert digests == WINDOWED_DIGESTS[method, test]
