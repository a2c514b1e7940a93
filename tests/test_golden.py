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
    "hsic": "00d8376bb5eb35005c67c9ccd4e3ed1a3878a6cbb8cc60ba508fb60b00609e67",
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
