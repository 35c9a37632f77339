from __future__ import annotations

import pytest

from ttpminer.artifacts import read_pairs, write_pairs
from ttpminer.errors import ArtifactError
from ttpminer.rule_miner import filter_pairs, mine_pairs


@pytest.fixture
def sample_pairs():
    corpus = (
        [frozenset({"T1", "T2", "T3"})] * 8
        + [frozenset({"T1", "T4"})] * 2
        + [frozenset({"T2", "T4"})] * 2
        + [frozenset({"T4", "T5"})] * 8
    )
    pairs = filter_pairs(mine_pairs(corpus, 0.005), phi_min=0.2, alpha=0.05)
    assert pairs
    return pairs


@pytest.mark.parametrize("suffix", [".csv", ".json"])
def test_pairs_round_trip_exact(tmp_path, sample_pairs, suffix):
    path = tmp_path / f"pairs{suffix}"
    write_pairs(path, sample_pairs)
    restored = read_pairs(path)
    assert restored == sorted(sample_pairs, key=lambda p: p.key)


def test_read_pairs_missing_columns(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("tech_a,tech_b\nT1,T2\n", encoding="utf-8")
    with pytest.raises(ArtifactError, match="expected columns"):
        read_pairs(path)
