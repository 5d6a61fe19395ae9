from __future__ import annotations

import random

import numpy as np
import pytest

from rlk.errors import UsageError
from rlk.linalg import RowReducer

from oracles import gauss_echelon_rows, gauss_nonpivot_columns, gauss_rank


def test_incremental_matches_batch() -> None:
    rng = random.Random(9)
    p = 3
    red = RowReducer(p, 5)
    rows = []
    for _ in range(20):
        row = [rng.randrange(p) for _ in range(5)]
        rows.append(row)
        red.add(row)
        assert red.rank == gauss_rank(rows, p)


def test_rref_pivots_and_idempotence() -> None:
    p = 5
    red = RowReducer(p, 4)
    for row in ([1, 2, 3, 4], [2, 4, 1, 3], [3, 1, 4, 2]):
        red.add(row)
    r = red.rref()
    piv = sorted(red.pivot_of_col)
    assert len(piv) == red.rank
    for i, col in enumerate(piv):
        assert r[i][col] == 1
        assert all(r[j][col] == 0 for j in range(len(piv)) if j != i)
    # reinserting reduced rows changes nothing
    before = red.rank
    for row in r:
        assert not red.add(row)
    assert red.rank == before


def test_nonpivot_columns_match_oracle() -> None:
    rng = random.Random(13)
    p = 2
    for _ in range(40):
        rows = [[rng.randrange(p) for _ in range(6)] for _ in range(4)]
        red = RowReducer(p, 6)
        for row in rows:
            red.add(row)
        mine = [c for c in range(6) if c not in sorted(red.pivot_of_col)]
        assert mine == gauss_nonpivot_columns(rows, p)


def test_reducer_rejects_wrong_width() -> None:
    red = RowReducer(3, 4)
    with pytest.raises(UsageError):
        red.add([1, 2])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_dict_and_dense_rows_match_gauss_oracles(p) -> None:
    rng = random.Random(100 + p)
    for _ in range(40):
        width = rng.randrange(1, 9)
        rows = [[rng.randrange(p) if rng.random() < 0.5 else 0 for _ in range(width)]
                for _ in range(rng.randrange(1, 8))]
        dense, sparse = RowReducer(p, width), RowReducer(p, width)
        for row in rows:
            assert dense.add(row) == sparse.add({c: a for c, a in enumerate(row) if a})
        for red in (dense, sparse):
            assert red.rank == gauss_rank(rows, p)
            assert [c for c in range(width) if c not in sorted(red.pivot_of_col)] == \
                gauss_nonpivot_columns(rows, p)
            assert red.rref().tolist() == gauss_echelon_rows(rows, p)
            assert red.rref().shape == (red.rank, width)


def test_reducer_keeps_normalized_sparse_rows() -> None:
    red = RowReducer(3, 5)
    row = {1: -1, 3: np.int64(4)}
    added = red.add(row)
    assert row == {1: -1, 3: 4}
    assert added == {1: 1, 3: 2} and red.rank == 1
    assert red.pivot_of_col == {1: added} and red.pivot_of_col[1] is added
    assert red.add({1: 2, 3: 1}) is None and red.rank == 1
    assert red.reduced_rows() == {1: {1: 1, 3: 2}}


def test_reducer_rejects_dict_columns_outside_the_width() -> None:
    red = RowReducer(2, 3)
    for bad in ({3: 1}, {-1: 1}):
        with pytest.raises(UsageError):
            red.add(bad)
    assert red.rank == 0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_insert_and_add_build_the_same_pivot_rows(p) -> None:
    """insert is add without its checks: on rows of nonzero residues inside
    the width both return the same rows and leave equal pivot_of_col."""
    rng = random.Random(200 + p)
    for _ in range(30):
        width = rng.randrange(1, 10)
        rows = [{c: rng.randrange(1, p) for c in rng.sample(range(width), rng.randrange(1, width + 1))}
                for _ in range(rng.randrange(1, 9))]
        checked, unchecked = RowReducer(p, width), RowReducer(p, width)
        for row in rows:
            assert checked.add(row) == unchecked.insert(dict(row))
        assert checked.pivot_of_col == unchecked.pivot_of_col
        assert list(checked.pivot_of_col) == list(unchecked.pivot_of_col)
