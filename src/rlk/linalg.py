"""Exact linear algebra over F_p on sparse rows of Python ints.

`RowReducer` holds {column: coefficient} dicts and reduces mod p after every
product; dense int64 rows are taken on input and given back by `rref`.
"""

from __future__ import annotations

import heapq

import numpy as np

from .errors import UsageError


def _eliminate(v: dict, lead_rows: dict, p: int) -> dict:
    """Clear, in place, every column of the sparse row v that leads a row of
    lead_rows (lead column -> row with lead coefficient 1 and every other
    column past the lead), walking the columns in increasing order."""
    todo = [c for c in v if c in lead_rows]
    heapq.heapify(todo)
    while todo:
        col = heapq.heappop(todo)
        c = v.pop(col, 0)
        if not c:
            continue
        for k, a in lead_rows[col].items():
            if k == col:
                continue
            old = v.get(k, 0)
            x = (old - c * a) % p
            if x:
                v[k] = x
                if not old and k in lead_rows:
                    heapq.heappush(todo, k)
            elif old:
                del v[k]
    return v


class RowReducer:
    """Incremental Gaussian elimination over F_p on sparse rows.

    Rows are {column: coefficient} dicts whose lead (lowest column) is
    normalized to 1, eliminated against all earlier pivots on insertion;
    pivot_of_col maps each lead column to its row, in insertion order, and
    holds the only copy of each.  rref() back-substitutes so every pivot
    column is zero outside its own row.
    """

    def __init__(self, p: int, width: int):
        self.p = p
        self.width = width
        self.pivot_of_col: dict[int, dict] = {}

    @property
    def rank(self) -> int:
        return len(self.pivot_of_col)

    def add(self, vec) -> dict | None:
        """Insert a row, a {column: coeff} dict or a dense row, checked and copied; returns
        the new normalized pivot row if the rank grew, else None."""
        if not isinstance(vec, dict):
            dense = np.asarray(vec, dtype=np.int64) % self.p
            if dense.shape != (self.width,):
                raise UsageError(f"row of width {dense.shape} in reducer of width {self.width}")
            vec = dict(enumerate(dense.tolist()))
        elif any(not 0 <= c < self.width for c in vec):
            raise UsageError(f"row columns outside reducer width {self.width}")
        return self.insert({c: int(a) % self.p for c, a in vec.items() if int(a) % self.p})

    def insert(self, v: dict) -> dict | None:
        """add without its checks, for a new sparse row of nonzero residues inside the width."""
        v = _eliminate(v, self.pivot_of_col, self.p)
        if not v:
            return None
        lead = min(v)
        inv = pow(v[lead], -1, self.p)
        row = self.pivot_of_col[lead] = {c: (a * inv) % self.p for c, a in v.items()}
        return row

    def reduced_rows(self) -> dict:
        """Fully reduced sparse rows by pivot column, in increasing order."""
        done: dict[int, dict] = {}
        for lead in sorted(self.pivot_of_col, reverse=True):
            rest = {c: a for c, a in self.pivot_of_col[lead].items() if c != lead}
            done[lead] = {lead: 1, **_eliminate(rest, done, self.p)}
        return {c: done[c] for c in reversed(done)}

    def rref(self) -> np.ndarray:
        """Fully reduced rows, sorted by pivot column, as a dense array."""
        out = np.zeros((self.rank, self.width), dtype=np.int64)
        for i, row in enumerate(self.reduced_rows().values()):
            out[i, list(row)] = list(row.values())
        return out
