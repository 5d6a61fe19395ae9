"""Text file format for structure-constant algebras.

Layout (UTF-8, ``#`` starts a comment line, blank lines ignored)::

    label L2/F2
    p=2 dim=2
    op bracket:
    0 1 0 1
    pmap frobenius table:
    0 0 -> 0 0
    0 1 -> 0 1
    1 0 -> 0 0
    1 1 -> 0 1

- header ``p=<prime> dim=<n>`` (the optional ``label`` line precedes it),
  with n at most DENSE_DIM_BOUND;
- each ``op <name>:`` block lists sparse structure-constant entries
  ``i j k v`` meaning e_i * e_j has coefficient v on e_k; indices must be in
  range, values are reduced mod p, duplicate (i, j, k) entries are rejected;
- p-map blocks: ``pmap <name> zero``, ``pmap <name> rightpower <op> [n]``,
  ``pmap <name> matrixpower <op>``, ``pmap <name> table:`` followed by one
  ``x1 .. xn -> y1 .. yn`` line per element, or ``pmap <name> basisjacobson
  <bracket>:`` followed by one value row per basis vector.

`parse_algebra` and `format_algebra` are mutually inverse on everything the
format can express, entry for entry.
"""

from __future__ import annotations

import re

import numpy as np

from .algebra_core import (
    DENSE_DIM_BOUND,
    Algebra,
    BasisJacobsonPMap,
    MatrixPowerPMap,
    RightPowerPMap,
    TablePMap,
    ZeroPMap,
)
from .errors import UsageError

_HEADER = re.compile(r"^p=(\d+)\s+dim=(\d+)$")


class _Lines:
    def __init__(self, text: str):
        self.rows = text.splitlines()
        self.pos = 0

    def peek(self):
        while self.pos < len(self.rows):
            raw = self.rows[self.pos].strip()
            if not raw or raw.startswith("#"):
                self.pos += 1
                continue
            return raw
        return None

    def take(self):
        row = self.peek()
        if row is not None:
            self.pos += 1
        return row

    @property
    def lineno(self) -> int:
        return self.pos  # 1-based number of the last taken line


def _fail(lines: _Lines, message: str):
    raise UsageError(f"line {lines.lineno}: {message}")


def _ints(lines: _Lines, row: str, expect: int, what: str):
    parts = row.split()
    if len(parts) != expect:
        _fail(lines, f"{what} needs {expect} integers, got {len(parts)}")
    try:
        return [int(t) for t in parts]
    except ValueError:
        _fail(lines, f"{what} has a non-integer token in {row!r}")


def _parse_op_block(lines: _Lines, name: str, dim: int, p: int) -> np.ndarray:
    c = np.zeros((dim, dim, dim), dtype=np.int64)
    seen = set()
    while True:
        row = lines.peek()
        if row is None or row.startswith(("op ", "pmap ")):
            return c
        lines.take()
        i, j, k, v = _ints(lines, row, 4, f"op {name!r} entry")
        for t in (i, j, k):
            if not 0 <= t < dim:
                _fail(lines, f"op {name!r} index {t} out of range for dim {dim}")
        if (i, j, k) in seen:
            _fail(lines, f"op {name!r} duplicates entry ({i}, {j}, {k})")
        seen.add((i, j, k))
        c[i, j, k] = v % p


def _parse_table_block(lines: _Lines, name: str, dim: int, p: int) -> TablePMap:
    mapping = {}
    expect = p ** dim
    while len(mapping) < expect:
        row = lines.take()
        if row is None or row.startswith(("op ", "pmap ")):
            _fail(lines, f"pmap {name!r} table has {len(mapping)} of {expect} rows")
        if "->" not in row:
            _fail(lines, f"pmap {name!r} table row needs '->': {row!r}")
        left, right = row.split("->", 1)
        key = tuple(v % p for v in _ints(lines, left, dim, f"pmap {name!r} key"))
        val = tuple(v % p for v in _ints(lines, right, dim, f"pmap {name!r} value"))
        if key in mapping:
            _fail(lines, f"pmap {name!r} duplicates key {key}")
        mapping[key] = val
    return TablePMap(mapping)


def _parse_basis_block(lines: _Lines, name: str, bracket: str,
                       dim: int, p: int) -> BasisJacobsonPMap:
    values = []
    for i in range(dim):
        row = lines.take()
        if row is None or row.startswith(("op ", "pmap ")):
            _fail(lines, f"pmap {name!r} needs {dim} value rows, got {i}")
        values.append(tuple(v % p for v in
                            _ints(lines, row, dim, f"pmap {name!r} value row")))
    return BasisJacobsonPMap(bracket, values)


def _parse_pmap(lines: _Lines, head: str, dim: int, p: int):
    parts = head.split()
    if len(parts) < 3:
        _fail(lines, f"pmap line needs a name and a variant: {head!r}")
    name = parts[1]
    variant = parts[2].rstrip(":")
    args = [t.rstrip(":") for t in parts[3:]]
    if not name or name.endswith(":"):
        _fail(lines, "empty or malformed pmap name")
    if variant == "zero":
        if args:
            _fail(lines, "pmap variant zero takes no arguments")
        return name, ZeroPMap()
    if variant == "rightpower":
        if len(args) not in (1, 2):
            _fail(lines, "pmap variant rightpower needs: <op> [exponent]")
        exponent = None
        if len(args) == 2:
            try:
                exponent = int(args[1])
            except ValueError:
                _fail(lines, f"rightpower exponent must be an integer: {args[1]!r}")
        return name, RightPowerPMap(args[0], exponent)
    if variant == "matrixpower":
        if len(args) != 1:
            _fail(lines, "pmap variant matrixpower needs exactly: <op>")
        return name, MatrixPowerPMap(args[0])
    if variant == "table":
        if args:
            _fail(lines, "pmap variant table takes no inline arguments")
        return name, _parse_table_block(lines, name, dim, p)
    if variant == "basisjacobson":
        if len(args) != 1:
            _fail(lines, "pmap variant basisjacobson needs exactly: <bracket op>")
        return name, _parse_basis_block(lines, name, args[0], dim, p)
    _fail(lines, f"unknown pmap variant {variant!r}")


def parse_algebra(text: str) -> Algebra:
    """Parse the text format into an Algebra; UsageError carries line numbers."""
    lines = _Lines(text)
    label = ""
    row = lines.take()
    if row is not None and row.startswith("label "):
        label = row[len("label "):].strip()
        row = lines.take()
    if row is None:
        raise UsageError("missing header line 'p=<prime> dim=<n>'")
    m = _HEADER.match(row)
    if not m:
        _fail(lines, f"expected header 'p=<prime> dim=<n>', got {row!r}")
    p, dim = int(m.group(1)), int(m.group(2))
    if dim > DENSE_DIM_BOUND:
        _fail(lines, f"dim {dim} exceeds the dense bound {DENSE_DIM_BOUND}")
    ops, pmaps = {}, {}
    while True:
        row = lines.take()
        if row is None:
            break
        if row.startswith("op "):
            head = row[3:].strip()
            if not head.endswith(":"):
                _fail(lines, f"op header must end with ':': {row!r}")
            name = head[:-1].strip()
            if not name:
                _fail(lines, "empty op name")
            if name in ops:
                _fail(lines, f"duplicate op {name!r}")
            ops[name] = _parse_op_block(lines, name, dim, p)
        elif row.startswith("pmap "):
            name, pm = _parse_pmap(lines, row, dim, p)
            if name in pmaps:
                _fail(lines, f"duplicate pmap {name!r}")
            pmaps[name] = pm
        else:
            _fail(lines, f"expected 'op <name>:' or 'pmap ...', got {row!r}")
    try:
        return Algebra(p, dim, ops, pmaps, label=label)
    except UsageError as e:
        raise UsageError(f"file is not a valid algebra: {e}") from None


def parse_algebra_file(path) -> Algebra:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e.strerror}") from None
    return parse_algebra(text)


def _format_pmap(alg: Algebra, name: str, pm) -> list:
    if isinstance(pm, ZeroPMap):
        return [f"pmap {name} zero"]
    if isinstance(pm, MatrixPowerPMap):
        return [f"pmap {name} matrixpower {pm.op}"]
    if isinstance(pm, RightPowerPMap):
        tail = "" if pm.exponent is None else f" {pm.exponent}"
        return [f"pmap {name} rightpower {pm.op}{tail}"]
    if isinstance(pm, TablePMap):
        out = [f"pmap {name} table:"]
        for key in sorted(pm.mapping):
            val = pm.mapping[key]
            out.append(" ".join(str(c) for c in key) + " -> "
                       + " ".join(str(c) for c in val))
        return out
    if isinstance(pm, BasisJacobsonPMap):
        out = [f"pmap {name} basisjacobson {pm.bracket}:"]
        out.extend(" ".join(str(c) for c in row) for row in pm.values)
        return out
    raise UsageError(
        f"pmap {name!r} of variant {getattr(pm, 'variant', '?')!r} has no "
        f"file representation"
    )


def format_algebra(alg: Algebra) -> str:
    """Canonical text form: sorted op and pmap names, lexicographic entries."""
    out = []
    if alg.label:
        out.append(f"label {alg.label}")
    out.append(f"p={alg.p} dim={alg.dim}")
    for name in sorted(alg.op_names):
        out.append(f"op {name}:")
        c = alg.structure(name)  # reduced mod p at construction
        for (i, j, k), v in zip(np.argwhere(c).tolist(), c[c != 0].tolist()):
            out.append(f"{i} {j} {k} {v}")
    for name in sorted(alg.pmaps):
        out.extend(_format_pmap(alg, name, alg.pmaps[name]))
    return "\n".join(out) + "\n"
