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
  with p below 2**64 and n at most DENSE_DIM_BOUND;
- each ``op <name>:`` block lists sparse structure-constant entries
  ``i j k v`` meaning e_i * e_j has coefficient v on e_k; indices must be in
  range, values are reduced mod p, duplicate (i, j, k) entries are rejected,
  and all blocks together hold at most OP_ENTRY_BOUND dense entries;
- p-map blocks: ``pmap <name> zero``, ``pmap <name> rightpower <op> [n]``,
  ``pmap <name> matrixpower <op>``, ``pmap <name> table:`` followed by one
  ``x1 .. xn -> y1 .. yn`` line per element, or ``pmap <name> basisjacobson
  <bracket>:`` followed by one value row per basis vector.

`parse_algebra` and `format_algebra` are mutually inverse on everything the
format can express, entry for entry.
"""

from __future__ import annotations

import hashlib
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
from .scalars import MODULUS_BOUND, _seal

_HEADER = re.compile(r"^p=(\d+)\s+dim=(\d+)$")
_DIGITS = re.compile(r"[+-]?\d+")
# all op blocks of a file together: four dense tensors at DENSE_DIM_BOUND, 131 MB
OP_ENTRY_BOUND = 4 * DENSE_DIM_BOUND ** 3


def _fail(lineno: int, message: str):
    raise UsageError(f"line {lineno}: {message}")


def _int(lineno: int, token: str, what: str) -> int:
    """int(token); digits past the digit limit of int() fail as too many."""
    try:
        return int(token)
    except ValueError:
        if _DIGITS.fullmatch(token):
            _fail(lineno, f"{what} has a token with too many digits ({len(token)})")
        raise


def _ints(lineno: int, row: str, expect: int, what: str):
    parts = row.split()
    if len(parts) != expect:
        _fail(lineno, f"{what} needs {expect} integers, got {len(parts)}")
    try:
        return [_int(lineno, t, what) for t in parts]
    except ValueError:
        _fail(lineno, f"{what} has a non-integer token in {row!r}")


def _op_tensor(name: str, body: list, dim: int, p: int) -> np.ndarray:
    c = np.zeros((dim, dim, dim), dtype=np.int64)
    seen = set()
    for n, row in body:
        i, j, k, v = _ints(n, row, 4, f"op {name!r} entry")
        for t in (i, j, k):
            if not 0 <= t < dim:
                _fail(n, f"op {name!r} index {t} out of range for dim {dim}")
        if (i, j, k) in seen:
            _fail(n, f"op {name!r} duplicates entry ({i}, {j}, {k})")
        seen.add((i, j, k))
        c[i, j, k] = v % p
    return _seal(c)  # reduced, so Algebra keeps it


def _pmap(n: int, head: str, body: list, end: int, dim: int, p: int):
    """(name, p-map, body rows read); a short block fails at line `end`."""
    parts = head.split()
    if len(parts) < 3:
        _fail(n, f"pmap line needs a name and a variant: {head!r}")
    name, variant = parts[1], parts[2].rstrip(":")
    args = [t.rstrip(":") for t in parts[3:]]
    if not name or name.endswith(":"):
        _fail(n, "empty or malformed pmap name")
    if variant == "zero":
        if args:
            _fail(n, "pmap variant zero takes no arguments")
        return name, ZeroPMap(), 0
    if variant == "rightpower":
        if len(args) not in (1, 2):
            _fail(n, "pmap variant rightpower needs: <op> [exponent]")
        try:
            exponent = _int(n, args[1], "rightpower exponent") if len(args) == 2 else None
        except ValueError:
            _fail(n, f"rightpower exponent must be an integer: {args[1]!r}")
        return name, RightPowerPMap(args[0], exponent), 0
    if variant == "matrixpower":
        if len(args) != 1:
            _fail(n, "pmap variant matrixpower needs exactly: <op>")
        return name, MatrixPowerPMap(args[0]), 0
    if variant == "table":
        if args:
            _fail(n, "pmap variant table takes no inline arguments")
        expect, mapping = p ** dim, {}
        for m, row in body[:expect]:
            if "->" not in row:
                _fail(m, f"pmap {name!r} table row needs '->': {row!r}")
            left, right = row.split("->", 1)
            key = tuple(v % p for v in _ints(m, left, dim, f"pmap {name!r} key"))
            val = tuple(v % p for v in _ints(m, right, dim, f"pmap {name!r} value"))
            if key in mapping:
                _fail(m, f"pmap {name!r} duplicates key {key}")
            mapping[key] = val
        if len(mapping) < expect:
            _fail(end, f"pmap {name!r} table has {len(mapping)} of {expect} rows")
        return name, TablePMap(mapping), expect
    if variant == "basisjacobson":
        if len(args) != 1:
            _fail(n, "pmap variant basisjacobson needs exactly: <bracket op>")
        values = [tuple(v % p for v in _ints(m, row, dim, f"pmap {name!r} value row"))
                  for m, row in body[:dim]]
        if len(values) < dim:
            _fail(end, f"pmap {name!r} needs {dim} value rows, got {len(values)}")
        return name, BasisJacobsonPMap(args[0], values), dim
    _fail(n, f"unknown pmap variant {variant!r}")


def parse_algebra(text: str) -> Algebra:
    """Parse the text format into an Algebra; UsageError carries line numbers.
    The header and each 'op '/'pmap ' row open a block of the rows up to the next."""
    raw = text.splitlines()
    rows = [(n, r) for n, r in enumerate(map(str.strip, raw), 1) if r and not r.startswith("#")]
    has_label = bool(rows) and rows[0][1].startswith("label ")
    label = rows.pop(0)[1][len("label "):].strip() if has_label else ""
    if not rows:
        raise UsageError("missing header line 'p=<prime> dim=<n>'")
    n, head = rows[0]
    m = _HEADER.match(head)
    if not m:
        _fail(n, f"expected header 'p=<prime> dim=<n>', got {head!r}")
    try:
        p, dim = int(m.group(1)), int(m.group(2))
    except ValueError:  # past the digit limit of int()
        _fail(n, "header number has too many digits")
    if dim > DENSE_DIM_BOUND:
        _fail(n, f"dim {dim} exceeds the dense bound {DENSE_DIM_BOUND}")
    if p >= MODULUS_BOUND:
        _fail(n, "modulus must be below 2**64")
    starts = [k for k, (_, row) in enumerate(rows) if k == 0 or row.startswith(("op ", "pmap "))]
    if sum(rows[k][1].startswith("op ") for k in starts) * dim ** 3 > OP_ENTRY_BOUND:
        _fail(n, f"op blocks of dim {dim} exceed the bound of {OP_ENTRY_BOUND} entries")
    ops, pmaps = {}, {}
    for k, stop in zip(starts, starts[1:] + [len(rows)]):
        (n, head), body, used = rows[k], rows[k + 1:stop], 0
        if head.startswith("op "):
            name = head[3:].strip()
            if not name.endswith(":"):
                _fail(n, f"op header must end with ':': {head!r}")
            name = name[:-1].strip()
            if not name:
                _fail(n, "empty op name")
            if name in ops:
                _fail(n, f"duplicate op {name!r}")
            ops[name], used = _op_tensor(name, body, dim, p), len(body)
        elif head.startswith("pmap "):
            end = rows[stop][0] if stop < len(rows) else len(raw)
            name, pm, used = _pmap(n, head, body, end, dim, p)
            if name in pmaps:
                _fail(rows[k + used][0], f"duplicate pmap {name!r}")
            pmaps[name] = pm
        if used < len(body):
            n, row = body[used]
            _fail(n, f"expected 'op <name>:' or 'pmap ...', got {row!r}")
    try:
        return Algebra(p, dim, ops, pmaps, label=label)
    except UsageError as e:
        raise UsageError(f"file is not a valid algebra: {e}") from None


def read_algebra_file(path) -> tuple:
    """(algebra, sha256 hex of the bytes it was parsed from): the file is
    opened once, and its UTF-8 bytes are decoded whole."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        text = data.decode("utf-8")
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise UsageError(f"cannot read {path}: {e}") from None
    return parse_algebra(text), hashlib.sha256(data).hexdigest()


def parse_algebra_file(path) -> Algebra:
    return read_algebra_file(path)[0]


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
