"""Round-trip and error-path tests for the algebra text file format."""

import hashlib
import random
import re
import tracemalloc

import numpy as np
import pytest

from rlk.algebra_core import (
    Algebra,
    BasisJacobsonPMap,
    MatrixPowerPMap,
    RightPowerPMap,
    ZeroPMap,
)
from rlk.algfile import format_algebra, parse_algebra, parse_algebra_file
from rlk.errors import UsageError
from rlk.prelie_tensor import tensor_prelie

from helpers import (
    abelian,
    as_dialgebra,
    dleib,
    l2,
    l2_dialgebra,
    matrix_dialgebra,
    truncated_poly,
    upper_triangular2,
    zinbiel_zero,
)


def same_algebra(a: Algebra, b: Algebra) -> bool:
    if (a.p, a.dim, a.label) != (b.p, b.dim, b.label):
        return False
    if a.op_names != b.op_names or sorted(a.pmaps) != sorted(b.pmaps):
        return False
    for name in a.op_names:
        if not np.array_equal(a.structure(name), b.structure(name)):
            return False
    return all(a.pmaps[n] == b.pmaps[n] for n in a.pmaps)


def roundtrip_fixtures():
    yield l2(2)                               # table pmap
    yield l2(3)
    yield abelian(3, 2, with_pmap=True)       # zero pmap
    yield dleib(l2_dialgebra(2))              # rightpower pmap, no exponent
    poly = truncated_poly(2, 3)
    yield poly.extended(pmaps={"frob": MatrixPowerPMap("assoc")})
    yield poly.extended(pmaps={"cube": RightPowerPMap("assoc", 3)})
    ab = abelian(2, 2)
    yield ab.extended(pmaps={"pj": BasisJacobsonPMap("bracket",
                                                     [(0, 1), (1, 1)])})
    yield Algebra(5, 0, {}, {}, label="")     # empty algebra


@pytest.mark.parametrize("alg", list(roundtrip_fixtures()),
                         ids=lambda a: a.label or "dim0")
def test_roundtrip_parse_format(alg):
    text = format_algebra(alg)
    back = parse_algebra(text)
    assert same_algebra(alg, back)
    assert format_algebra(back) == text


def test_comments_blanks_and_value_reduction():
    text = """
# a comment
label demo

p=3 dim=2
op bracket:
# entries
0 1 0 4
1 0 0 -1

pmap f rightpower bracket
"""
    alg = parse_algebra(text)
    assert alg.label == "demo"
    c = alg.structure("bracket")
    assert c[0, 1, 0] == 1 and c[1, 0, 0] == 2  # reduced mod 3
    assert alg.pmaps["f"] == RightPowerPMap("bracket", None)


def test_file_reader(tmp_path):
    path = tmp_path / "a.alg"
    path.write_text(format_algebra(l2(2)), encoding="utf-8")
    assert same_algebra(parse_algebra_file(path), l2(2))
    with pytest.raises(UsageError, match="cannot read"):
        parse_algebra_file(tmp_path / "missing.alg")


@pytest.mark.parametrize("text,pattern", [
    ("", "missing header"),
    ("label only\n", "missing header"),
    ("p=2 dim\n", "expected header"),
    ("q=2 dim=2\n", "expected header"),
    ("p=2 dim=1\nstray\n", "expected 'op"),
    ("p=2 dim=1\nop :\n", "empty op name"),
    ("p=2 dim=1\nop bracket\n", "must end with ':'"),
    ("p=2 dim=1\nop b:\n0 0 0\n", "needs 4 integers"),
    ("p=2 dim=1\nop b:\n0 0 x 1\n", "non-integer token"),
    ("p=2 dim=1\nop b:\n0 1 0 1\n", "out of range"),
    ("p=2 dim=1\nop b:\n0 0 0 1\n0 0 0 1\n", r"duplicates entry \(0, 0, 0\)"),
    ("p=2 dim=1\nop b:\nop b:\n", "duplicate op 'b'"),
    ("p=2 dim=1\npmap z zero\npmap z zero\n", "duplicate pmap 'z'"),
    ("p=2 dim=1\npmap z\n", "needs a name and a variant"),
    ("p=2 dim=1\npmap z frobnicate\n", "unknown pmap variant"),
    ("p=2 dim=1\npmap z zero extra\n", "takes no arguments"),
    ("p=2 dim=1\npmap z rightpower\n", r"rightpower needs: <op>"),
    ("p=2 dim=1\npmap z rightpower b x\n", "exponent must be an integer"),
    ("p=2 dim=1\npmap z matrixpower\n", "matrixpower needs exactly"),
    ("p=2 dim=1\npmap t table:\n0 -> 0\n", "has 1 of 2 rows"),
    ("p=2 dim=1\npmap t table:\n0 0\n0 -> 0\n", "needs '->'"),
    ("p=2 dim=1\npmap t table:\n0 -> 0\n0 -> 1\n", "duplicates key"),
    ("p=2 dim=1\npmap j basisjacobson\n", "basisjacobson needs exactly"),
    ("p=2 dim=2\nop bracket:\npmap j basisjacobson bracket:\n0 0\n",
     "needs 2 value rows"),
])
def test_parse_errors_carry_line_numbers(text, pattern):
    with pytest.raises(UsageError, match=pattern) as exc:
        parse_algebra(text)
    if text:  # header-missing case has no line to point at
        assert str(exc.value).startswith("line ") or "missing header" in str(exc.value)


def test_invalid_algebra_is_wrapped():
    with pytest.raises(UsageError, match="file is not a valid algebra"):
        parse_algebra("p=4 dim=1\n")  # non-prime characteristic
    with pytest.raises(UsageError, match="file is not a valid algebra"):
        # rightpower pmap referencing an op that does not exist
        parse_algebra("p=2 dim=1\npmap f rightpower nosuch\n")


def test_table_pmap_rows_reduced_and_complete():
    text = "p=2 dim=1\nop b:\npmap t table:\n2 -> 3\n1 -> 0\n"
    alg = parse_algebra(text)
    assert alg.apply_pmap("t", (0,)) == (1,)
    assert alg.apply_pmap("t", (1,)) == (0,)


def test_unrepresentable_pmap_is_refused():
    T = tensor_prelie(l2(2), zinbiel_zero(2, 2))
    with pytest.raises(UsageError, match="no file representation"):
        format_algebra(T.product)


def test_format_is_canonical_and_sorted():
    g = l2(2)
    text = format_algebra(g)
    lines = text.splitlines()
    assert lines[0] == "label L2/F2"
    assert lines[1] == "p=2 dim=2"
    op_lines = [l for l in lines if l.startswith("op ")]
    pmap_lines = [l for l in lines if l.startswith("pmap ")]
    assert op_lines == sorted(op_lines)
    assert pmap_lines == sorted(pmap_lines)
    assert text.endswith("\n")


def test_format_text_of_a_dim12_dleib_file_is_pinned():
    """The entries of dleib(gl_2(ut2/F3)) in lexicographic (i, j, k) order,
    byte for byte as the per-entry loop that first wrote them printed them,
    and parsed back to the same algebra."""
    g = dleib(matrix_dialgebra(as_dialgebra(upper_triangular2(3)), 2))
    text = format_algebra(g)
    assert g.dim == 12 and len(text.splitlines()) == 126
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "e7840a3efeff0c409b77b14a7a950f03f48afcef83db45204be5b23121f9dcaa")
    back = parse_algebra(text)
    assert same_algebra(g, back)
    assert format_algebra(back) == text


# -- seeded corpus: every outcome of the parser, pinned -------------------------------
#
# A small grammar of labels, headers, op blocks and every p-map variant, with
# short, long and malformed bodies, then row mutations (deleted, repeated,
# swapped, truncated, indented or junk rows, comments, blank lines, other line
# ends, a missing final newline).  dim <= 3 and p <= 7 keep it fast.

_OPS = ("bracket", "assoc", "left", "right", "b", "lie")
_PMAPS = ("f", "frobenius", "z", "t", "j", "f:")
_JUNK = ("x", "1.5", "-", "->", "", "op", "pmap", "0x1", "+1", "9" * 30, "é")


def _num(rng, hi):
    return str(rng.randint(-1, hi)) if rng.random() < 0.15 else str(rng.randrange(max(hi, 1)))


def _vector_row(rng, dim, p):
    n = dim if rng.random() < 0.85 else rng.choice((max(dim - 1, 0), dim + 1))
    return " ".join(_num(rng, p + 1) for _ in range(n))


def _op_block(rng, dim, p):
    head = rng.choice(_OPS)
    r = rng.random()
    rows = [f"op {head}:" if r < 0.85 else rng.choice(("op :", f"op {head}", "op  :", f"op {head} :"))]
    entries = []
    for _ in range(rng.randrange(5)):
        r = rng.random()
        if r < 0.75:
            row = " ".join(_num(rng, dim + 1 if rng.random() < 0.1 else dim) for _ in range(3))
            row += " " + str(rng.randint(-p, 2 * p))
        elif r < 0.85:
            row = " ".join(_num(rng, dim) for _ in range(rng.choice((3, 5))))
        elif r < 0.92 and entries:
            row = rng.choice(entries)
        else:
            parts = [_num(rng, dim) for _ in range(4)]
            parts[rng.randrange(4)] = rng.choice(_JUNK)
            row = " ".join(parts)
        entries.append(row)
    return rows + entries


def _table_rows(rng, dim, p):
    keys = [()]
    for _ in range(dim):
        keys = [k + (c,) for k in keys for c in range(p)]
    rng.shuffle(keys)
    r = rng.random()
    if r < 0.15:
        keys = keys[:rng.randrange(len(keys) + 1)]
    elif r < 0.25 and keys:
        keys = keys + [rng.choice(keys)]
    rows = []
    for k in keys:
        val = " ".join(_num(rng, p + 1) for _ in range(dim))
        row = " ".join(map(str, k)) + " -> " + val
        r = rng.random()
        if r < 0.03:
            row = row.replace("->", rng.choice(("", "=>", "- >")))
        elif r < 0.06:
            row = _vector_row(rng, dim, p) + " -> " + _vector_row(rng, dim, p)
        elif r < 0.08:
            row = row + " " + rng.choice(_JUNK)
        rows.append(row)
    return rows


def _pmap_block(rng, dim, p):
    name = rng.choice(_PMAPS)
    op = rng.choice(_OPS)
    r = rng.random()
    if r < 0.15:
        return [rng.choice((f"pmap {name} zero", f"pmap {name} zero extra", f"pmap {name} zero:"))]
    if r < 0.32:
        tail = rng.choice(("", "", " 2", f" {p}", " x", " 3 4", " -1", " 0"))
        return [rng.choice((f"pmap {name} rightpower {op}{tail}", f"pmap {name} rightpower"))]
    if r < 0.42:
        return [rng.choice((f"pmap {name} matrixpower {op}", f"pmap {name} matrixpower",
                            f"pmap {name} matrixpower {op} x"))]
    if r < 0.67:
        head = rng.choice((f"pmap {name} table:",) * 6 + (f"pmap {name} table", f"pmap {name} table: x"))
        return [head] + (_table_rows(rng, dim, p) if p ** dim <= 27 else [])
    if r < 0.9:
        head = rng.choice((f"pmap {name} basisjacobson {op}:",) * 5
                          + (f"pmap {name} basisjacobson:", f"pmap {name} basisjacobson {op} x:"))
        n = dim if rng.random() < 0.8 else rng.randrange(dim + 2)
        return [head] + [_vector_row(rng, dim, p) for _ in range(n)]
    return [rng.choice((f"pmap {name}", "pmap", f"pmap {name} frobnicate", f"pmap {name}: zero",
                        f"pmap {name} table: 1", "pmap  zero"))]


def _mutate(rng, rows, start):
    for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
        r = rng.random()
        i = rng.randrange(0 if rng.random() < 0.1 else min(start, len(rows)), len(rows) + 1)
        if r < 0.2 and rows:
            del rows[min(i, len(rows) - 1)]
        elif r < 0.35 and rows:
            rows.insert(i, rng.choice(rows))
        elif r < 0.45 and len(rows) > 1:
            j = rng.randrange(len(rows) - 1)
            rows[j], rows[j + 1] = rows[j + 1], rows[j]
        elif r < 0.6:
            rows.insert(i, rng.choice(("", "   ", "# note", "  # indented comment", "\t", "#")))
        elif r < 0.7 and rows:
            rows[:] = rows[:i]
        elif r < 0.8 and rows:
            k = min(i, len(rows) - 1)
            parts = rows[k].split() or [""]
            parts[rng.randrange(len(parts))] = rng.choice(_JUNK)
            rows[k] = " ".join(parts)
        elif r < 0.9:
            rows.insert(i, rng.choice(("op b:", "pmap z zero", "stray", "label late", "p=2 dim=1")))
        elif rows:
            k = min(i, len(rows) - 1)
            rows[k] = rng.choice(("  ", "\t", " ")) + rows[k] + rng.choice(("", " ", "\t"))
    return rows


def corpus_text(rng):
    p = rng.choice((2, 2, 2, 3, 3, 5, 7, 4))
    dim = rng.choice((0, 1, 1, 2, 2, 2, 3))
    rows = []
    if rng.random() < 0.4:
        rows.append(rng.choice(("label demo", "label L2/F2", "label  spaced  ", "label a b") * 3 + ("label", "labelx")))
    r = rng.random()
    if r < 0.94:
        rows.append(f"p={p} dim={dim}")
    else:
        rows.append(rng.choice((f"p={p}  dim={dim}", f"p={p}\tdim={dim}", f"p = {p} dim={dim}",
                                f"p={p} dim", f"p=0{p} dim=0{dim}", f"q={p} dim={dim}",
                                f"p={p} dim={dim + 200}")))
    body = []
    for _ in range(rng.randrange(5)):
        body += _op_block(rng, dim, p) if rng.random() < 0.5 else _pmap_block(rng, dim, p)
    rows += body
    rows = _mutate(rng, rows, len(rows) - len(body))
    if rng.random() < 0.2:
        rows += [rng.choice(("", "# trailing", "  "))]
    sep = rng.choice(("\n",) * 8 + ("\r\n", "\n\n", "\r"))
    return sep.join(rows) + ("" if rng.random() < 0.2 else sep)


def test_parser_outcomes_on_a_seeded_corpus_are_pinned():
    """sha256 over each text's outcome: the format_algebra text of the parsed
    algebra, or the exact error text, line number included; taken from the
    parser as it stood before its one-pass rewrite."""
    rng = random.Random(20261019)
    digest, valid = hashlib.sha256(), 0
    for _ in range(20_000):
        try:
            outcome = format_algebra(parse_algebra(corpus_text(rng)))
            valid += 1
        except UsageError as e:
            outcome = f"UsageError: {e}"
        digest.update(outcome.encode() + b"\0")
    assert (valid, digest.hexdigest()) == (2972, (
        "5316544327cc4529d854ade248d5d8a6beffdc1d95a46d981612269ef2ff5e80"))


def _outcome(parse, arg) -> str:
    try:
        return format_algebra(parse(arg))
    except UsageError as e:
        return f"UsageError: {e}"


def test_file_reader_matches_the_text_parser_on_every_line_end(tmp_path):
    """The corpus texts written as bytes with each line end: reading the file
    gives exactly what parse_algebra gives on the text, error text and line
    numbers included."""
    rng = random.Random(20261019)
    path = tmp_path / "corpus.alg"
    for _ in range(1_000):
        lines = re.split(r"\r\n|\r|\n", corpus_text(rng))
        for sep in ("\n", "\r\n", "\r"):
            text = sep.join(lines)
            path.write_bytes(text.encode("utf-8"))
            assert _outcome(parse_algebra_file, path) == _outcome(parse_algebra, text)


def test_tokens_past_the_digit_limit_are_too_long_not_non_integer():
    """A token of more digits than int() reads is named as too long, with its
    line, and is not echoed back."""
    long = "9" * 4400
    for text, message in (
            (f"p=2 dim=1\npmap f rightpower b {long}\n",
             "line 2: rightpower exponent has a token with too many digits (4400)"),
            (f"p=2 dim=1\nop b:\n0 0 0 {long}\n",
             "line 3: op 'b' entry has a token with too many digits (4400)")):
        with pytest.raises(UsageError) as exc:
            parse_algebra(text)
        assert str(exc.value) == message


def test_parsing_a_dim160_file_holds_its_tensors_once():
    """Four empty op blocks of dim 160 are 131 MB of tensors; the parser hands
    them over read-only and reduced, so the peak is theirs and no copy."""
    text = "p=2 dim=160\n" + "".join(f"op a{i}:\n" for i in range(4))
    tracemalloc.start()
    try:
        alg = parse_algebra(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(alg.structure(name).nbytes for name in alg.op_names)
    assert held == 4 * 160 ** 3 * 8
    assert peak <= held + (1 << 20)
