"""Round-trip and error-path tests for the algebra text file format."""

import hashlib

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
