"""Truncated free algebras, quotients, and enveloping constructions."""

import hashlib
import itertools
import json
import random

import numpy as np
import pytest

from rlk import free_structures
from rlk.envelope import ulp_truncated
from rlk.errors import UsageError
from rlk.free_structures import (
    GradedBasisAlgebra,
    basis_size,
    check_dias_free,
    check_ud_unit,
    check_zinbiel_factorial,
    check_zinbiel_free,
    das_quotient,
    free_dias,
    free_zinbiel,
    truncated_ideal_quotient,
    ud_p,
    word_ambient,
)

from helpers import abelian, l2
from oracles import (ideal_rank_fixed_point, naive_multiply, naive_shuffle,
                     naive_word_tables, trial_division_is_prime)


# -- naive three-slot monomial arithmetic for the oracle side ----------------


def naive_dias_basis(gens, cap):
    monos = []
    for n in range(1, cap + 1):
        for w in itertools.product(range(gens), repeat=n):
            for pos in range(n):
                monos.append((w[:pos], w[pos], w[pos + 1 :]))
    return monos


def naive_dias_product(op, a, b, cap):
    (ul, uc, ur), (vl, vc, vr) = a, b
    if len(ul) + len(ur) + len(vl) + len(vr) + 2 > cap:
        return None
    if op == "left":
        return (ul, uc, ur + vl + (vc,) + vr)
    return (ul + (uc,) + ur + vl, vc, vr)


def naive_dias_tables(gens, cap):
    monos = naive_dias_basis(gens, cap)
    idx = {m: i for i, m in enumerate(monos)}
    d = len(monos)
    tabs = []
    for op in ("left", "right"):
        c = [[[0] * d for _ in range(d)] for _ in range(d)]
        for i, a in enumerate(monos):
            for j, b in enumerate(monos):
                m = naive_dias_product(op, a, b, cap)
                if m is not None:
                    c[i][j][idx[m]] = 1
        tabs.append(c)
    return monos, idx, tabs


def dense_row(idx, terms, p, dim):
    row = [0] * dim
    for mono, coeff in terms.items():
        row[idx[mono]] = (row[idx[mono]] + coeff) % p
    return row


# -- basis enumeration --------------------------------------------------------


def test_three_slot_basis_dimensions():
    assert free_dias(1, 3, 2).dim == 6
    assert free_dias(1, 3, 2).dims_by_degree() == {1: 1, 2: 2, 3: 3}
    big = free_dias(2, 6, 5)
    assert big.dim == sum(n * 2**n for n in range(1, 7)) == 642
    assert big.dims_by_degree() == {n: n * 2**n for n in range(1, 7)}


def test_word_and_shuffle_basis_dimensions():
    assert free_zinbiel(2, 3, 3).dim == 2 + 4 + 8
    assert word_ambient(2, 3, 2).dim == 1 + 2 + 4 + 8
    assert word_ambient(2, 3, 2, unital=False).dim == 2 + 4 + 8
    assert word_ambient(2, 3, 2).dims_by_degree()[0] == 1


def test_basis_size_bound_enforced():
    with pytest.raises(UsageError, match="exceed"):
        free_dias(3, 7, 2)


def test_constructor_rejects_bad_parameters():
    with pytest.raises(UsageError, match="family"):
        GradedBasisAlgebra("poisson", 1, 2, 3)
    with pytest.raises(UsageError, match="degree cap"):
        free_dias(1, 0, 2)
    with pytest.raises(UsageError, match="generator count"):
        free_dias(-1, 2, 2)
    with pytest.raises(UsageError, match="unit"):
        GradedBasisAlgebra("zinbiel", 1, 2, 3, unital=True)
    with pytest.raises(UsageError):
        free_dias(1, 2, 4)


# -- three-slot monomial products --------------------------------------------


def test_generator_products_land_on_expected_monomials():
    F = free_dias(2, 2, 3)
    x, y = F.generator(0), F.generator(1)
    left = F.product("left", x, y)
    right = F.product("right", y, x)
    assert left == {F.index[((), 0, (1,))]: 1}
    assert right == {F.index[((1,), 0, ())]: 1}


def test_mono_products_match_naive_formula_everywhere():
    F = free_dias(2, 3, 5)
    for i, j in itertools.product(range(F.dim), repeat=2):
        for op in ("left", "right"):
            got = F.mono_product(op, i, j)
            want = naive_dias_product(op, F.basis[i], F.basis[j], 3)
            if want is None:
                assert got == ()
            else:
                assert got == ((F.index[want], 1),)


def test_dias_axioms_hold_on_in_range_triples():
    rep = check_dias_free(free_dias(2, 3, 2))
    assert rep.status == "pass"
    assert rep.coverage.count == 5 * 8
    assert "in-range basis triples only" in rep.notes
    rep = check_dias_free(free_dias(1, 4, 3))
    assert rep.status == "pass"
    assert rep.coverage.count == 5 * 7


def test_unknown_op_rejected():
    F = free_dias(1, 2, 2)
    with pytest.raises(UsageError, match="unknown op"):
        F.mono_product("concat", 0, 0)
    with pytest.raises(UsageError, match="power"):
        F.power("left", F.generator(0), 0)


def test_power_stops_at_zero(monkeypatch):
    """Once a power is 0, later factors keep it 0 and touch no product, so a
    power to a large exponent takes only the products before it vanishes
    and counts the one overflow the full loop would meet first."""
    calls = []
    product = GradedBasisAlgebra.product
    monkeypatch.setattr(GradedBasisAlgebra, "product",
                        lambda F, *args: calls.append(1) or product(F, *args))
    F = free_dias(1, 3, 1_000_003)
    assert F.power("right", F.generator(0), 1_000_003) == {}
    assert F.overflows == 1 and len(calls) == 3
    assert F.power("left", F.generator(0), 3) == {F.index[((), 0, (0, 0))]: 1}
    assert F.overflows == 1


# -- overflow bookkeeping ------------------------------------------------------


def test_overflow_count_grows_on_every_product_and_cache_hit():
    """Each truncated monomial product adds one, also when it comes from the
    product cache, and an in-range product adds nothing."""
    F = free_dias(1, 3, 2)
    deg2 = F.basis_elt(F.index[((), 0, (0,))])
    assert F.overflows == 0
    assert F.product("left", deg2, deg2) == {}
    assert F.overflows == 1
    assert ("left",) + 2 * (F.index[((), 0, (0,))],) in F._product_cache
    assert F.product("left", deg2, deg2) == {}
    assert F.overflows == 2
    F.product("left", F.generator(0), deg2)
    assert F.overflows == 2


def test_vanishing_coefficient_is_not_overflow():
    F = free_zinbiel(2, 3, 2)
    x, y = F.generator(0), F.generator(1)
    xy = F.product("zinbiel", x, y)
    assert F.product("zinbiel", xy, y) == {}
    assert F.overflows == 0
    F.product("zinbiel", xy, y)
    assert F.overflows == 0


def test_overflow_count_before_and_after_scopes_a_computation():
    """A computation whose products fit leaves the count where it was, even
    after earlier overflows; one that truncates moves it."""
    F = free_dias(1, 2, 2)
    deg2 = F.basis_elt(F.index[((), 0, (0,))])
    F.product("left", deg2, deg2)
    before = F.overflows
    assert before == 1
    F.product("left", F.generator(0), F.generator(0))
    assert F.overflows == before
    F.product("left", deg2, deg2)
    assert F.overflows == before + 1


def test_earlier_overflows_leave_later_checks_conclusive():
    """A check reads only the overflows of its own products: an ambient that
    overflowed elsewhere first does not make das_quotient or
    check_zinbiel_factorial inconclusive when theirs fit, and an overflowing
    pair the check finds in the product cache (das_quotient's relation build
    cached every basis pair) still counts."""
    F = free_dias(1, 3, 2)
    deg2 = F.basis_elt(F.index[((), 0, (0,))])
    F.product("left", deg2, deg2)
    F.product("right", deg2, deg2)
    assert F.overflows == 2
    _, rep = das_quotient(F, nfold=2)
    assert rep.status == "pass" and rep.notes == ("2 patterns of 2 factors",)
    _, rep = das_quotient(F, nfold=4)
    assert rep.status == "inconclusive" and "power exceeded the degree cap" in rep.notes

    Z = free_zinbiel(1, 3, 7)
    x = Z.generator(0)
    assert check_zinbiel_factorial(Z, x, x, 3).status == "inconclusive"
    counted = Z.overflows
    assert counted > 0
    assert check_zinbiel_factorial(Z, x, x, 2).status == "pass"
    assert Z.overflows == counted
    again = check_zinbiel_factorial(Z, x, x, 3)  # every product now a cache hit
    assert again.status == "inconclusive" and Z.overflows > counted


# -- half-shuffle products ----------------------------------------------------


def test_half_shuffle_products_match_interleaving_oracle():
    F = free_zinbiel(2, 3, 5)
    for i, j in itertools.product(range(F.dim), repeat=2):
        u, v = F.basis[i], F.basis[j]
        got = dict(F.mono_product("zinbiel", i, j))
        if len(u) + len(v) > 3:
            assert got == {}
            continue
        want = {}
        for w, m in naive_shuffle(u[1:], v).items():
            if m % 5:
                want[F.index[(u[0],) + w]] = m % 5
        assert got == want


def test_half_shuffle_small_products():
    F = free_zinbiel(2, 3, 3)
    x, y = F.generator(0), F.generator(1)
    assert F.product("zinbiel", x, y) == {F.index[(0, 1)]: 1}
    two_fold = F.product("zinbiel", F.product("zinbiel", x, y), y)
    assert two_fold == {F.index[(0, 1, 1)]: 2}
    nested = F.product("zinbiel", y, F.product("zinbiel", y, y))
    assert nested == {F.index[(1, 1, 1)]: 1}
    F2 = free_zinbiel(2, 3, 2)
    x2, y2 = F2.generator(0), F2.generator(1)
    assert F2.product("zinbiel", F2.product("zinbiel", x2, y2), y2) == {}


def test_half_shuffle_identity_on_in_range_triples():
    rep = check_zinbiel_free(free_zinbiel(2, 3, 2))
    assert rep.status == "pass"
    assert rep.coverage.count == 8
    rep = check_zinbiel_free(free_zinbiel(1, 4, 3))
    assert rep.status == "pass"
    assert rep.coverage.count == 4


def _in_range_triples(F):
    n = len(F.basis)
    return [(i, j, k) for i, j, k in itertools.product(range(n), repeat=3)
            if F.degrees[i] + F.degrees[j] + F.degrees[k] <= F.degree_cap]


def test_planted_products_fail_the_in_range_sweeps_with_the_plain_count():
    """A wrong cached monomial product (mono_product reads the cache first)
    fails check_zinbiel_free and check_dias_free; the failure counts and the
    first witnesses match a plain loop over the in-range triples."""
    Z = free_zinbiel(2, 3, 3)
    Z._product_cache["zinbiel", 0, 1] = ((Z.index[(1, 0)], 1),)  # x < y is xy

    def z(u, v):
        return Z.product("zinbiel", u, v)

    want = []
    for i, j, k in _in_range_triples(Z):
        a, b, c = Z.basis_elt(i), Z.basis_elt(j), Z.basis_elt(k)
        lhs, rhs = z(z(a, b), c), Z.add(z(a, z(b, c)), z(a, z(c, b)))
        if lhs != rhs:
            want.append(((i, j, k), sorted(lhs.items()), sorted(rhs.items())))
    rep = check_zinbiel_free(Z)
    assert rep.status == "fail" and rep.failure_count == len(want) > 0
    assert [(w.inputs, list(w.lhs), list(w.rhs)) for w in rep.witnesses] == [
        (inputs, [tuple(t) for t in lhs], [tuple(t) for t in rhs])
        for inputs, lhs, rhs in sorted(want, key=lambda w: tuple(map(repr, w[0])))]

    D = free_dias(2, 3, 2)
    x, y = D.index[((), 0, ())], D.index[((), 1, ())]
    D._product_cache["left", x, y] = ((D.index[((), 1, (0,))], 1),)  # x -| y is ((), x, (y,))

    def m(op, u, v):
        return D.product("left" if op == "l" else "right", u, v)

    axioms = {  # name: lhs products and form, rhs products and form, as in identities._AXIOMS
        "assoc_left": ("ll", "(xy)z", "ll", "x(yz)"),
        "assoc_right": ("rr", "(xy)z", "rr", "x(yz)"),
        "left_bar": ("ll", "x(yz)", "lr", "x(yz)"),
        "middle": ("rl", "(xy)z", "rl", "x(yz)"),
        "right_bar": ("lr", "(xy)z", "rr", "(xy)z"),
    }

    def side(ops, form, a, b, c):
        first, second = ops
        return m(second, m(first, a, b), c) if form == "(xy)z" else m(first, a, m(second, b, c))

    count = 0
    for i, j, k in _in_range_triples(D):
        a, b, c = D.basis_elt(i), D.basis_elt(j), D.basis_elt(k)
        for lops, lform, rops, rform in axioms.values():
            count += side(lops, lform, a, b, c) != side(rops, rform, a, b, c)
    rep = check_dias_free(D)
    assert rep.status == "fail" and rep.failure_count == count > 0
    assert all(w.inputs[0] in axioms and len(w.inputs) == 4 for w in rep.witnesses)


def test_planted_product_gives_the_fold_and_vanishing_witnesses():
    """With xxx < x planted as xxxx, the iterate ((x<x)<x)<x at p = 3 is 2 xxxx: it
    neither equals 3! times the nested product (zero) nor vanishes, two failures."""
    F = free_zinbiel(1, 4, 3)
    x = F.generator(0)
    F._product_cache["zinbiel", F.index[(0, 0, 0)], 0] = ((F.index[(0, 0, 0, 0)], 1),)
    lhs = F.product("zinbiel", F.product("zinbiel", F.product("zinbiel", x, x), x), x)
    nest = F.product("zinbiel", x, F.product("zinbiel", x, x))
    rhs = F.scale(6, F.product("zinbiel", x, nest))
    rep = check_zinbiel_factorial(F, x, x, 3)
    assert rep.status == "fail"
    assert rep.failure_count == (lhs != rhs) + (lhs != {}) == 2
    assert [w.to_dict() for w in rep.witnesses] == [
        {"inputs": ["fold", 3], "lhs": [[3, 2]], "rhs": []},
        {"inputs": ["vanishing", 3], "lhs": [[3, 2]], "rhs": []},
    ]


def test_kind_mismatch_rejected_by_free_checks():
    with pytest.raises(UsageError, match="expected dias"):
        check_dias_free(free_zinbiel(1, 2, 2))
    with pytest.raises(UsageError, match="expected zinbiel"):
        check_zinbiel_free(free_dias(1, 2, 2))


# -- iterated half-shuffle factorial identity ---------------------------------


def test_factorial_identity_over_large_prime():
    F = free_zinbiel(1, 7, 101)
    x = F.generator(0)
    for n in range(1, 7):
        rep = check_zinbiel_factorial(F, x, x, n)
        assert rep.status == "pass", rep.to_dict()
    a = F.add(x, F.scale(2, F.basis_elt(F.index[(0, 0)])))
    rep = check_zinbiel_factorial(F, a, x, 5)
    assert rep.status == "pass"


@pytest.mark.parametrize("p", [2, 3, 5])
def test_p_fold_iterate_vanishes_in_characteristic_p(p):
    F = free_zinbiel(1, p + 1, p)
    x = F.generator(0)
    rep = check_zinbiel_factorial(F, x, x, p)
    assert rep.status == "pass"
    lhs = F.product("zinbiel", x, x)
    for _ in range(p - 1):
        lhs = F.product("zinbiel", lhs, x)
    assert lhs == {}
    assert F.overflows == 0


def test_factorial_check_inconclusive_past_the_cap():
    F = free_zinbiel(1, 3, 7)
    x = F.generator(0)
    rep = check_zinbiel_factorial(F, x, x, 3)
    assert rep.status == "inconclusive"
    assert any("truncation" in n for n in rep.notes)
    with pytest.raises(UsageError, match="power"):
        check_zinbiel_factorial(F, x, x, 0)


# -- truncated ideal quotients -------------------------------------------------


def test_empty_relation_list_gives_the_ambient():
    F = free_dias(1, 3, 2)
    pres = truncated_ideal_quotient(F, [])
    assert pres.dimension == F.dim
    assert pres.ideal_rank == 0
    assert np.array_equal(pres.projection, np.eye(F.dim, dtype=np.int64))


def test_killing_the_generator_kills_everything():
    F = free_dias(1, 3, 3)
    pres = truncated_ideal_quotient(F, [F.generator(0)])
    assert pres.dimension == 0
    assert pres.ideal_rank == F.dim
    for i in range(F.dim):
        assert not pres.project(F.basis_elt(i)).any()


def test_square_relations_leave_only_the_generator():
    F = free_dias(1, 3, 2)
    x = F.generator(0)
    rels = [F.product("left", x, x), F.product("right", x, x)]
    pres = truncated_ideal_quotient(F, rels)
    assert pres.dimension == 1
    assert pres.normal_basis == (((), 0, ()),)
    assert pres.degree_table() == {1: 1}
    assert pres.ideal_rank == 5


def test_quotient_counts_and_projection_are_consistent():
    cases = []
    F1 = free_dias(1, 3, 2)
    x = F1.generator(0)
    cases.append((F1, [F1.product("left", x, x), F1.product("right", x, x)]))
    F2 = free_dias(2, 3, 3)
    cases.append((F2, [F2.sub(F2.product("left", F2.generator(0), F2.generator(1)),
                              F2.product("right", F2.generator(1), F2.generator(0)))]))
    F3 = word_ambient(2, 3, 2)
    cases.append((F3, [F3.product("concat", F3.generator(1), F3.generator(1))]))
    for F, rels in cases:
        pres = truncated_ideal_quotient(F, rels)
        p = F.p
        assert pres.dimension + pres.ideal_rank == F.dim
        P = pres.projection
        assert np.array_equal((P @ P) % p, P % p)
        for r in pres.relations:
            assert not pres.project(np.asarray(r)).any()
        rng = np.random.default_rng(1)
        for _ in range(5):
            v = rng.integers(0, p, size=F.dim)
            img = pres.project(F.from_dense(v))
            assert set(np.nonzero(img)[0]).issubset(set(pres.normal_indices))
            assert np.array_equal(pres.project(img), img)


def _prime_from(n, step):
    while not trial_division_is_prime(n):
        n += step
    return n


@pytest.mark.parametrize("p", [
    _prime_from(1 + (1 << 30), -1),  # (p - 1)**2 near 2**60: blocks of 4 columns
    2**31 - 1,  # the largest prime with (p - 1)**2 < 2**62: blocks of one column
    _prime_from(1 + (1 << 31), 1),  # the first with (p - 1)**2 >= 2**62: Python ints
    _prime_from(1 + (1 << 40), 1),  # one product alone passes int64
])
def test_projection_is_exact_at_large_primes(p):
    """project against a Python-int product of the projection.  Six random
    relations on the eight words of degree 3 leave two normal words whose
    rows hold seven random residues, so on vectors next to p - 1 their sums
    pass int64 from p = 2**31 on."""
    rng = random.Random(f"project-{p}")
    F = word_ambient(2, 3, p)
    rels = [{F.index[w]: rng.randrange(1, p) for w in F.basis[7:]} for _ in range(6)]
    pres = truncated_ideal_quotient(F, rels)
    P = pres.projection.tolist()
    assert pres.ideal_rank == 6
    for i in range(20):
        v = [p - 1 - rng.randrange(1 << (i % 10)) for _ in range(F.dim)]
        want = [sum(a * b for a, b in zip(row, v)) % p for row in P]
        got = pres.project(np.array(v, dtype=np.int64))
        assert got.dtype == np.int64 and got.tolist() == want
        assert pres.project(F.from_dense(v)).tolist() == want


def test_quotient_accepts_dense_rows_and_serializes():
    F = free_dias(1, 2, 2)
    row = np.zeros(F.dim, dtype=np.int64)
    row[F.generator_index(0)] = 1
    pres = truncated_ideal_quotient(F, [row], notes=("kill",))
    assert pres.dimension == 0
    doc = json.dumps(pres.to_dict(), sort_keys=True)
    assert "kill" in doc


def test_quotient_rank_matches_fixed_point_oracle():
    monos, idx, tabs = naive_dias_tables(1, 3)
    x = ((), 0, ())
    xl = naive_dias_product("left", x, x, 3)
    xr = naive_dias_product("right", x, x, 3)
    rows = [
        dense_row(idx, {xl: 1}, 2, len(monos)),
        dense_row(idx, {xr: 1}, 2, len(monos)),
    ]
    oracle_rank = ideal_rank_fixed_point(tabs, rows, 2)
    F = free_dias(1, 3, 2)
    g = F.generator(0)
    pres = truncated_ideal_quotient(
        F, [F.product("left", g, g), F.product("right", g, g)]
    )
    assert pres.ideal_rank == oracle_rank == 5
    assert pres.dimension == len(monos) - oracle_rank


# -- enveloping quotient of a restricted bracket --------------------------------


def test_envelope_of_one_dim_abelian_collapses_to_the_generator():
    g = abelian(2, 1, with_pmap=True)
    pres = ud_p(g, pmap="zero", d=3)
    assert pres.dimension == 1
    assert pres.normal_basis == (((), 0, ()),)
    assert any("all 2 elements" in n for n in pres.notes)


def test_envelope_at_degree_one_has_no_relations_in_range():
    g = abelian(2, 1, with_pmap=True)
    pres = ud_p(g, pmap="zero", d=1)
    assert pres.dimension == 1
    assert pres.ideal_rank == 0


def test_envelope_rejects_non_restricted_input():
    bad = l2(2).extended(pmaps={"zero": abelian(2, 1, with_pmap=True).pmaps["zero"]})
    with pytest.raises(UsageError, match="not restricted"):
        ud_p(bad, pmap="zero", d=3)


def _l2_envelope_oracle_rank(p, d):
    monos, idx, tabs = naive_dias_tables(2, d)
    dim = len(monos)
    hat = lambda i: ((), i, ())
    rows = []
    for i in range(2):
        for j in range(2):
            terms = {}
            if (i, j) == (0, 1):
                terms[hat(0)] = 1
            lm = naive_dias_product("left", hat(i), hat(j), d)
            rm = naive_dias_product("right", hat(j), hat(i), d)
            if lm is not None:
                terms[lm] = (terms.get(lm, 0) - 1) % p
            if rm is not None:
                terms[rm] = (terms.get(rm, 0) + 1) % p
            rows.append(dense_row(idx, terms, p, dim))
    for x in itertools.product(range(p), repeat=2):
        terms = {}
        if x[1] % p:
            terms[hat(1)] = x[1] % p
        power = {hat(i): x[i] % p for i in range(2) if x[i] % p}
        for _ in range(p - 1):
            nxt = {}
            for a, ca in power.items():
                for i in range(2):
                    if not x[i] % p:
                        continue
                    m = naive_dias_product("right", a, hat(i), d)
                    if m is not None:
                        nxt[m] = (nxt.get(m, 0) + ca * x[i]) % p
            power = {k: v for k, v in nxt.items() if v}
        for m, c in power.items():
            terms[m] = (terms.get(m, 0) - c) % p
        row = dense_row(idx, terms, p, dim)
        if any(row):
            rows.append(row)
    return dim, ideal_rank_fixed_point(tabs, rows, p), rows, monos


@pytest.mark.parametrize("d", [2, 3])
def test_envelope_of_l2_matches_fixed_point_oracle(d):
    g = l2(2)
    pres = ud_p(g, d=d)
    ambient_dim, oracle_rank, rows, monos = _l2_envelope_oracle_rank(2, d)
    assert pres.ambient.dim == ambient_dim
    assert set(monos) == set(pres.ambient.index)
    assert pres.ideal_rank == oracle_rank
    assert pres.dimension == ambient_dim - oracle_rank
    for row in rows:
        repacked = {pres.ambient.index[m]: c
                    for m, c in zip(monos, row) if c}
        assert not pres.project(repacked).any()


def test_envelope_embedding_is_compatible_inside_the_quotient():
    for g, pmap in [
        (abelian(2, 1, with_pmap=True), "zero"),
        (abelian(2, 2, with_pmap=True), "zero"),
        (l2(2), "frobenius"),
        (l2(3), "frobenius"),
    ]:
        rep = check_ud_unit(g, pmap=pmap, d=3)
        assert rep.status == "pass", (g.label, rep.to_dict())
    rep = check_ud_unit(abelian(2, 1, with_pmap=True), pmap="zero", d=3)
    assert rep.coverage.count == 1 + 2


def test_envelope_check_inconclusive_when_truncation_interferes():
    rep = check_ud_unit(l2(2), d=1)
    assert rep.status == "inconclusive"
    assert any("truncation" in n for n in rep.notes)


def test_envelope_uses_sampling_above_the_enumeration_cap():
    g = abelian(2, 20, with_pmap=True)
    pres = ud_p(g, pmap="zero", d=2, seed=7, samples=8)
    assert any("sampled" in n and "seed 7" in n for n in pres.notes)
    assert pres.dimension + pres.ideal_rank == pres.ambient.dim


# -- identifying both products ---------------------------------------------------


def test_identified_products_give_truncated_polynomials():
    pres, rep = das_quotient(free_dias(1, 3, 3))
    assert rep.status == "pass"
    assert rep.coverage.count == 4
    assert pres.dimension == 3
    assert pres.degree_table() == {1: 1, 2: 1, 3: 1}

    pres2, rep2 = das_quotient(free_dias(1, 2, 2))
    assert rep2.status == "pass"
    assert rep2.coverage.count == 2
    assert pres2.dimension == 2


def test_identified_products_with_explicit_fold_count():
    pres, rep = das_quotient(free_dias(1, 3, 3), nfold=2)
    assert rep.status == "pass"
    assert rep.coverage.count == 2


def test_identified_products_inconclusive_past_the_cap():
    pres, rep = das_quotient(free_dias(1, 3, 3), nfold=4)
    assert rep.status == "inconclusive"
    assert any("cap" in n for n in rep.notes)


@pytest.mark.parametrize("nfold", [2, 5, 9])
def test_identified_products_refuse_patterns_past_the_cap(nfold, monkeypatch):
    """das_quotient compares the 2**(nfold - 1) patterns with the enumeration
    cap before it builds the quotient or enumerates one pattern: a cap one
    short refuses, the exact count passes."""
    F = free_dias(1, nfold, 3)
    monkeypatch.setenv("RLK_CAP", str(2 ** (nfold - 1) - 1))
    with monkeypatch.context() as m:
        m.setattr(free_structures, "truncated_ideal_quotient", None)
        m.setattr(free_structures.itertools, "product", None)
        with pytest.raises(UsageError, match=rf"2\*\*{nfold - 1} patterns .* cap"):
            das_quotient(F, nfold=nfold)
    monkeypatch.setenv("RLK_CAP", str(2 ** (nfold - 1)))
    pres, rep = das_quotient(F, nfold=nfold)
    assert rep.coverage.count == 2 ** (nfold - 1)


def test_identified_products_refuse_the_default_fold_at_a_large_prime(monkeypatch):
    """The default nfold = p asks for 2**(p - 1) patterns; at p = 2**31 - 1
    the refusal comes before any enumeration and without forming 2**(p - 1)."""
    p = 2**31 - 1
    F = free_dias(1, 3, p)
    monkeypatch.delenv("RLK_CAP", raising=False)
    monkeypatch.setattr(free_structures, "truncated_ideal_quotient", None)
    monkeypatch.setattr(free_structures.itertools, "product", None)
    with pytest.raises(UsageError, match=rf"2\*\*{p - 1} patterns of {p} factors exceed cap 65536"):
        das_quotient(F)


def test_identified_products_rejects_bad_input():
    with pytest.raises(UsageError, match="expected dias"):
        das_quotient(free_zinbiel(1, 2, 2))
    with pytest.raises(UsageError, match="one generator"):
        das_quotient(free_dias(2, 2, 2))
    with pytest.raises(UsageError, match="power"):
        das_quotient(free_dias(1, 2, 2), nfold=1)


# -- dense conversion -------------------------------------------------------------


def test_dense_conversion_agrees_with_sparse_products():
    F = word_ambient(2, 2, 3)
    alg = F.to_algebra()
    assert alg.dim == F.dim
    table = [[[int(alg.structure("concat")[i, j, k]) for k in range(F.dim)]
              for j in range(F.dim)] for i in range(F.dim)]
    rng = np.random.default_rng(3)
    for _ in range(10):
        xv = rng.integers(0, 3, size=F.dim)
        yv = rng.integers(0, 3, size=F.dim)
        sparse = F.product("concat", F.from_dense(xv), F.from_dense(yv))
        dense = naive_multiply(table, tuple(int(v) for v in xv),
                               tuple(int(v) for v in yv), 3)
        assert F.dense(sparse).tolist() == list(dense)


def test_dense_conversion_refuses_large_bases():
    with pytest.raises(UsageError, match="dense bound"):
        free_dias(2, 6, 5).to_algebra()


# -- the sparse quotient kernel ----------------------------------------------------


def _quotient_cases():
    def dias():
        F = free_dias(2, 3, 3)
        g0, g1 = F.generator(0), F.generator(1)
        return truncated_ideal_quotient(
            F, [F.sub(F.product("left", g0, g1), F.product("right", g1, g0))])

    def assoc():
        F = word_ambient(2, 4, 2)
        g0, g1 = F.generator(0), F.generator(1)
        return truncated_ideal_quotient(
            F, [F.add(F.product("concat", g1, g1), g0), F.product("concat", g0, g1)])

    def zinbiel():
        F = free_zinbiel(2, 4, 3)
        g0, g1 = F.generator(0), F.generator(1)
        return truncated_ideal_quotient(
            F, [F.sub(F.product("zinbiel", g0, g1), F.product("zinbiel", g1, g0)),
                F.add(F.product("zinbiel", g0, g0), g1)])

    cases = {"dias": dias, "assoc": assoc, "zinbiel": zinbiel,
             "das": lambda: das_quotient(free_dias(1, 4, 3))[0]}
    for p, d in ((2, 3), (2, 5), (3, 4)):
        cases[f"ud_l2_{p}_{d}"] = lambda p=p, d=d: ud_p(l2(p), d=d)
        cases[f"ul_l2_{p}_{d}"] = lambda p=p, d=d: ulp_truncated(l2(p), d=d)
    for p, dim, d in ((2, 2, 3), (3, 1, 4)):
        g = abelian(p, dim, with_pmap=True)
        cases[f"ud_ab_{p}_{dim}_{d}"] = lambda g=g, d=d: ud_p(g, pmap="zero", d=d)
        cases[f"ul_ab_{p}_{dim}_{d}"] = lambda g=g, d=d: ulp_truncated(g, pmap="zero", d=d)
    return cases


# ambient dim, normal indices, ideal rank, sha256 of projection.tobytes() and
# of repr(relations), as computed by the dense reducer this kernel replaced
QUOTIENT_PINS = {
    "dias": (34, (0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 14, 16, 17, 18, 20, 21, 22, 24,
     25, 26, 27, 30, 31, 32, 33), 9,
        "5658855024b074920ed969ffce1a86a99ddb5079258cb376c51599e1b4f53f22",
        "f3ecaf64406b3dc45adf6c2833cb39682c1fbd00766c1ddc52f64b1e2590f6be"),
    "assoc": (31, (0, 2, 6), 28,
        "1278ad98f6faf3be471af629ae49475778e8799c22fc7e7f9098aefefb2e504b",
        "dc2fd0637fc407c0d50deaef569a0957f46f86f075cfba1ce785afb7ede075b1"),
    "zinbiel": (30, (0, 2), 28,
        "3620fbe882f76df975acee50625d2b51a59f13e744dd017925ba4e66fb108ebc",
        "37d063917b24ea5309a6f22ffaa6c9bd33b3da8515de096c796a72634b4d4805"),
    "das": (10, (0, 2, 5, 9), 6,
        "085a53b7ee31da937eb7fdd29da44dcfefd1bff32db7111911fbf4d9509e7767",
        "93c05e29479d9514b05484538b6395f3531394dec80d624fe20692e890fc4522"),
    "ud_l2_2_3": (34, (), 34,
        "8b06cbc1767cee805e9745185c3516747995f76bebe8f64a2949c536e46eac80",
        "84e0fd1c1c1771bd800cdd2a96480957d1b7d2be26d58b9012e648bea111883c"),
    "ul_l2_2_3": (85, (0, 2), 83,
        "af48fdbb3987f10c0b3c7a1bdea3de14027b4577c5edd20421d61dac305a1d7b",
        "81cd403fcf8b18663fb7d1de97cecd90740413d7bfbf98f4a9cb60f82daae086"),
    "ud_l2_2_5": (258, (), 258,
        "efa8c451990027b24861eef36328a9b967a8323de5a7a6663ecf3507c2a40612",
        "960f30a7562cebdab54dead2a88eaed930081207110379a2a8818dde8ceb181d"),
    "ul_l2_2_5": (1365, (0, 2), 1363,
        "4930dde51c05bb4fe020b33b1652fa97f8c453efb04a2e25833681836f40f8f0",
        "a01a52a7cae711620ffe94dc849832373ebcb18c33d854d07cb572d134aad61a"),
    "ud_l2_3_4": (98, (), 98,
        "86301fb6703395768b44b61adf51efb9dfd0771b27d5357276f43b0b32649914",
        "994a2c1b87bc077bc60b2401fae6aaba8538e86101cc2c74284754a77facdfb1"),
    "ul_l2_3_4": (341, (0, 2), 339,
        "17e1b4f342ca19d04a7df02fe9781d85d14cbea71d6877c6f8cf8c63e3b5df79",
        "46488d2c0dc4a21d01f0742c95a553081bae738170ca284b16037139f24f52ad"),
    "ud_ab_2_2_3": (34, (0, 1, 8), 31,
        "f848b5dfc89035d5f5226eddf2cb05c906643d7f9b035826250af8f1fc4b9215",
        "c026f0a21640846bfa81f5df69ace6a1308bbc4125720188b8fb810f0cdd8535"),
    "ul_ab_2_2_3": (85, (0, 1, 2, 3, 4, 13, 14, 17, 18, 19, 77, 78), 73,
        "da8f2a6f75fa7435027a0da7ec74dddc11b6967f505a0e759dac2b3811bf3932",
        "7832e065679327d9418b16d17fc4d4928115ba18e627cf8235a1fa0aacb2196e"),
    "ud_ab_3_1_4": (10, (0, 2), 8,
        "717a6c65c6d12c3df9a8d82d3af1ca84e927b629c822189a8e7671738b82fdb9",
        "76514d2a6cbd2c57e59dc39e839887e7f74c971f1113b13aa7e71835ec296621"),
    "ul_ab_3_1_4": (31, (0, 1, 2, 5, 6, 13), 25,
        "da7044b7df6671608f19bd65c1a4e80f460f1656da01c2ab2cf16baf2fad2375",
        "7022c481ed512f85a98ceea14c29ee4a7c19c92e56e1d1a24f192c8c66b26dff"),
}


@pytest.mark.parametrize("name", sorted(QUOTIENT_PINS))
def test_sparse_quotient_matches_the_dense_reducer(name):
    pres = _quotient_cases()[name]()
    dim, normal, rank, proj_sha, rels_sha = QUOTIENT_PINS[name]
    assert pres.ambient.dim == dim
    assert pres.normal_indices == normal
    assert pres.ideal_rank == rank
    assert pres.projection.dtype == np.int64
    assert pres.projection.shape == (dim, dim)
    assert hashlib.sha256(pres.projection.tobytes()).hexdigest() == proj_sha
    assert hashlib.sha256(repr(pres.relations).encode()).hexdigest() == rels_sha


def _random_homogeneous(rng, F, degree, count):
    monos = [i for i, deg in enumerate(F.degrees) if deg == degree]
    return [{i: rng.randrange(1, F.p) for i in rng.sample(monos, 2)}
            for _ in range(count)]


@pytest.mark.parametrize("p", [2, 3])
def test_homogeneous_ideal_rank_matches_fixed_point_oracle(p):
    rng = random.Random(40 + p)
    monos, idx, dias_tabs = naive_dias_tables(1, 4)
    F = free_dias(1, 4, p)
    words, widx, word_tabs = naive_word_tables(2, 3)
    W = word_ambient(2, 3, p)
    Z = free_zinbiel(2, 3, p)
    zin_tabs = [Z.to_algebra().structure("zinbiel").tolist()]
    for ambient, tables, to_oracle in (
        (F, dias_tabs, lambda i: idx[F.basis[i]]),
        (W, word_tabs, lambda i: widx[W.basis[i]]),
        (Z, zin_tabs, lambda i: i),
    ):
        for _ in range(3):
            rels = _random_homogeneous(rng, ambient, 2, rng.randrange(1, 3))
            rows = []
            for rel in rels:
                row = [0] * ambient.dim
                for i, c in rel.items():
                    row[to_oracle(i)] = c
                rows.append(row)
            pres = truncated_ideal_quotient(ambient, rels)
            assert pres.ideal_rank == ideal_rank_fixed_point(tables, rows, p)


# -- basis sizes before enumeration ----------------------------------------------


def _counted(kind, ngen, cap, unital):
    start = 0 if unital else 1
    count = 0
    for n in range(start, cap + 1):
        for _ in itertools.product(range(ngen), repeat=n):
            count += n if kind == "dias" else 1
    return count


@pytest.mark.parametrize("kind", ["dias", "assoc", "zinbiel"])
def test_closed_form_basis_size_matches_enumeration(kind):
    for ngen in range(4):
        for cap in range(1, 6):
            for unital in ((False, True) if kind == "assoc" else (False,)):
                F = GradedBasisAlgebra(kind, ngen, cap, 2, unital=unital)
                size = basis_size(kind, ngen, cap, unital)
                assert size == len(F.basis) == _counted(kind, ngen, cap, unital)


def test_basis_size_stops_at_the_first_degree_past_the_bound(monkeypatch):
    assert basis_size("assoc", 1, 20000) == 20000
    with monkeypatch.context() as m:
        m.setattr(free_structures, "BASIS_SIZE_BOUND", 100)
        with pytest.raises(UsageError, match="126 monomials up to degree 6 exceed bound 100"):
            basis_size("assoc", 2, 10**9)
    with pytest.raises(UsageError, match="exceed bound 20000"):
        basis_size("dias", 3, 10**9)
    assert basis_size("assoc", 0, 10**9, unital=True) == 1
    assert basis_size("dias", 0, 10**9) == 0


def test_oversized_basis_refused_before_any_monomial(monkeypatch):
    def enumerate_basis(self):
        raise AssertionError("enumerated an oversized basis")

    monkeypatch.setattr(GradedBasisAlgebra, "_enumerate_basis", enumerate_basis)
    for build in (lambda: word_ambient(4, 10, 2), lambda: free_dias(3, 7, 2),
                  lambda: free_zinbiel(2, 100000, 3)):
        with pytest.raises(UsageError, match="exceed bound 20000"):
            build()
