"""Fast tests of the benchmark's oracles, planted faults and tracer.

    python3 -m pytest perfbench -q
"""

import dataclasses
import itertools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracles as orc  # noqa: E402
import rlk  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402


# -- oracles -------------------------------------------------------------------------


def _words(nletters, cap):
    return [w for n in range(cap + 1) for w in itertools.product(range(nletters), repeat=n)]


def test_sandwich_ranks_reproduce_criterion_8():
    """Abelian 1-dim algebra, zero p-map, F_2, degree 3: dimension 4 with
    normal basis 1, l, r, rl, and ideal rank 11 of 15."""
    words = _words(2, 3)
    rels = orc.word_relations_abelian(1, 2)
    ranks = orc.sandwich_ranks(words, orc.word_degree, orc.word_product, rels, 2)
    assert sum(ranks.values()) == 11
    assert len(words) - sum(ranks.values()) == 4
    # degree 2: the ideal plus rl spans everything, so rl is the one survivor
    deg2 = [w for w in words if len(w) == 2]
    ideal = [[dict(r).get(w, 0) % 2 for w in deg2] for r in rels
             if r and all(len(w) == 2 for w in r)]
    rl = [int(w == (1, 0)) for w in deg2]
    assert orc.rank_mod(ideal, 2) == ranks[2] == 3
    assert orc.rank_mod(ideal + [rl], 2) == 4
    pres = rlk.ulp_truncated(rlk.Algebra(2, 1, {"bracket": np.zeros((1, 1, 1), dtype=np.int64)},
                                         {"zero": rlk.ZeroPMap()}), pmap="zero", d=3)
    assert pres.normal_basis == ((), (0,), (1,), (1, 0))
    assert workloads._degree_problems(pres, ranks, orc.word_degree) == []


@pytest.mark.parametrize("p, n, cap", [(2, 1, 3), (3, 1, 4), (2, 2, 3)])
def test_sandwich_ranks_match_ideal_rank_fixed_point_on_words(p, n, cap):
    ref = orc.suite
    words, idx, tables = ref.naive_word_tables(2 * n, cap)
    rels = orc.word_relations_abelian(n, p)
    rows = ref.word_rows(idx, [{w: c for w, c in r.items() if len(w) <= cap} for r in rels], p)
    want = ref.ideal_rank_fixed_point(tables, rows, p)
    ranks = orc.sandwich_ranks(words, orc.word_degree, orc.word_product, rels, p)
    assert sum(ranks.values()) == want


def test_sandwich_ranks_match_ideal_rank_fixed_point_on_dias():
    ref = orc.suite
    p, cap = 2, 3
    monos = [(tuple(u), 0, tuple(v)) for n in range(1, cap + 1) for k in range(n)
             for u in itertools.product(range(1), repeat=k)
             for v in itertools.product(range(1), repeat=n - 1 - k)]
    idx = {m: i for i, m in enumerate(monos)}
    d = len(monos)
    tables = []
    for which in (0, 1):
        c = [[[0] * d for _ in range(d)] for _ in range(d)]
        for a, b in itertools.product(monos, repeat=2):
            if orc.dias_degree(a) + orc.dias_degree(b) <= cap:
                m, coeff = orc.dias_products(a, b)[which]
                c[idx[a]][idx[b]][idx[m]] = coeff
        tables.append(c)
    rels = orc.dias_relations_abelian(1, p)
    rows = []
    for r in rels:
        row = [0] * d
        for m, coeff in r.items():
            row[idx[m]] = (row[idx[m]] + coeff) % p
        if any(row):
            rows.append(row)
    want = ref.ideal_rank_fixed_point(tables, rows, p)
    ranks = orc.sandwich_ranks(monos, orc.dias_degree, orc.dias_products, rels, p)
    assert sum(ranks.values()) == want


def test_evaluation_oracles_find_the_truncation_fault():
    """The two examples of the envelope fault: 9 of 34 dias monomials and 6 of
    85 words disagree with their projections; criterion 8's input has none."""
    cl, cr = orc.l2_dialgebra()
    pres = rlk.ud_p(workloads._dleib(2, cl, cr), d=3)
    images = workloads._in_dialgebra(cl, cr, 2)(pres.ambient.basis)
    assert (orc.projection_mismatches(images, pres.projection, 2), pres.ambient.dim) == (9, 34)
    pres = rlk.ulp_truncated(workloads._l2(2), d=3)
    images = workloads._on_adjoint(orc.l2_bracket(), 2)(pres.ambient.basis)
    assert (orc.projection_mismatches(images, pres.projection, 2), pres.ambient.dim) == (6, 85)
    pres = rlk.ulp_truncated(workloads._abelian(2, 1), pmap="zero", d=3)
    images = workloads._on_adjoint(np.zeros((1, 1, 1), dtype=np.int64), 2)(pres.ambient.basis)
    assert orc.projection_mismatches(images, pres.projection, 2) == 0


def test_known_fault_ops_accept_only_the_documented_symptom(tmp_path):
    """An envelope operation with the truncation fault may fail only by today's
    monomial mismatches; an error, a broken projection or a worse quotient is
    unexpected."""
    faulty = [op for op in workloads.build("envelope", 7, tmp_path) if op.known_fault]
    assert [op.name for op in faulty][3] == "ulp_truncated(L2/F2, d=3)"
    assert len(faulty) == 6

    def known(problems):
        return bool(problems) and all(isinstance(pr, workloads.KnownFault) for pr in problems)

    for op in faulty:
        assert known(op.check(workloads.call(op))), op.name
    op = faulty[3]
    pres = workloads.call(op)
    n = pres.ambient.dim
    broken = [
        workloads.Raised("UsageError", "refused"),
        dataclasses.replace(pres, projection=np.zeros_like(pres.projection)),
        dataclasses.replace(pres, projection=np.eye(n, dtype=np.int64)),
        dataclasses.replace(pres, ideal_rank=pres.ideal_rank + 1),
    ]
    for out in broken:
        assert not known(op.check(out))


def test_jacobson_terms_satisfy_the_associative_identity():
    p = 3
    c = orc.to_lists(orc.matrix_assoc(2))
    comm = orc.to_lists((orc.matrix_assoc(2) - orc.matrix_assoc(2).transpose(1, 0, 2)) % p)
    for x, y in itertools.islice(itertools.product(itertools.product(range(p), repeat=4),
                                                   repeat=2), 0, 6561, 97):
        total = orc.add(orc.right_power(c, x, p), orc.right_power(c, y, p), p)
        for s in orc.jacobson_terms(lambda u, v: orc.multiply(comm, u, v, p), x, y, p):
            total = orc.add(total, s, p)
        assert total == orc.right_power(c, orc.add(x, y, p), p)


# -- planted violations ------------------------------------------------------------------


def _tamper(out):
    """The same output with a failure count one lower, as a check that skipped
    work would report."""
    if isinstance(out, workloads.CliResult):
        doc = json.loads(out.stdout)
        doc["checks"][-1]["failure_count"] -= 1
        return dataclasses.replace(out, stdout=json.dumps(doc))
    return dataclasses.replace(out, failure_count=out.failure_count - 1)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_planted_violations_match_brute_force_counts(name, tmp_path):
    planted = [op for op in workloads.build(name, 7, tmp_path) if "planted" in op.name]
    assert planted
    for op in planted:
        out = workloads.call(op)
        assert op.check(out) == [], op.name
        assert op.check(_tamper(out)), op.name


# -- tracer ----------------------------------------------------------------------------


def _bindings():
    out = {}
    for modname, mod in sys.modules.items():
        if modname == "rlk" or modname.startswith("rlk."):
            for attr, value in vars(mod).items():
                out[(modname, attr)] = value
                if isinstance(value, type) and value.__module__ == modname:
                    for k, v in vars(value).items():
                        out[(modname, attr, k)] = v
    return out


def test_tracer_restores_every_wrapped_function():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tr.Tracer() as t:
            assert rlk.identities.stack_mat_pow is not before[("rlk.identities", "stack_mat_pow")]
            assert rlk.prelie_tensor.stack_mat_pow is rlk.algebra_core.stack_mat_pow
            g = workloads._abelian(2, 2)
            t.run_op(0, "probe", lambda: rlk.check_restricted_leibniz(g, pmap="zero"))
            raise RuntimeError("leave the block early")
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    assert t.totals["identities.restricted_sweep"][0] == 1
    assert t.counters["identities.restricted_sweep.elements"] == 4


def test_tracer_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(name, unit, better) for name, unit, better, _ in tr.METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_refuses_a_directory_without_sources(tmp_path):
    res = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "restricted",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode == 2 and res.stdout == ""
