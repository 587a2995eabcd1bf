"""Betti splittings, the fixed-variable condition, additivity identities."""

import random

import pytest

from pathideal import splitting
from pathideal.betti import betti_table, invariants_of
from pathideal.fields import GF2, QQ
from pathideal.monomials import (
    Monomial,
    MonomialIdeal,
    ideal_from_text,
    ideal_intersect,
    ideal_product_disjoint,
    ideal_sum,
    minimalize,
)
from pathideal.pathfamily import Branch, PathParams, classify, make_path_ideal
from pathideal.splitting import (
    fht_condition,
    has_linear_resolution,
    is_betti_splitting,
    splitting_invariant_bounds,
    verify_disjoint_identities,
)


def split_last_generator(params):
    ideal = make_path_ideal(params)
    return ideal, MonomialIdeal(ideal.n, ideal.gens[:-1]), MonomialIdeal(
        ideal.n, ideal.gens[-1:]
    )


# ---------------------------------------------------------------------------
# linear resolutions
# ---------------------------------------------------------------------------


def test_linear_resolution_examples():
    assert has_linear_resolution(ideal_from_text("n=5; (x3*x4*x5)"))
    assert has_linear_resolution(ideal_from_text("n=3; (x1*x2, x2*x3)"))
    assert not has_linear_resolution(ideal_from_text("n=4; (x1*x2, x3*x4)"))
    with pytest.raises(ValueError):
        has_linear_resolution(MonomialIdeal(3, ()))


def test_mixed_degrees_are_not_linear_without_a_table(monkeypatch):
    calls = []
    monkeypatch.setattr(splitting, "betti_table", lambda *a: calls.append(a))
    assert not has_linear_resolution(ideal_from_text("n=4; (x1*x2, x2*x3*x4)"))
    assert calls == []


# ---------------------------------------------------------------------------
# splitting identity
# ---------------------------------------------------------------------------


def test_splitting_examples():
    ideal, j, k = split_last_generator(PathParams(3, 1, 2))
    case = is_betti_splitting(ideal, j, k)
    assert case.verdict and case.witness is None

    triangle = ideal_from_text("n=3; (x1*x2, x1*x3, x2*x3)")
    j = MonomialIdeal(3, triangle.gens[:2])
    k = MonomialIdeal(3, triangle.gens[2:])
    case = is_betti_splitting(triangle, j, k)
    assert case.verdict
    assert ideal_intersect(j, k) == ideal_from_text("n=3; (x1*x2*x3)")

    path = ideal_from_text("n=4; (x1*x2, x2*x3, x3*x4)")
    j = ideal_from_text("n=4; (x1*x2, x3*x4)")
    k = ideal_from_text("n=4; (x2*x3)")
    case = is_betti_splitting(path, j, k)
    assert not case.verdict
    assert case.witness == (1, 4)


def test_splitting_rejects_non_partitions():
    ideal = ideal_from_text("n=4; (x1*x2, x2*x3, x3*x4)")
    j = ideal_from_text("n=4; (x1*x2)")
    k = ideal_from_text("n=4; (x2*x3)")
    with pytest.raises(ValueError):
        is_betti_splitting(ideal, j, k)
    with pytest.raises(ValueError):
        is_betti_splitting(ideal, ideal, MonomialIdeal(4, ()))


# ---------------------------------------------------------------------------
# fixed-variable condition
# ---------------------------------------------------------------------------


def test_fht_examples():
    ideal = make_path_ideal(PathParams(3, 1, 2))
    got = fht_condition(ideal, ideal.n)
    assert got.J == ideal_from_text("n=5; (x3*x4*x5)")
    assert got.applies and got.case is not None and got.case.verdict

    triangle = ideal_from_text("n=3; (x1*x2, x1*x3, x2*x3)")
    got = fht_condition(triangle, 1)
    assert got.J == ideal_from_text("n=3; (x1*x2, x1*x3)")
    assert got.applies and got.case.verdict

    mixed = ideal_from_text("n=4; (x1*x2*x3, x3*x4)")
    got = fht_condition(mixed, 4)
    assert got.J == ideal_from_text("n=4; (x3*x4)")
    assert got.applies and got.case.verdict


def test_fht_degenerate_partition_rejected():
    ideal = ideal_from_text("n=3; (x1*x2, x2*x3)")
    with pytest.raises(ValueError):
        fht_condition(ideal, 2)  # every generator divisible
    with pytest.raises(ValueError):
        fht_condition(ideal_from_text("n=4; (x1*x2, x2*x3)"), 4)  # none divisible


def test_fht_applies_implies_splitting_on_random_ideals():
    rng = random.Random(31415)
    tried = 0
    while tried < 60:
        n = rng.randint(3, 6)
        gens = [Monomial(rng.randint(1, (1 << n) - 1)) for _ in range(rng.randint(2, 4))]
        ideal = minimalize(n, gens)
        if len(ideal.gens) < 2 or not ideal.is_proper_nonzero:
            continue
        for var in range(1, n + 1):
            bit = 1 << (var - 1)
            div = [g for g in ideal.gens if g.mask & bit]
            if not div or len(div) == len(ideal.gens):
                continue
            got = fht_condition(ideal, var)
            if got.applies:
                assert got.case.verdict, (str(ideal), var)
        tried += 1


def test_max_formulas_when_splitting_holds():
    for params in [PathParams(2, 1, 4), PathParams(3, 1, 3), PathParams(3, 2, 5),
                   PathParams(4, 2, 3), PathParams(5, 3, 3)]:
        ideal, j, k = split_last_generator(params)
        case = is_betti_splitting(ideal, j, k)
        assert case.verdict
        ok_pd, ok_reg = splitting_invariant_bounds(case)
        assert ok_pd and ok_reg


# ---------------------------------------------------------------------------
# the structural form of J ∩ K along the family
# ---------------------------------------------------------------------------


def intersection_form(params):
    """Predicted J∩K: the last generator times a tail ideal plus one interval."""
    m, l, k = params.m, params.l, params.k
    step = m - l
    regime = classify(params)
    if regime.branch is Branch.SMALL_OVERLAP:
        tail = 2
    else:
        tail = (2 * m - l - regime.s) // step if regime.s else (2 * m - l) // step
    window = Monomial(((1 << step) - 1) << ((k - 2) * step))
    parts = [window]
    if k - tail >= 1:
        parts.extend(make_path_ideal(PathParams(m, l, k - tail)).gens)
    n = params.n
    factor = minimalize(n, parts)
    last = MonomialIdeal(n, make_path_ideal(params).gens[-1:])
    return ideal_product_disjoint(last, factor)


def test_intersection_matches_proof_form_across_regimes():
    for m in range(2, 6):
        for l in range(1, m):
            for k in range(2, 9):
                params = PathParams(m, l, k)
                if params.n > 14:
                    continue
                ideal, j, last = split_last_generator(params)
                assert ideal_intersect(j, last) == intersection_form(params), str(params)


# ---------------------------------------------------------------------------
# disjoint-variable identities
# ---------------------------------------------------------------------------


def test_disjoint_identity_examples():
    report = verify_disjoint_identities(
        ideal_from_text("n=4; (x1*x2)"), ideal_from_text("n=4; (x3*x4)")
    )
    assert report.ok
    assert report.pd_sum == (1, 1)
    assert report.reg_sum == (3, 3)
    assert report.reg_product == (4, 4)

    report = verify_disjoint_identities(
        ideal_from_text("n=2; (x1)"), ideal_from_text("n=2; (x2)")
    )
    assert report.ok and report.pd_sum[0] == 1 and report.reg_sum[0] == 1
    assert report.reg_product[0] == 2

    report = verify_disjoint_identities(
        ideal_from_text("n=5; (x1*x2, x2*x3)"), ideal_from_text("n=5; (x4*x5)")
    )
    assert report.ok and report.pd_sum == (2, 2)


def test_disjoint_identities_reject_overlap():
    with pytest.raises(ValueError):
        verify_disjoint_identities(
            ideal_from_text("n=3; (x1*x2)"), ideal_from_text("n=3; (x2*x3)")
        )


def random_disjoint_pair(rng, half=6):
    """Proper nonzero ideals on disjoint halves: <= 4 generators, <= 6 variables."""
    n = 2 * half
    while True:
        left = minimalize(
            n, [Monomial(rng.randint(1, (1 << half) - 1)) for _ in range(rng.randint(1, 4))]
        )
        right = minimalize(
            n,
            [
                Monomial(rng.randint(1, (1 << half) - 1) << half)
                for _ in range(rng.randint(1, 4))
            ],
        )
        if left.is_proper_nonzero and right.is_proper_nonzero:
            return left, right


def test_disjoint_identities_random_pairs():
    rng = random.Random(271828)
    for _ in range(50):
        left, right = random_disjoint_pair(rng)
        report = verify_disjoint_identities(left, right)
        assert report.ok, (str(left), str(right))


def test_verdicts_consistent_across_fields():
    ideal, j, k = split_last_generator(PathParams(3, 2, 4))
    for field in (GF2, QQ):
        case = is_betti_splitting(ideal, j, k, field)
        assert case.verdict
