"""Path-ideal construction, regime classification and the closed forms."""

import pytest

from pathideal.monomials import Monomial, MonomialIdeal, ideal_from_text, minimalize
from pathideal.pathfamily import (
    Branch,
    PathParams,
    classify,
    classify_branch,
    formula_depth,
    formula_full_path,
    formula_pd,
    formula_reg,
    formula_result,
    make_full_path_ideal,
    make_path_ideal,
)


def all_params(m_max, n_max):
    for m in range(2, m_max + 1):
        for l in range(1, m):
            k = 1
            while True:
                params = PathParams(m, l, k)
                if params.n > n_max:
                    break
                yield params
                k += 1


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_make_path_ideal_examples():
    assert make_path_ideal(PathParams(3, 1, 2)) == ideal_from_text(
        "n=5; (x1*x2*x3, x3*x4*x5)"
    )
    assert make_path_ideal(PathParams(2, 1, 3)) == ideal_from_text(
        "n=4; (x1*x2, x2*x3, x3*x4)"
    )
    assert make_path_ideal(PathParams(4, 2, 1)) == ideal_from_text("n=4; (x1*x2*x3*x4)")


def test_generator_supports_are_shifted_intervals():
    for params in all_params(6, 14):
        ideal = make_path_ideal(params)
        assert len(ideal.gens) == params.k
        for i, g in enumerate(ideal.gens, start=1):
            start = (i - 1) * (params.m - params.l) + 1
            assert g.vars == tuple(range(start, start + params.m))
        for a, b in zip(ideal.gens, ideal.gens[1:]):
            assert (a.mask & b.mask).bit_count() == params.l


def test_direct_build_is_the_minimalized_family():
    """The generators built in canonical form are the ones minimalize finds
    from the raw intervals."""
    for params in all_params(10, 60):
        step = params.m - params.l
        raw = [Monomial.from_vars(range(i * step + 1, i * step + params.m + 1))
               for i in range(params.k)]
        assert make_path_ideal(params) == minimalize(params.n, raw), params


def test_constructor_refuses_path_generators_out_of_canonical_form():
    for params in all_params(6, 20):
        gens = make_path_ideal(params).gens
        if params.k > 1:
            with pytest.raises(ValueError, match="canonically sorted"):
                MonomialIdeal(params.n, gens[::-1])
        with pytest.raises(ValueError, match="canonically sorted"):
            MonomialIdeal(params.n, gens + gens[-1:])


def test_make_full_path_ideal_examples():
    assert make_full_path_ideal(2, 4) == ideal_from_text("n=4; (x1*x2, x2*x3, x3*x4)")
    assert make_full_path_ideal(3, 5) == ideal_from_text(
        "n=5; (x1*x2*x3, x2*x3*x4, x3*x4*x5)"
    )
    assert make_full_path_ideal(4, 4) == ideal_from_text("n=4; (x1*x2*x3*x4)")


def test_full_path_matches_param_family():
    # the family member l = m-1 is the ideal of all n-m+1 windows of length m
    for m in range(2, 7):
        for n in range(m, 15):
            windows = [Monomial(((1 << m) - 1) << i) for i in range(n - m + 1)]
            assert make_full_path_ideal(m, n) == minimalize(n, windows)


def test_bad_params_rejected():
    with pytest.raises(ValueError):
        PathParams(3, 3, 2)  # l = m collapses all generators
    with pytest.raises(ValueError):
        PathParams(3, 0, 2)
    with pytest.raises(ValueError):
        PathParams(1, 1, 2)
    with pytest.raises(ValueError):
        PathParams(3, 1, 0)
    with pytest.raises(ValueError):
        make_full_path_ideal(5, 4)


# ---------------------------------------------------------------------------
# regimes
# ---------------------------------------------------------------------------


def test_classify_examples():
    assert classify_branch(3, 1) is Branch.SMALL_OVERLAP
    regime = classify(PathParams(2, 1, 3))
    assert regime.branch is Branch.EXACT_STEP
    assert (regime.s, regime.p, regime.d) == (0, 1, 1)
    regime = classify(PathParams(5, 3, 2))
    assert regime.branch is Branch.OFFSET_STEP
    assert (regime.s, regime.p, regime.d) == (1, 1, 1)


def test_branches_partition_all_legal_pairs():
    for m in range(2, 20):
        for l in range(1, m):
            branch = classify_branch(m, l)
            small = l < -(-m // 2)
            exact = not small and m % (m - l) == 0
            offset = not small and m % (m - l) != 0
            assert [small, exact, offset].count(True) == 1
            assert {
                Branch.SMALL_OVERLAP: small,
                Branch.EXACT_STEP: exact,
                Branch.OFFSET_STEP: offset,
            }[branch]


def test_decomposition_is_exact():
    for params in all_params(8, 30):
        regime = classify(params)
        if regime.branch is Branch.SMALL_OVERLAP:
            assert regime.p is None and regime.d is None
        else:
            assert regime.p * regime.period + regime.d == params.n
            assert 0 <= regime.d < regime.period


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_formula_pd_examples():
    assert formula_pd(PathParams(3, 1, 2)) == 1
    assert formula_pd(PathParams(2, 1, 3)) == 1
    for m in range(2, 7):
        for l in range(1, m):
            assert formula_pd(PathParams(m, l, 1)) == 0


def test_formula_reg_examples():
    assert formula_reg(PathParams(3, 1, 2)) == 4
    assert formula_reg(PathParams(2, 1, 3)) == 2
    assert formula_reg(PathParams(5, 3, 2)) is None


def test_reg_unknown_exactly_in_offset_regime():
    for params in all_params(8, 25):
        unknown = formula_reg(params) is None
        assert unknown == (classify(params).branch is Branch.OFFSET_STEP)


def test_formula_depth_examples():
    assert formula_depth(PathParams(4, 1, 3)) == 8  # n=10, n-k+1
    assert formula_depth(PathParams(2, 1, 3)) == 3  # 4+2-ceil(5/3)-floor(5/3)
    for m in range(2, 7):
        for l in range(1, m):
            params = PathParams(m, l, 1)
            assert formula_depth(params) == params.n


def test_depth_equals_n_minus_pd_everywhere():
    # exercises the ceil/floor identities behind the depth formulas
    for params in all_params(9, 40):
        assert formula_depth(params) == params.n - formula_pd(params)


def test_formula_full_path_examples():
    result = formula_full_path(2, 4)
    assert (result.pd, result.reg) == (1, 2)
    for m in range(2, 8):
        result = formula_full_path(m, m)
        assert (result.pd, result.reg) == (0, m)
    result = formula_full_path(3, 8)
    assert (result.pd, result.reg) == (3, 5)


def test_full_path_formula_agrees_with_family_at_max_overlap():
    # the classical all-paths closed forms, from n = p(m+1) + d with 0 <= d <= m
    for m in range(2, 14):
        for n in range(m, 260):
            p, d = divmod(n, m + 1)
            pd = 2 * p - 1 if d != m else 2 * p
            reg = p * (m - 1) + (1 if d != m else m)
            depth = n + 2 - -(-(n + 1) // (m + 1)) - (n + 1) // (m + 1)
            full = formula_full_path(m, n)
            assert (full.pd, full.reg, full.depth_I, full.depth_RI) == (pd, reg, depth, depth - 1)
            assert full == formula_result(PathParams(m, m - 1, n - m + 1))


def test_depth_conventions_differ_by_one():
    for params in all_params(6, 20):
        result = formula_result(params)
        assert result.depth_RI == result.depth_I - 1
