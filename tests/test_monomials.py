"""Monomial and ideal algebra: spec examples, brute-force oracles, properties."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathideal.monomials import (
    Monomial,
    MonomialIdeal,
    contains,
    ideal_from_text,
    ideal_intersect,
    ideal_product_disjoint,
    ideal_sum,
    ideal_to_text,
    minimalize,
    monomial_from_text,
    monomial_to_text,
)
from pathideal.monomials import _canonical_sorted, _lex_key, _lex_less


def mono(*indices):
    return Monomial.from_vars(indices)


def ideal(n, *var_lists):
    return minimalize(n, [mono(*vs) for vs in var_lists])


def brute_minimal_members(n, member):
    """Independent oracle: minimal squarefree members of a membership predicate."""
    members = [w for w in range(1, 1 << n) if member(w)]
    minimal = []
    for w in members:
        if not any(v != w and v & w == v for v in members):
            minimal.append(w)
    return sorted(minimal)


# ---------------------------------------------------------------------------
# minimalize
# ---------------------------------------------------------------------------


def test_minimalize_absorbs_multiples():
    assert ideal(3, [1, 2], [1, 2, 3]) == ideal(3, [1, 2])


def test_minimalize_keeps_already_minimal():
    assert ideal(3, [1, 2, 3]).gens == (mono(1, 2, 3),)


def test_minimalize_drops_divisible_third():
    got = ideal(3, [1, 2], [2, 3], [1, 2, 3])
    assert got.gens == (mono(1, 2), mono(2, 3))


def test_minimalize_idempotent_and_shuffle_insensitive():
    rng = random.Random(20260810)
    for _ in range(200):
        n = rng.randint(1, 8)
        raw = [Monomial(rng.randint(0, (1 << n) - 1)) for _ in range(rng.randint(0, 6))]
        base = minimalize(n, raw)
        again = minimalize(n, base.gens)
        shuffled = raw[:]
        rng.shuffle(shuffled)
        assert again == base
        assert minimalize(n, shuffled) == base


@st.composite
def mixed_degree_families(draw, n_max=10):
    """Families with repeats, mostly spread over several degrees; some contain 1."""
    n = draw(st.integers(1, n_max))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12))
    # add multiples of drawn masks so that divisibility across degrees is common
    extra = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=len(masks)))
    return n, masks + [m | e for m, e in zip(masks, extra)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mixed_degree_families())
def test_minimalize_matches_brute_force_antichain(family):
    n, masks = family
    expected = sorted({m for m in masks
                       if not any(h != m and h & m == h for h in masks)},
                      key=lambda m: Monomial(m).vars)
    got = minimalize(n, [Monomial(m) for m in masks])
    assert got.gen_masks() == tuple(expected)
    assert MonomialIdeal(n, got.gens) == got


def test_minimalize_rejects_oversized_generator():
    with pytest.raises(ValueError):
        minimalize(3, [mono(4)])


def test_oversized_generator_error_names_the_lowest_degree_one():
    # x5 fits nowhere in 3 variables, nor does x1*x4*x5; the message names
    # the non-fitting generator of least degree, in either input order
    for raw in ([mono(1, 4, 5), mono(2), mono(5)], [mono(5), mono(2), mono(1, 4, 5)]):
        with pytest.raises(ValueError, match=r"^generator x5 does not fit ambient size 3$"):
            minimalize(3, raw)


def test_unit_monomial_absorbs_everything():
    got = minimalize(3, [mono(1, 2), Monomial(0)])
    assert got.is_unit


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_contains_examples():
    assert contains(ideal(3, [1, 2]), mono(1, 2, 3))
    assert not contains(ideal(3, [1, 2]), mono(1, 3))
    assert not contains(ideal(5, [1, 2, 3], [3, 4, 5]), mono(3, 4))


def test_contains_rejects_oversized_monomial():
    with pytest.raises(ValueError):
        contains(ideal(3, [1, 2]), mono(5))


# ---------------------------------------------------------------------------
# sum / intersection / product
# ---------------------------------------------------------------------------


def test_sum_examples():
    assert ideal_sum(ideal(3, [1, 2]), ideal(3, [2, 3])) == ideal(3, [1, 2], [2, 3])
    assert ideal_sum(ideal(3, [1, 2]), ideal(3, [1, 2, 3])) == ideal(3, [1, 2])
    got = ideal_sum(ideal(5, [1, 2, 3]), ideal(5, [3, 4, 5]))
    assert got == ideal(5, [1, 2, 3], [3, 4, 5])


def test_intersect_examples():
    assert ideal_intersect(ideal(3, [1, 2]), ideal(3, [2, 3])) == ideal(3, [1, 2, 3])
    got = ideal_intersect(ideal(5, [1, 2, 3]), ideal(5, [3, 4, 5]))
    assert got == ideal(5, [1, 2, 3, 4, 5])


def test_intersect_two_by_one_against_brute_force():
    # expected value derived by brute force over divisibility in 4 variables
    a = ideal(4, [1, 2], [3, 4])
    b = ideal(4, [2, 3])
    expected_masks = brute_minimal_members(
        4, lambda w: contains(a, Monomial(w)) and contains(b, Monomial(w))
    )
    got = ideal_intersect(a, b)
    assert list(got.gen_masks()) == sorted(expected_masks)
    assert got == ideal(4, [1, 2, 3], [2, 3, 4])


def test_product_disjoint_examples():
    got = ideal_product_disjoint(ideal(5, [3, 4, 5]), ideal(5, [1, 2]))
    assert got == ideal(5, [1, 2, 3, 4, 5])
    got = ideal_product_disjoint(ideal(3, [1]), ideal(3, [2], [3]))
    assert got == ideal(3, [1, 2], [1, 3])


def test_product_rejects_overlapping_support():
    with pytest.raises(ValueError, match="overlap"):
        ideal_product_disjoint(ideal(3, [1, 2]), ideal(3, [2, 3]))


def test_ambient_mismatch_rejected():
    with pytest.raises(ValueError, match="mismatch"):
        ideal_sum(ideal(3, [1, 2]), ideal(4, [1, 2]))


# ---------------------------------------------------------------------------
# membership algebra and algebraic laws on random data
# ---------------------------------------------------------------------------


def random_ideal(rng, n, max_gens=4):
    gens = [Monomial(rng.randint(1, (1 << n) - 1)) for _ in range(rng.randint(1, max_gens))]
    return minimalize(n, gens)


def test_membership_algebra_random():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(2, 7)
        a, b = random_ideal(rng, n), random_ideal(rng, n)
        inter = ideal_intersect(a, b)
        total = ideal_sum(a, b)
        for _ in range(20):
            w = Monomial(rng.randint(0, (1 << n) - 1))
            assert contains(inter, w) == (contains(a, w) and contains(b, w))
            assert contains(total, w) == (contains(a, w) or contains(b, w))


def test_sum_intersect_commutative_associative():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(2, 6)
        a, b, c = (random_ideal(rng, n) for _ in range(3))
        assert ideal_sum(a, b) == ideal_sum(b, a)
        assert ideal_intersect(a, b) == ideal_intersect(b, a)
        assert ideal_sum(ideal_sum(a, b), c) == ideal_sum(a, ideal_sum(b, c))
        assert ideal_intersect(ideal_intersect(a, b), c) == ideal_intersect(
            a, ideal_intersect(b, c)
        )


def test_product_membership_random():
    rng = random.Random(13)
    for _ in range(60):
        left_n, right_lo = 3, 4
        a = minimalize(6, [Monomial(rng.randint(1, 7)) for _ in range(2)])
        b = minimalize(6, [Monomial(rng.randint(1, 7) << right_lo - 1) for _ in range(2)])
        prod = ideal_product_disjoint(a, b)
        for _ in range(20):
            w = Monomial(rng.randint(0, 63))
            expected = any(
                g.lcm(h).divides(w) for g in a.gens for h in b.gens
            )
            assert contains(prod, w) == expected


# ---------------------------------------------------------------------------
# text forms
# ---------------------------------------------------------------------------


def test_monomial_text_roundtrip():
    m = mono(1, 2, 3)
    assert monomial_to_text(m) == "x1*x2*x3"
    assert monomial_from_text("x1*x2*x3") == m
    assert monomial_from_text("{1,2,3}") == m
    assert monomial_from_text("1") == Monomial(0)


@pytest.mark.parametrize("text", ["x1*x1", "x2*x1*x2", "{1,1,2}", "{3, 3}"])
def test_monomial_text_with_a_repeated_variable_is_refused(text):
    # x1*x1 is not squarefree; it must not be read as x1
    with pytest.raises(ValueError, match="repeats a variable"):
        monomial_from_text(text)
    with pytest.raises(ValueError, match="repeats a variable"):
        ideal_from_text(f"n=3; ({text})")


def test_ideal_text_roundtrip():
    i = ideal(5, [1, 2, 3], [3, 4, 5])
    text = ideal_to_text(i)
    assert text == "n=5; (x1*x2*x3, x3*x4*x5)"
    assert ideal_from_text(text) == i
    assert ideal_from_text("n=5; ({1,2,3}, {3,4,5})") == i
    assert ideal_from_text("n=3; (0)").is_zero


@st.composite
def minimalized_ideals(draw, n_max=12, max_gens=8):
    """Ideals from random squarefree families on 1..n: the zero ideal (empty
    family), the unit ideal (mask 0) and two-digit indices all occur."""
    n = draw(st.integers(1, n_max))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=max_gens))
    return minimalize(n, [Monomial(m) for m in masks])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(minimalized_ideals())
@example(MonomialIdeal(4, ()))
def test_ideal_text_roundtrip_property(i):
    text = ideal_to_text(i)
    assert ideal_from_text(text) == i, text
    compact = f"n={i.n}; (" + ", ".join(
        "{" + ",".join(map(str, g.vars)) + "}" for g in i.gens) + ")"
    assert ideal_from_text(compact) == i, compact


def test_canonical_order_is_lex_on_index_lists():
    i = ideal(4, [1, 3], [1, 2, 4], [2, 3])
    assert [g.vars for g in i.gens] == [(1, 2, 4), (1, 3), (2, 3)]


def test_strict_constructor_rejects_non_canonical():
    with pytest.raises(ValueError):
        MonomialIdeal(3, (mono(2, 3), mono(1, 2)))
    with pytest.raises(ValueError):
        MonomialIdeal(3, (mono(1), mono(1, 2)))
    with pytest.raises(ValueError, match="canonically sorted"):
        MonomialIdeal(3, (mono(1, 2, 3), mono(1, 2)))
    with pytest.raises(ValueError, match="canonically sorted"):
        MonomialIdeal(3, (mono(1, 2), mono(1, 2), mono(2, 3)))
    with pytest.raises(ValueError, match="antichain"):
        MonomialIdeal(4, (mono(1, 2), mono(1, 2, 3), mono(4)))
    with pytest.raises(ValueError, match="antichain"):
        MonomialIdeal(4, (mono(1, 3, 4), mono(3)))  # the divisor sorts last
    with pytest.raises(ValueError, match="antichain"):
        MonomialIdeal(2, (Monomial(0), mono(1)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, (1 << 12) - 1), max_size=8))
def test_monomial_order_is_lexicographic_on_index_lists(masks):
    monos = [Monomial(m) for m in masks]
    assert sorted(monos) == sorted(monos, key=lambda g: g.vars)
    for a in monos:
        for b in monos:
            assert (a < b) == (a.vars < b.vars)


def prefixes_and_extensions(masks):
    """The masks, with 0, each mask's prefixes (its lowest bits only) and
    each mask with one bit added above it."""
    out = {0}
    for m in masks:
        out.add(m)
        rest = m
        while rest:
            out.add(rest)
            rest &= ~(1 << rest.bit_length() - 1)
        out.add(m | 1 << m.bit_length())
    return sorted(out)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, (1 << 12) - 1), max_size=8))
@example([0, 0b1, 0b11, 0b111, 0b101])  # 0 and prefixes of one mask
def test_lex_key_order_is_the_lex_less_order(masks):
    family = prefixes_and_extensions(masks)
    for a in family:
        for b in family:
            assert (_lex_key(a) < _lex_key(b)) == _lex_less(a, b), (bin(a), bin(b))
    by_key = sorted(family, key=_lex_key)
    assert all(_lex_less(a, b) for a, b in zip(by_key, by_key[1:])), [bin(m) for m in by_key]
    assert _canonical_sorted(reversed(family)) == by_key
