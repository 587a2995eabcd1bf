"""Acceptance suite: one test per criterion, exact equality throughout.

Every check is exact integer arithmetic; there are no tolerances anywhere.
Each test prints a PASS line on success (run with -s to see them inline).
"""

import random
from pathlib import Path

from pathideal.betti import betti_hochster, betti_table, betti_taylor_tor, depth_of, invariants_of
from pathideal.fields import GF2, QQ
from pathideal.monomials import Monomial, MonomialIdeal, minimalize
from pathideal.pathfamily import (
    Branch,
    PathParams,
    classify,
    formula_full_path,
    formula_result,
    make_full_path_ideal,
    make_path_ideal,
)
from pathideal.splitting import (
    fht_condition,
    is_betti_splitting,
    splitting_invariant_bounds,
    verify_disjoint_identities,
)
from pathideal.sweep import iter_param_grid, open_problem_sweep
from pathideal.topology import (
    Clutter,
    clutter_of,
    cover_complex,
    find_shelling,
    free_vertex_property,
    is_sequentially_cm,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

SWEEP_GRID = list(iter_param_grid(2, 5, 13))

_TABLE_CACHE: dict = {}


def cached_table(ideal, field, method="auto"):
    if method == "auto":
        method = "hochster" if ideal.n <= len(ideal.gens) else "taylor"
    key = (ideal, field.label, method)
    if key not in _TABLE_CACHE:
        _TABLE_CACHE[key] = betti_table(ideal, field, method)
    return _TABLE_CACHE[key]


def report(line):
    print(line, flush=True)


def test_criterion_1_formula_sweep():
    """Closed forms match the oracle on the full grid (2<=m<=5, n<=13)."""
    assert len(SWEEP_GRID) == 68
    mismatches = []
    for params in SWEEP_GRID:
        ideal = make_path_ideal(params)
        table = cached_table(ideal, GF2)
        inv = invariants_of(table)
        depths = depth_of(ideal, table)
        formula = formula_result(params)
        if inv.pd != formula.pd:
            mismatches.append((params, "pd", formula.pd, inv.pd))
        if depths.depth_I != formula.depth_I:
            mismatches.append((params, "depth", formula.depth_I, depths.depth_I))
        if formula.reg is not None and inv.reg != formula.reg:
            mismatches.append((params, "reg", formula.reg, inv.reg))
        branch = classify(params).branch
        assert (formula.reg is None) == (branch is Branch.OFFSET_STEP)
    assert not mismatches, mismatches
    report(f"criterion 1 (formula sweep, {len(SWEEP_GRID)} instances): PASS")


def test_criterion_2_full_path_formulas():
    """All-paths ideals match their closed forms for 2<=m<=4, m<=n<=12."""
    checked = 0
    for m in range(2, 5):
        for n in range(m, 13):
            ideal = make_full_path_ideal(m, n)
            inv = invariants_of(cached_table(ideal, GF2))
            formula = formula_full_path(m, n)
            assert inv.pd == formula.pd, (m, n)
            assert inv.reg == formula.reg, (m, n)
            # exact consistency with the overlap-(m-1) member of the family
            family = formula_result(PathParams(m, m - 1, n - m + 1))
            assert (family.pd, family.reg, family.depth_I) == (
                formula.pd, formula.reg, formula.depth_I,
            ), (m, n)
            checked += 1
    report(f"criterion 2 (all-paths formulas, {checked} instances): PASS")


def test_criterion_3_oracle_cross_validation():
    """All three Betti routes produce identical tables over GF(2) and the rationals."""
    instances = {
        make_path_ideal(p) for p in SWEEP_GRID if p.n <= 12 and p.k <= 10
    }
    instances |= {
        make_full_path_ideal(m, n)
        for m in range(2, 5)
        for n in range(m, 13)
        if n - m + 1 <= 10
    }
    stable = True
    for ideal in sorted(instances, key=lambda i: (i.n, i.gen_masks())):
        per_field = {}
        for field in (GF2, QQ):
            via_homology = cached_table(ideal, field, "hochster")
            via_strands = cached_table(ideal, field, "taylor")
            assert via_homology == via_strands, (str(ideal), field.label)
            assert cached_table(ideal, field, "interval") == via_homology, (
                str(ideal), field.label,
            )
            per_field[field.label] = via_homology
        if per_field["GF(2)"] != per_field["QQ"]:
            stable = False  # recorded observation, not a failure
    report(
        f"criterion 3 (route cross-validation, {len(instances)} instances, "
        f"3 routes, 2 fields): PASS [tables GF(2)==QQ on family: {stable}]"
    )


def test_criterion_4_splitting_suite():
    """The last-generator split is a Betti splitting with all consequences."""
    checked = 0
    for params in SWEEP_GRID:
        if params.k < 2:
            continue
        ideal = make_path_ideal(params)
        older = MonomialIdeal(ideal.n, ideal.gens[:-1])
        newest = MonomialIdeal(ideal.n, ideal.gens[-1:])
        case = is_betti_splitting(ideal, older, newest, GF2)
        assert case.verdict, (str(params), case.witness)
        fht = fht_condition(ideal, ideal.n, GF2)
        assert fht.J == newest  # the last variable selects exactly the new generator
        assert fht.applies and fht.case is not None and fht.case.verdict, str(params)
        ok_pd, ok_reg = splitting_invariant_bounds(case)
        assert ok_pd and ok_reg, str(params)
        checked += 1
    report(f"criterion 4 (splitting suite, {checked} instances): PASS")


def test_criterion_5_disjoint_identities():
    """50 random disjoint pairs satisfy the three additivity identities."""
    rng = random.Random(0xD15C0)
    half = 6
    checked = 0
    while checked < 50:
        sides = []
        for lo in (0, half):
            gens = [
                Monomial(rng.randint(1, (1 << half) - 1) << lo)
                for _ in range(rng.randint(1, 4))
            ]
            sides.append(minimalize(2 * half, gens))
        left, right = sides
        if not left.is_proper_nonzero or not right.is_proper_nonzero:
            continue
        result = verify_disjoint_identities(left, right, GF2)
        assert result.ok, (str(left), str(right), result)
        checked += 1
    report("criterion 5 (disjoint additivity, 50 random pairs): PASS")


def test_criterion_6_topology_suite():
    """Free vertices, shellings and sequential CM along the family and beyond."""
    fvp_checked = shelled = seqcm_checked = 0
    for params in SWEEP_GRID:
        clutter = clutter_of(make_path_ideal(params))
        fvp = None
        if params.n <= 9:
            fvp, counterexample = free_vertex_property(clutter)
            assert fvp, (str(params), str(counterexample))
            fvp_checked += 1
        cx = cover_complex(clutter)
        order = None
        if len(cx.facets) <= 10:
            order = find_shelling(cx)
            assert order is not None, str(params)
            shelled += 1
        if params.n <= 7:
            seq_cm = is_sequentially_cm(cx, GF2)
            assert seq_cm, str(params)
            seqcm_checked += 1
            # the implication chain must never break
            if fvp:
                assert order is not None and seq_cm

    # random corpus, path and non-path clutters alike
    rng = random.Random(0x70B0)
    corpus_checked = 0
    for _ in range(40):
        n = rng.randint(2, 6)
        edges = [rng.randint(1, (1 << n) - 1) for _ in range(rng.randint(1, 4))]
        clutter = Clutter.from_edges(n, edges)
        cx = cover_complex(clutter)
        order = find_shelling(cx)
        if free_vertex_property(clutter)[0]:
            assert order is not None, str(clutter)
        if order is not None:
            assert is_sequentially_cm(cx, GF2), str(clutter)
        corpus_checked += 1
    report(
        "criterion 6 (topology suite: "
        f"{fvp_checked} free-vertex, {shelled} shellings, {seqcm_checked} seq-CM, "
        f"{corpus_checked} random clutters): PASS"
    )


def test_criterion_7_open_problem_dataset():
    """Every offset-step instance with n<=13 gets an oracle regularity value."""
    records = open_problem_sweep(n_max=13)
    seen = {(r["m"], r["l"], r["k"]) for r in records}
    for m in range(2, 14):
        for l in range(1, m):
            params_one = PathParams(m, l, 1)
            if classify(params_one).branch is not Branch.OFFSET_STEP:
                continue
            k = 1
            while PathParams(m, l, k).n <= 13:
                assert (m, l, k) in seen, (m, l, k)
                k += 1
    assert all(isinstance(r["reg_oracle"], int) for r in records)
    spot = [r for r in records if (r["m"], r["l"], r["k"]) == (5, 3, 2)]
    assert spot and spot[0]["reg_oracle"] == 6
    report(f"criterion 7 (open-problem dataset, {len(records)} records): PASS")


def test_criterion_8_golden_tables():
    """The two reference tables reproduce the golden files byte-exactly."""
    first = betti_table(make_path_ideal(PathParams(3, 1, 2)), GF2)
    second = betti_table(make_full_path_ideal(2, 4), GF2)
    golden_first = (GOLDEN_DIR / "betti_path_m3_l1_k2.txt").read_bytes()
    golden_second = (GOLDEN_DIR / "betti_all_paths_m2_n4.txt").read_bytes()
    assert first.to_text().encode() == golden_first
    assert second.to_text().encode() == golden_second
    assert first.entries == {(0, 3): 2, (1, 5): 1}
    assert second.entries == {(0, 2): 3, (1, 3): 2}
    report("criterion 8 (golden tables): PASS")
