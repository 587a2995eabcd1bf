"""The benchmark workloads: fixed inputs, timed operations, correctness gates.

A workload is made of parts.  Each part is a function
``part(seed, index, reference)`` returning the ``Pass`` with that index in a
run: a list of operations to time and a gate that checks their outputs.
``build`` joins a workload's parts into one pass.  Inputs
are built here, from the benchmark's own parameter lists, so a later change
to the package's grid helpers cannot change what is measured.  Package
functions are always looked up through their module at call time, so the
tracer's wrappers (installed after set-up) see every call.

The reference digests in ``reference/`` are the exact Betti tables pinned by
``pin.py``; the gates compare every output against them or against a check
that does not depend on either Betti route.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from typing import Callable

import pathideal.betti as betti
import pathideal.fields as fields
import pathideal.monomials as monomials
import pathideal.pathfamily as pathfamily
import pathideal.splitting as splitting
import pathideal.sweep as sweep
import pathideal.topology as topology
from pathideal.caps import CapExceeded


# Input-set sizes.  They are set so that one part takes 1.5 to 5 seconds on
# a 2-vCPU host, which gives each run several fresh-interpreter passes to
# take medians over.
VERIFY_N_MAX = 18
CROSSVAL_N_MAX = 10
CERTS_N_MAX = 16
RANDOM_COUNT = 60
RANDOM_N = 10


class GateFailure(Exception):
    """An output that differs from its reference or fails its identity check."""


@dataclass
class Op:
    """One timed operation.  ``run`` returns the output the gate checks."""

    key: str
    run: Callable[[], object]


@dataclass
class Pass:
    ops: list[Op]
    check: Callable[[dict[str, object]], int]  # outputs by key -> checks made


def ideal_key(ideal) -> str:
    """Stable text key of an ideal: ambient size and generator bitmasks."""
    return f"n={ideal.n};" + ",".join(str(g) for g in ideal.gen_masks())


def path_grid(m_max: int, n_max: int) -> list[tuple[int, int, int]]:
    """All (m, l, k) with 2 <= m <= m_max, 1 <= l < m and k(m-l)+l <= n_max."""
    grid = []
    for m in range(2, m_max + 1):
        for l in range(1, m):
            k = 1
            while k * (m - l) + l <= n_max:
                grid.append((m, l, k))
                k += 1
    return grid


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise GateFailure(message)


def _check_pinned(outputs: dict[str, object], reference: dict[str, str]) -> int:
    """Every produced digest equals its pinned reference digest."""
    checked = 0
    for key, digest in outputs.items():
        _require(key in reference, f"{key}: no pinned reference digest")
        _require(digest == reference[key], f"{key}: digest {digest} != pinned {reference[key]}")
        checked += 1
    return checked


# ---------------------------------------------------------------------------
# verify-sweep: the `verify` path, one sweep record per (m, l, k)
# ---------------------------------------------------------------------------


def sweep_record(params) -> dict:
    """One `verify` record; a record skipped at a cap counts as a failed op."""
    record = sweep.evaluate_instance(params, fields.GF2)
    if record["status"] == "skipped":
        raise CapExceeded(record["reason"])
    return record


def verify_sweep(seed: int, index: int, reference: dict[str, str]) -> Pass:
    ops = [
        Op(f"{m},{l},{k}", lambda p=pathfamily.PathParams(m, l, k): sweep_record(p))
        for m, l, k in path_grid(6, VERIFY_N_MAX)
    ]

    def check(outputs: dict[str, object]) -> int:
        digests = {}
        for key, record in outputs.items():
            _require(record["status"] == "ok", f"{key}: status {record['status']}")
            for flag in ("match_pd", "match_reg", "match_depth"):
                _require(record[flag] is not False, f"{key}: formula mismatch on {flag}")
            digests[key] = record["betti_digest"]
        return _check_pinned(digests, reference)

    return Pass(ops, check)


# ---------------------------------------------------------------------------
# crossval-exact: `betti --method both` over GF(3) and the rationals
# ---------------------------------------------------------------------------


def crossval_ideals(n_max: int) -> list:
    """The route cross-validation instance set (path ideals with n <= 12 and
    k <= 10 for m <= 5, plus all-paths ideals for m <= 4), cut to n <= n_max."""
    ideals = {
        pathfamily.make_path_ideal(pathfamily.PathParams(m, l, k))
        for m, l, k in path_grid(5, 12)
        if k <= 10
    }
    ideals |= {
        pathfamily.make_full_path_ideal(m, n)
        for m in range(2, 5)
        for n in range(m, 13)
        if n - m + 1 <= 10
    }
    chosen = [ideal for ideal in ideals if ideal.n <= n_max]
    return sorted(chosen, key=lambda ideal: (ideal.n, ideal.gen_masks()))


def crossval_exact(seed: int, index: int, reference: dict[str, str]) -> Pass:
    ops = [
        Op(
            f"{field_spec.label}|{ideal_key(ideal)}",
            lambda i=ideal, f=field_spec: betti.betti_table(i, f, method="both").digest(),
        )
        for field_spec in (fields.FieldSpec(3), fields.QQ)
        for ideal in crossval_ideals(CROSSVAL_N_MAX)
    ]
    return Pass(ops, lambda outputs: _check_pinned(outputs, reference))


# ---------------------------------------------------------------------------
# random-ideals: `betti --ideal` on seeded random squarefree ideals
# ---------------------------------------------------------------------------


def random_ideals(seed: int, index: int, count: int = RANDOM_COUNT, n: int = RANDOM_N) -> list:
    """Random ideals with at least n minimal generators of degree 2-4 and
    full support, so that `auto` takes the Hochster route.

    Each pass of a run draws its own ideals from (seed, pass index): the
    cost of one draw of 60 ideals varies by several percent, and medians
    over passes average that variation out of the run's figures.
    """
    rng = random.Random(f"{seed}:{index}")
    out = []
    while len(out) < count:
        k = rng.randint(n, 2 * n)
        gens = [
            monomials.Monomial.from_vars(rng.sample(range(1, n + 1), rng.randint(2, 4)))
            for _ in range(k)
        ]
        ideal = monomials.minimalize(n, gens)
        if len(ideal.gens) >= n and ideal.support == (1 << n) - 1:
            out.append(ideal)
    return out


def k_polynomial_defect(gen_masks: tuple[int, ...], n: int, entries: dict) -> list[int]:
    """Coefficients of  sum_F t^|F| (1-t)^(n-|F|) - (1 - sum (-1)^i b_ij t^j).

    F runs over the faces of the Stanley-Reisner complex (the subsets that
    contain no generator).  The numerator of the Hilbert series of S/I
    equals both sides, so a correct table leaves all coefficients zero.
    The check uses neither Betti route.
    """
    face_sizes = [0] * (n + 1)
    for f in range(1 << n):
        if all(f & g != g for g in gen_masks):
            face_sizes[f.bit_count()] += 1
    coeffs = [0] * (n + 1)
    for size, count in enumerate(face_sizes):
        for e in range(n - size + 1):
            coeffs[size + e] += count * comb(n - size, e) * (-1) ** e
    coeffs[0] -= 1
    for (i, j), b in entries.items():
        if j > n:
            return [1]
        coeffs[j] += (-1) ** i * b
    return coeffs


def random_ideals_workload(seed: int, index: int, reference: dict[str, str]) -> Pass:
    # keyed by position, so that a run has 60 operation slots however many
    # passes (draws) it makes
    by_key = {str(position): ideal for position, ideal in enumerate(random_ideals(seed, index))}
    ops = [Op(key, lambda i=ideal: betti.betti_table(i, fields.GF2)) for key, ideal in by_key.items()]

    def check(outputs: dict[str, object]) -> int:
        for key, table in outputs.items():
            ideal = by_key[key]
            entries = table.entries
            defect = k_polynomial_defect(ideal.gen_masks(), ideal.n, entries)
            _require(not any(defect), f"{ideal_key(ideal)}: K-polynomial identity fails")
            row0 = {j: b for (i, j), b in entries.items() if i == 0}
            _require(row0 == ideal.degree_histogram(), f"{ideal_key(ideal)}: column 0 is not the generators")
        return len(outputs)

    return Pass(ops, check)


# ---------------------------------------------------------------------------
# certs: the `cert` and `split` certificates along the path family
# ---------------------------------------------------------------------------


def cert_bundle(m: int, l: int, k: int) -> dict[str, bool]:
    """All certificates that apply at one grid point, by name."""
    params = pathfamily.PathParams(m, l, k)
    ideal = pathfamily.make_path_ideal(params)
    clutter = topology.clutter_of(ideal)
    verdicts = {}
    if params.n <= 9:
        verdicts["free_vertex"] = topology.free_vertex_property(clutter)[0]
    cx = topology.cover_complex(clutter)
    verdicts["cover_complex"] = not cx.is_void
    if len(cx.facets) <= 12:
        verdicts["shelling"] = topology.find_shelling(cx) is not None
    if params.n <= 8:
        verdicts["seq_cm"] = topology.is_sequentially_cm(cx, fields.GF2)
    if k >= 2:
        older = monomials.MonomialIdeal(ideal.n, ideal.gens[:-1])
        newest = monomials.MonomialIdeal(ideal.n, ideal.gens[-1:])
        verdicts["splitting"] = splitting.is_betti_splitting(ideal, older, newest, fields.GF2).verdict
    return verdicts


def certs(seed: int, index: int, reference: dict[str, str]) -> Pass:
    ops = [
        Op(f"{m},{l},{k}", lambda m=m, l=l, k=k: cert_bundle(m, l, k))
        for m, l, k in path_grid(6, CERTS_N_MAX)
    ]

    def check(outputs: dict[str, object]) -> int:
        checked = 0
        for key, verdicts in outputs.items():
            for name, verdict in verdicts.items():
                _require(verdict is True, f"{key}: certificate {name} is {verdict!r}")
                checked += 1
        return checked

    return Pass(ops, check)


PARTS = {
    "verify-sweep": verify_sweep,
    "crossval-exact": crossval_exact,
    "random-ideals": random_ideals_workload,
    "certs": certs,
}

# Two workloads of two parts each.  Fewer, longer runs average out more of
# the host's speed drift than four short ones; the grouping keeps, for each
# change the roadmap plans, one workload that exercises it and one that
# bypasses it.
WORKLOADS = {
    "path-family": ("verify-sweep", "certs"),
    "exact-tables": ("crossval-exact", "random-ideals"),
}


def build(workload: str, seed: int, index: int, references: dict[str, dict[str, str]]) -> Pass:
    """One pass over every part of the workload; op keys are prefixed by part."""
    parts = {name: PARTS[name](seed, index, references.get(name, {})) for name in WORKLOADS[workload]}
    ops = [Op(f"{name}/{op.key}", op.run) for name, part in parts.items() for op in part.ops]

    def check(outputs: dict[str, object]) -> int:
        checked = 0
        for name, part in parts.items():
            prefix = f"{name}/"
            checked += part.check({key[len(prefix):]: out for key, out in outputs.items()
                                   if key.startswith(prefix)})
        return checked

    return Pass(ops, check)
