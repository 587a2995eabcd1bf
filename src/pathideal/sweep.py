"""Parameter sweeps comparing closed-form invariants against computed tables.

Each instance record carries the parameters, the regime data, the formula
values, the oracle values read off an exact Betti table, a table digest and
three match flags.  An unknown formula value (regularity in the offset-step
regime) never counts as a mismatch.  Instances beyond the feasibility caps
are recorded as skipped with a reason, never dropped.

Reports are deterministic: records come in the grid's (m, l, k) order, and
timing is zeroed unless explicitly requested, so identical flags give
byte-identical output.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import sys
import time
from typing import Iterator, Optional

from .betti import BettiTable, betti_table, invariants_of
from .caps import STRAND_CAP_CELLS, SUBSET_CAP_N, CapExceeded
from .fields import GF2, FieldSpec
from .monomials import MonomialIdeal, ideal_to_text
from .pathfamily import (
    Branch,
    PathParams,
    _small_overlap_reg,
    classify,
    classify_branch,
    formula_result,
    make_path_ideal,
)

CSV_COLUMNS = [
    "m", "l", "k", "n", "regime", "p", "d", "s",
    "pd_formula", "pd_oracle", "reg_formula", "reg_oracle",
    "depth_formula", "depth_oracle",
    "match_pd", "match_reg", "match_depth", "millis",
]

OPEN_PROBLEM_COLUMNS = [
    "m", "l", "k", "n", "s", "p", "d",
    "pd_oracle", "reg_oracle", "reg_small_overlap_formula", "coincides",
]

_MATCH_KEYS = ("match_pd", "match_reg", "match_depth")


def _label(record: dict) -> str:
    """The ``m=M,l=L,k=K`` label of a record, as ``PathParams`` writes it."""
    return str(PathParams(record["m"], record["l"], record["k"]))


def _report_skips(records: list[dict]) -> None:
    for r in records:
        if r.get("status") == "skipped":
            print(f"skipped {_label(r)}: {r['reason']}", file=sys.stderr)


def iter_param_grid(
    m_min: int,
    m_max: int,
    n_max: int,
    l_fixed: Optional[int] = None,
    k_fixed: Optional[int] = None,
    k_max: Optional[int] = None,
) -> Iterator[PathParams]:
    """All legal (m, l, k) with n = k(m-l)+l <= n_max, in sorted order."""
    for m in range(m_min, m_max + 1):
        ls = [l_fixed] if l_fixed is not None else range(1, m)
        for l in ls:
            if not 1 <= l <= m - 1:
                continue
            ks = (k_fixed,) if k_fixed is not None else itertools.count(1)
            for k in ks:
                params = PathParams(m, l, k)
                if params.n > n_max or (k_max is not None and k > k_max):
                    break
                yield params


def _ideal_and_table(
    params: PathParams, field: FieldSpec, method: str, cap_n: int, cap_cells: int
) -> tuple[MonomialIdeal, Optional[BettiTable], str]:
    """The path ideal and its Betti table; beyond a cap the table is None
    and the reason is the cap's message."""
    ideal = make_path_ideal(params)
    try:
        return ideal, betti_table(ideal, field, method, cap_n=cap_n, cap_cells=cap_cells), ""
    except CapExceeded as exc:
        return ideal, None, str(exc)


def evaluate_instance(
    params: PathParams,
    field: FieldSpec,
    method: str = "auto",
    cap_n: int = SUBSET_CAP_N,
    cap_cells: int = STRAND_CAP_CELLS,
    timing: bool = False,
) -> dict:
    """One sweep record as a plain dict (JSON- and pickle-friendly)."""
    regime = classify(params)
    formula = formula_result(params)
    record = {
        "m": params.m, "l": params.l, "k": params.k, "n": params.n,
        "regime": regime.branch.value,
        "p": regime.p, "d": regime.d, "s": regime.s,
        "pd_formula": formula.pd,
        "reg_formula": formula.reg,
        "depth_formula": formula.depth_I,
        "pd_oracle": None, "reg_oracle": None, "depth_oracle": None,
        "betti_digest": None,
        "match_pd": None, "match_reg": None, "match_depth": None,
        "millis": 0, "status": "ok", "reason": "",
    }
    started = time.perf_counter()
    ideal, table, reason = _ideal_and_table(params, field, method, cap_n, cap_cells)
    if table is None:
        record["status"] = "skipped"
        record["reason"] = reason
        return record
    inv = invariants_of(table)
    depth = ideal.n - inv.pd  # the depth of the ideal as a module, as depth_of reads it
    record["pd_oracle"] = inv.pd
    record["reg_oracle"] = inv.reg
    record["depth_oracle"] = depth
    record["betti_digest"] = table.digest()
    record["match_pd"] = inv.pd == formula.pd
    record["match_reg"] = None if formula.reg is None else inv.reg == formula.reg
    record["match_depth"] = depth == formula.depth_I
    if timing:
        record["millis"] = round((time.perf_counter() - started) * 1000, 3)
    return record


def record_is_mismatch(record: dict) -> bool:
    return any(record[key] is False for key in _MATCH_KEYS)


def run_sweep(
    m_min: int,
    m_max: int,
    n_max: int,
    field: FieldSpec,
    method: str = "auto",
    l_fixed: Optional[int] = None,
    k_fixed: Optional[int] = None,
    k_max: Optional[int] = None,
    cap_n: int = SUBSET_CAP_N,
    cap_cells: int = STRAND_CAP_CELLS,
    jobs: int = 1,
    timing: bool = False,
) -> dict:
    """Sweep the grid and assemble a deterministic report dict."""
    grid = list(iter_param_grid(m_min, m_max, n_max, l_fixed, k_fixed, k_max))
    # PathParams and FieldSpec are frozen module-level dataclasses, so the
    # partial and the grid pickle as they are
    evaluate = functools.partial(
        evaluate_instance, field=field, method=method,
        cap_n=cap_n, cap_cells=cap_cells, timing=timing,
    )
    if jobs > 1:
        # imported here, where a pool is used: it pulls in logging, which
        # would slow down every start of the package
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(evaluate, grid))
    else:
        records = list(map(evaluate, grid))
    _report_skips(records)
    mismatches = [r for r in records if record_is_mismatch(r)]
    summary = {
        "instances": len(records),
        "ok": sum(1 for r in records if r["status"] == "ok"),
        "skipped": sum(1 for r in records if r["status"] == "skipped"),
        "mismatches": len(mismatches),
        "mismatch_params": [_label(r) for r in mismatches],
    }
    return {
        "field": field.label,
        "method": method,
        "records": records,
        "summary": summary,
    }


def open_problem_sweep(
    n_max: int = 13,
    field: FieldSpec = GF2,
    method: str = "auto",
    cap_n: int = SUBSET_CAP_N,
    cap_cells: int = STRAND_CAP_CELLS,
) -> list[dict]:
    """Oracle regularity for every offset-step instance with n <= n_max.

    No closed regularity formula is known in this regime; alongside the
    oracle value the record carries the small-overlap formula evaluated at
    the same parameters and whether the two coincide, as observational data.
    An instance beyond a cap is recorded with ``status`` "skipped", its
    ``reason`` and no oracle values, and reported on stderr.
    """
    records = []
    for params in iter_param_grid(2, n_max, n_max):
        if classify_branch(params.m, params.l) is not Branch.OFFSET_STEP:
            continue
        regime = classify(params)
        ideal, table, reason = _ideal_and_table(params, field, method, cap_n, cap_cells)
        small_overlap_value = _small_overlap_reg(params)
        record = {
            "m": params.m, "l": params.l, "k": params.k, "n": params.n,
            "s": regime.s, "p": regime.p, "d": regime.d,
            "pd_oracle": None, "reg_oracle": None,
            "reg_small_overlap_formula": small_overlap_value,
            "ideal": ideal_to_text(ideal),
            "coincides": None,
        }
        if table is None:
            record.update(status="skipped", reason=reason)
        else:
            inv = invariants_of(table)
            record.update(
                pd_oracle=inv.pd, reg_oracle=inv.reg, coincides=inv.reg == small_overlap_value
            )
        records.append(record)
    _report_skips(records)
    return records


# ---------------------------------------------------------------------------
# renderers
# ---------------------------------------------------------------------------


def _cell(value) -> str:
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def records_to_csv(records: list[dict], columns: list[str]) -> str:
    """One header row of ``columns``, then one row per record: ``CSV_COLUMNS``
    for a sweep report's records, ``OPEN_PROBLEM_COLUMNS`` for the
    open-problem records."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for r in records:
        writer.writerow([_cell(r[c]) for c in columns])
    return out.getvalue()


def _text_table(title: str, header: str, rows: list[str]) -> str:
    return "\n".join([title, header, "-" * len(header), *rows]) + "\n"


def _pair(formula, oracle) -> str:
    return f"{'?' if formula is None else formula}/{oracle}"


def report_to_text(report: dict) -> str:
    """The sweep report as a table.  A timed sweep's records hold their
    milliseconds as floats (untimed ones the int 0), and its ok rows end in a
    ``millis`` column."""
    timed = any(isinstance(r["millis"], float) for r in report["records"])
    header = f"{'params':<16} {'regime':<14} {'pd':>7} {'reg':>9} {'depth':>9}  flags"
    header += "  millis" if timed else ""
    rows = []
    for r in report["records"]:
        lead = f"{_label(r):<16} {r['regime']:<14}"
        if r["status"] == "skipped":
            rows.append(f"{lead} skipped: {r['reason']}")
            continue
        flags = "".join("." if r[key] in (True, None) else "X" for key in _MATCH_KEYS)
        rows.append(
            f"{lead} {_pair(r['pd_formula'], r['pd_oracle']):>7} "
            f"{_pair(r['reg_formula'], r['reg_oracle']):>9} "
            f"{_pair(r['depth_formula'], r['depth_oracle']):>9}  "
            + (f"{flags:<5}  {r['millis']:>6.3f}" if timed else flags)
        )
    s = report["summary"]
    rows.append(
        f"instances={s['instances']} ok={s['ok']} skipped={s['skipped']} "
        f"mismatches={s['mismatches']}"
    )
    if s["mismatch_params"]:
        rows.append("mismatching: " + ", ".join(s["mismatch_params"]))
    return _text_table(f"sweep over {report['field']} (method={report['method']})", header, rows)


def open_problem_to_text(records: list[dict]) -> str:
    header = f"{'params':<16} {'n':>3} {'s':>2} {'p':>2} {'d':>2} {'pd':>4} {'reg':>4}  small-overlap formula"
    rows = []
    for r in records:
        lead = f"{_label(r):<16} {r['n']:>3}"
        if r.get("status") == "skipped":
            rows.append(f"{lead} skipped: {r['reason']}")
            continue
        tail = f"{r['reg_small_overlap_formula']} ({'=' if r['coincides'] else '!='})"
        rows.append(
            f"{lead} {r['s']:>2} {r['p']:>2} {r['d']:>2} "
            f"{r['pd_oracle']:>4} {r['reg_oracle']:>4}  {tail}"
        )
    return _text_table(
        "offset-step regime: oracle regularity (no closed form is known)", header, rows
    )
