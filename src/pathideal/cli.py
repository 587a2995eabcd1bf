"""Command-line front end.

One subcommand per artifact: ``gen`` emits an ideal, ``betti`` one table,
``formula`` the closed forms, ``verify`` a formula-vs-oracle sweep,
``split`` a Betti-splitting check, ``cert`` the topological certificates,
``open-problem`` the regularity data dump for the regime without a closed
form.  Exit status: 0 clean, 1 when a verification-style command found a
failure, 2 on invalid arguments.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from .betti import BettiTable, betti_table, depth_of, invariants_of
from .caps import (
    MINOR_CAP_N,
    SEQ_CM_CAP_N,
    SHELLING_CAP_FACETS,
    STRAND_CAP_CELLS,
    SUBSET_CAP_N,
    CapExceeded,
)
from .fields import parse_field
from .monomials import MonomialIdeal, ideal_from_text, ideal_to_text, iter_bits
from .pathfamily import PathParams, _full_path, classify, formula_result, make_path_ideal
from .splitting import fht_condition, splitting_invariant_bounds
from .sweep import (
    CSV_COLUMNS,
    OPEN_PROBLEM_COLUMNS,
    open_problem_sweep,
    open_problem_to_text,
    records_to_csv,
    report_to_json,
    report_to_text,
    run_sweep,
)
from .topology import (
    clutter_from_text,
    clutter_of,
    cover_complex,
    find_shelling,
    free_vertex_property,
    is_interval_clutter,
    is_sequentially_cm,
)


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(args, payload: dict, text: str) -> None:
    """Write ``payload`` as sorted one-line JSON under ``--json``, else ``text``."""
    _emit(json.dumps(payload, sort_keys=True) + "\n" if args.json else text, args.out)


def _rows(table: BettiTable) -> list[list[int]]:
    return [[i, j, b] for i, j, b in table.items_sorted()]


def _vertex_lists(masks) -> Optional[list[list[int]]]:
    return None if masks is None else [list(iter_bits(mask)) for mask in masks]


def _record_capped(payload: dict, key: str, check) -> None:
    """Record ``check()`` under ``key``; beyond its cap, record None there
    and the cap's message under ``<key>_skipped``."""
    try:
        payload[key] = check()
    except CapExceeded as exc:
        payload[key] = None
        payload[f"{key}_skipped"] = str(exc)


def _params(args, message: str, text: Optional[str] = None) -> Optional[PathParams]:
    """The family member the flags select: ``--m --l --k``, or the all-paths
    member of ``--m --n`` where the subcommand takes ``--n``.  None when the
    subcommand's text form ``text`` (``--ideal`` or ``--clutter``) is given
    and no family flag is; any other mix raises ``ValueError(message)``."""
    given = tuple(getattr(args, flag, None) is not None for flag in "mlkn")
    if text:
        if not any(given):
            return None
    elif given == (True, True, True, False):
        return PathParams(args.m, args.l, args.k)
    elif given == (True, False, False, True):
        return _full_path(args.m, args.n)
    raise ValueError(message)


def _resolve_ideal(args) -> MonomialIdeal:
    """The ideal of ``--ideal`` or of the family flags, for ``gen`` and ``betti``."""
    if args.ideal or args.m is None:
        message = "one of --ideal or --m is required"
    else:
        message = "give --l and --k for the general family, or --n for all paths"
    params = _params(args, message, args.ideal)
    return ideal_from_text(args.ideal) if params is None else make_path_ideal(params)


def _params_args(parser, with_n=True) -> None:
    parser.add_argument("--m", type=int, help="path length (>= 2)")
    parser.add_argument("--l", type=int, help="overlap between consecutive paths")
    parser.add_argument("--k", type=int, help="number of generators")
    if with_n:
        parser.add_argument(
            "--n", type=int, help="vertex count; with --m alone selects all length-m paths"
        )


def cmd_gen(args) -> int:
    ideal = _resolve_ideal(args)
    payload = {"n": ideal.n, "gens": [list(g.vars) for g in ideal.gens]}
    _report(args, payload, ideal_to_text(ideal) + "\n")
    return 0


def cmd_betti(args) -> int:
    ideal = _resolve_ideal(args)
    field = parse_field(args.field)
    table = betti_table(
        ideal, field, args.method, cap_n=args.cap_n, cap_cells=args.cap_cells
    )
    inv = invariants_of(table)
    depths = depth_of(ideal, table)
    payload = {
        "ideal": ideal_to_text(ideal),
        "field": field.label,
        "betti": _rows(table),
        "pd": inv.pd,
        "reg": inv.reg,
        "depth_I": depths.depth_I,
    }
    if args.golden:
        text = table.to_text()
    else:
        lines = [f"{payload['ideal']}  over {field.label}"]
        lines += [f"  beta[{i},{j}] = {b}" for i, j, b in payload["betti"]]
        lines.append(
            f"pd={inv.pd} reg={inv.reg} depth_I={depths.depth_I} depth_RI={depths.depth_RI}"
        )
        text = "\n".join(lines) + "\n"
    _report(args, payload, text)
    return 0


def cmd_formula(args) -> int:
    params = _params(args, "give --m --l --k, or --m --n for all paths")
    result = formula_result(params)
    if args.n is not None:
        label = f"m={args.m},n={args.n} (all paths)"
        regime_info = {}
    else:
        regime = classify(params)
        label = str(params)
        regime_info = {
            "regime": regime.branch.value,
            "s": regime.s,
            "p": regime.p,
            "d": regime.d,
        }
    payload = {
        "params": label,
        "pd": result.pd,
        "reg": result.reg,
        "depth_I": result.depth_I,
        "depth_RI": result.depth_RI,
        **regime_info,
    }
    reg = "unknown" if result.reg is None else result.reg
    extra = f" regime={regime_info['regime']}" if regime_info else ""
    text = (f"{label}: pd={result.pd} reg={reg} depth_I={result.depth_I} "
            f"depth_RI={result.depth_RI}{extra}\n")
    _report(args, payload, text)
    return 0


def cmd_verify(args) -> int:
    field = parse_field(args.field)
    report = run_sweep(
        m_min=args.m_min,
        m_max=args.m_max,
        n_max=args.n_max,
        field=field,
        method=args.method,
        l_fixed=args.l,
        k_fixed=args.k,
        k_max=args.k_max,
        cap_n=args.cap_n,
        cap_cells=args.cap_cells,
        jobs=args.jobs,
        timing=args.timing,
    )
    if args.json:
        _emit(report_to_json(report), args.out)
    elif args.csv:
        _emit(records_to_csv(report["records"], CSV_COLUMNS), args.out)
    else:
        _emit(report_to_text(report), args.out)
    return 1 if report["summary"]["mismatches"] else 0


def cmd_split(args) -> int:
    field = parse_field(args.field)
    params = _params(args, "give --m --l --k (k >= 2), or --ideal with --var", args.ideal)
    if params is None:
        ideal = ideal_from_text(args.ideal)
        if args.var is None:
            raise ValueError("--var is required with --ideal")
        var = args.var
    elif params.k < 2:
        raise ValueError("splitting at the last generator needs k >= 2")
    else:
        ideal = make_path_ideal(params)
        var = params.n if args.var is None else args.var
    fht = fht_condition(ideal, var, field)
    case = fht.case
    ok_pd, ok_reg = splitting_invariant_bounds(case) if case.verdict else (False, False)
    payload = {
        "ideal": ideal_to_text(ideal),
        "field": field.label,
        "var": var,
        "J": ideal_to_text(fht.J),
        "K": ideal_to_text(fht.K),
        "fht_applies": fht.applies,
        "tables": {
            "I": _rows(case.table_I),
            "J": _rows(case.table_J),
            "K": _rows(case.table_K),
            "JK": _rows(case.table_JK),
        },
        "verdict": case.verdict,
        "witness": list(case.witness) if case.witness else None,
        "max_formula_pd": ok_pd,
        "max_formula_reg": ok_reg,
    }
    lines = [
        f"I = {payload['ideal']}",
        f"J = {payload['J']}   (generators divisible by x{var})",
        f"K = {payload['K']}",
        f"linearity condition applies: {fht.applies}",
        f"splitting identity holds: {case.verdict}"
        + (f" (first failure at {case.witness})" if case.witness else ""),
    ]
    if case.verdict:
        lines.append(f"pd max-formula holds: {ok_pd}; reg max-formula holds: {ok_reg}")
    _report(args, payload, "\n".join(lines) + "\n")
    return 0 if case.verdict and (not fht.applies or (ok_pd and ok_reg)) else 1


def cmd_cert(args) -> int:
    field = parse_field(args.field)
    params = _params(args, "give --m --l --k or --clutter", args.clutter)
    if params is None:
        clutter = clutter_from_text(args.clutter)
    else:
        clutter = clutter_of(make_path_ideal(params))

    payload: dict = {"clutter": str(clutter)}
    try:
        fvp, witness = free_vertex_property(clutter, cap=args.cap_minors)
    except CapExceeded as exc:
        # every interval clutter has the property, at any size
        interval = is_interval_clutter(clutter)
        payload["free_vertex_property"] = True if interval else None
        payload["free_vertex_method"] = (
            "interval-clutter theorem" if interval else f"skipped: {exc}"
        )
    else:
        payload["free_vertex_property"] = fvp
        if witness is not None:
            (zeros, ones), minor = witness
            payload["counterexample_minor"] = str(minor)
            payload["counterexample_assignment"] = {
                "zeros": list(iter_bits(zeros)), "ones": list(iter_bits(ones)),
            }
        payload["free_vertex_method"] = "minor enumeration"

    try:
        cx = cover_complex(clutter)
    except CapExceeded as exc:
        # shelling and sequential CM are checks on the cover complex
        skipped = f"cover complex skipped: {exc}"
        payload.update(
            facets=None, cover_complex_skipped=str(exc),
            shelling=None, shelling_skipped=skipped, seq_cm=None, seq_cm_skipped=skipped,
        )
    else:
        payload["facets"] = _vertex_lists(cx.facets)
        _record_capped(payload, "shelling",
                       lambda: _vertex_lists(find_shelling(cx, cap=args.cap_facets)))
        _record_capped(payload, "seq_cm",
                       lambda: is_sequentially_cm(cx, field, cap=args.cap_seqcm))

    lines = [f"clutter: {payload['clutter']}"]
    lines.append(
        f"free vertex property: {payload['free_vertex_property']}"
        f" [{payload['free_vertex_method']}]"
    )
    if payload.get("counterexample_minor"):
        lines.append(f"  counterexample minor: {payload['counterexample_minor']}")
        assignment = payload["counterexample_assignment"]
        settings = [f"x{v} = 0" for v in assignment["zeros"]]
        settings += [f"x{v} = 1" for v in assignment["ones"]]
        lines.append(f"  counterexample assignment: {', '.join(settings) or 'none'}")
    if payload.get("shelling") is not None:
        lines.append("shelling: " + " -> ".join(str(f) for f in payload["shelling"]))
    else:
        lines.append("shelling: " + payload.get("shelling_skipped", "none found"))
    seq_cm = payload.get("seq_cm_skipped", payload["seq_cm"])
    lines.append(f"sequentially CM over {field.label}: {seq_cm}")
    _report(args, payload, "\n".join(lines) + "\n")

    checks = [payload["free_vertex_property"], payload["seq_cm"]]
    shelling_ok = payload.get("shelling") is not None or "shelling_skipped" in payload
    return 0 if all(c is not False for c in checks) and shelling_ok else 1


def cmd_open_problem(args) -> int:
    field = parse_field(args.field)
    records = open_problem_sweep(
        n_max=args.n_max, field=field, method=args.method,
        cap_n=args.cap_n, cap_cells=args.cap_cells,
    )
    if args.json:
        _emit(report_to_json({"records": records}), args.out)
    elif args.csv:
        _emit(records_to_csv(records, OPEN_PROBLEM_COLUMNS), args.out)
    else:
        _emit(open_problem_to_text(records), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathideal",
        description="Path ideals of the line graph: exact Betti tables and closed forms.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # no option is read from a prefix: `verify --n 6` must not run as `--n-max 6`
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    # each subcommand takes only the options it reads
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--json", action="store_true", help="machine-readable output")
    output.add_argument("--out", metavar="FILE", help="write output to FILE")
    field = argparse.ArgumentParser(add_help=False)
    field.add_argument("--field", default="gf2", help="gf2, gf<p> or rat")
    tables = argparse.ArgumentParser(add_help=False)
    tables.add_argument("--method", default="auto",
                        choices=["auto", "interval", "hochster", "taylor", "both"])
    tables.add_argument("--cap-n", type=int, default=SUBSET_CAP_N, dest="cap_n")
    tables.add_argument("--cap-cells", type=int, default=STRAND_CAP_CELLS, dest="cap_cells")

    p_gen = add_parser("gen", parents=[output], help="emit an ideal")
    _params_args(p_gen)
    p_gen.add_argument("--ideal", help="ideal text form (echoed canonically)")
    p_gen.set_defaults(func=cmd_gen)

    p_betti = add_parser("betti", parents=[output, field, tables], help="one Betti table")
    _params_args(p_betti)
    p_betti.add_argument("--ideal", help="ideal text form, e.g. 'n=5; (x1*x2*x3, x3*x4*x5)'")
    p_betti.add_argument("--golden", action="store_true", help="golden-file text format")
    p_betti.set_defaults(func=cmd_betti)

    p_formula = add_parser("formula", parents=[output], help="closed forms only")
    _params_args(p_formula)
    p_formula.set_defaults(func=cmd_formula)

    p_verify = add_parser("verify", parents=[output, field, tables],
                          help="formula-vs-oracle sweep")
    p_verify.add_argument("--m-min", type=int, default=2, dest="m_min")
    p_verify.add_argument("--m-max", type=int, default=5, dest="m_max")
    p_verify.add_argument("--n-max", type=int, default=13, dest="n_max")
    p_verify.add_argument("--l", type=int, help="fix the overlap")
    p_verify.add_argument("--k", type=int, help="fix the generator count")
    p_verify.add_argument("--k-max", type=int, dest="k_max")
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument("--csv", action="store_true")
    p_verify.add_argument("--timing", action="store_true",
                          help="record per-instance wall time in milliseconds "
                               "(breaks byte-identical output)")
    p_verify.set_defaults(func=cmd_verify)

    p_split = add_parser("split", parents=[output, field], help="Betti-splitting check")
    _params_args(p_split, with_n=False)
    p_split.add_argument("--ideal", help="ideal text form")
    p_split.add_argument("--var", type=int,
                         help="split at this variable (default: last variable)")
    p_split.set_defaults(func=cmd_split)

    p_cert = add_parser("cert", parents=[output, field],
                        help="free vertex / shelling / sequential-CM certificates")
    _params_args(p_cert, with_n=False)
    p_cert.add_argument("--clutter", help="clutter text form, e.g. 'n=5; {1,2,3},{3,4,5}'")
    p_cert.add_argument("--cap-minors", type=int, default=MINOR_CAP_N, dest="cap_minors")
    p_cert.add_argument("--cap-facets", type=int, default=SHELLING_CAP_FACETS,
                        dest="cap_facets")
    p_cert.add_argument("--cap-seqcm", type=int, default=SEQ_CM_CAP_N, dest="cap_seqcm")
    p_cert.set_defaults(func=cmd_cert)

    p_open = add_parser("open-problem", parents=[output, field, tables],
                        help="regularity data in the regime without a closed form")
    p_open.add_argument("--n-max", type=int, default=13, dest="n_max")
    p_open.add_argument("--csv", action="store_true")
    p_open.set_defaults(func=cmd_open_problem)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
