"""Pin, or re-check, the reference Betti-table digests of the exact workloads.

    python3 perfbench/pin.py            # check reference/*.json against both routes
    python3 perfbench/pin.py --write    # recompute and write them

Every digest is computed by both Betti routes wherever each is feasible
(the Hochster route for n <= 16, the Taylor route for k <= 18) and pinned
only when all computed routes agree.  Each entry records which routes
confirmed it.  The check takes a few minutes on a 2-vCPU host.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from pathideal import betti, fields, pathfamily  # noqa: E402

from workloads import (  # noqa: E402
    CROSSVAL_N_MAX,
    VERIFY_N_MAX,
    crossval_ideals,
    ideal_key,
    path_grid,
)

HOCHSTER_N_MAX = 16
TAYLOR_K_MAX = 18


def routed_digest(ideal, field_spec) -> tuple[str, list[str]]:
    """The table digest, computed by every feasible route, which must agree."""
    digests = {}
    if ideal.n <= HOCHSTER_N_MAX:
        digests["hochster"] = betti.betti_hochster(ideal, field_spec).digest()
    if len(ideal.gens) <= TAYLOR_K_MAX:
        digests["taylor"] = betti.betti_taylor_tor(ideal, field_spec).digest()
    if len(set(digests.values())) != 1:
        raise SystemExit(f"routes disagree or none is feasible on {ideal_key(ideal)}: {digests}")
    return next(iter(digests.values())), "+".join(sorted(digests))


def references() -> dict[str, dict]:
    verify = {"digests": {}, "confirmed_by": {}}
    for m, l, k in path_grid(6, VERIFY_N_MAX):
        ideal = pathfamily.make_path_ideal(pathfamily.PathParams(m, l, k))
        key = f"{m},{l},{k}"
        verify["digests"][key], verify["confirmed_by"][key] = routed_digest(ideal, fields.GF2)
    crossval = {"digests": {}, "confirmed_by": {}}
    for field_spec in (fields.FieldSpec(3), fields.QQ):
        for ideal in crossval_ideals(CROSSVAL_N_MAX):
            key = f"{field_spec.label}|{ideal_key(ideal)}"
            crossval["digests"][key], crossval["confirmed_by"][key] = routed_digest(ideal, field_spec)
    return {"verify-sweep": verify, "crossval-exact": crossval}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write", action="store_true", help="write the recomputed references")
    args = parser.parse_args(argv)
    status = 0
    for workload, data in references().items():
        path = os.path.join(HERE, "reference", f"{workload}.json")
        if args.write:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as fh:
                json.dump(data, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"wrote {len(data['digests'])} digests to {path}")
            continue
        with open(path) as fh:
            pinned = json.load(fh)
        if pinned != data:
            print(f"{path}: pinned digests differ from the recomputed ones", file=sys.stderr)
            status = 1
        else:
            print(f"{path}: {len(data['digests'])} digests confirmed")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
