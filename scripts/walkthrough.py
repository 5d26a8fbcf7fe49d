#!/usr/bin/env python3
"""Narrated solve of the bundled three-activity project.

Loads the fixture, solves the minimax flow-time problem, and prints
the intermediate ledger of the paper's closed form for theta: matrix
powers, the precedence closure, the feasibility gates, the rooted
squeeze legs, then the solution family and the recovered schedule.
The solver itself takes theta as one spectral radius; the ledger
recomputes it term by term.

Usage:
    python3 scripts/walkthrough.py [--fixture PATH]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tropt import serialize
from tropt.linalg import Matrix, Vector
from tropt.schedule import collapse_solution_line, solve_schedule_detailed

REPO = Path(__file__).resolve().parent.parent
DEFAULT_FIXTURE = REPO / "fixtures" / "three_activity_project.json"


def fmt_scalar(v) -> str:
    enc = serialize.encode_scalar(v)
    return str(enc)


def fmt_matrix(m: Matrix, indent: str = "    ") -> str:
    cells = [[fmt_scalar(v) for v in row] for row in m.rows]
    width = max(len(c) for row in cells for c in row)
    lines = [
        indent + "[ " + "  ".join(c.rjust(width) for c in row) + " ]"
        for row in cells
    ]
    return "\n".join(lines)


def fmt_vector(v: Vector) -> str:
    return "(" + ", ".join(fmt_scalar(e) for e in v.entries) + ")"


def show(label: str, value) -> None:
    if isinstance(value, Matrix):
        print(f"  {label} =")
        print(fmt_matrix(value))
    elif isinstance(value, Vector):
        print(f"  {label} = {fmt_vector(value)}")
    else:
        print(f"  {label} = {fmt_scalar(value)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fixture",
        default=str(DEFAULT_FIXTURE),
        help="schedule JSON to walk through (default: bundled project)",
    )
    args = parser.parse_args(argv)

    doc = serialize.loads(Path(args.fixture).read_text(), exact=True)
    spec = serialize.parse_schedule(doc)
    names = spec.names()
    n = spec.dim

    print("input data")
    show("A (start-finish lags)", spec.start_finish)
    show("B (start-start lags)", spec.start_start)
    show("g (earliest start)", spec.earliest_start)
    show("h (latest start)", spec.latest_start)
    show("q (window lower)", spec.window_lower)
    show("p (window upper)", spec.window_upper)

    result, inter = solve_schedule_detailed(spec)

    print("\nmatrix powers")
    for k in sorted(inter["A_pow"], key=int):
        show(f"A^{k}", inter["A_pow"][k])
    for k in sorted(inter["B_pow"], key=int):
        show(f"B^{k}", inter["B_pow"][k])

    print("\nfeasibility gates")
    show("Tr(B)", inter["trace_sum_B"])
    show("B*", inter["B_star"])
    show("h^- B* g", inter["h_Bstar_g"])
    print("  both gates pass: the constraint set is nonempty")

    print("\nchain and closure families")
    for k, m in enumerate(inter["chain_sums"]):
        show(f"S_{k}", m)
    for k, m in enumerate(inter["closure_sums"]):
        show(f"T_{k}", m)

    print("\nrooted squeeze legs")
    for k in sorted(inter["h_closure_g"], key=int):
        show(f"h^- T_{k} g", inter["h_closure_g"][k])
    for k in sorted(inter["q_chain_g"], key=int):
        show(f"q^- S_{k} g", inter["q_chain_g"][k])
    for k in sorted(inter["h_closure_p"], key=int):
        show(f"h^- T_{k} p", inter["h_closure_p"][k])
    for k in sorted(inter["q_chain_p"], key=int):
        show(f"q^- S_{k} p", inter["q_chain_p"][k])

    print("\nassembled bounds")
    show("max of trace roots", inter["sum_trace_roots"])
    show("max of h/g legs", inter["sum_h_closure_g"])
    show("max of q/g legs", inter["sum_q_chain_g"])
    show("max of h/p legs", inter["sum_h_closure_p"])
    show("max of q/p legs", inter["sum_q_chain_p"])
    show("theta", inter["theta"])

    print("\nsolution family x = G u")
    show("scaled sum theta^-1 A (+) B", inter["scaled_sum"])
    show("generator G", inter["generator"])
    show("lower u", inter["lower_u"])
    show("upper u", inter["upper_u"])
    line = collapse_solution_line(result.solutions)
    if line is not None:
        direction, (low, high) = line
        seg = f"[{fmt_scalar(low)}, {'inf' if high is None else fmt_scalar(high)}]"
        print(f"  rank-one family: x = {fmt_vector(direction)} (x) v, v in {seg}")

    print("\nschedule")
    show("initiation x", result.initiation)
    show("completion y = A x", result.completion)
    show("adjusted start s = x /\\ q", result.adjusted_start)
    show("adjusted finish t = y (+) p", result.adjusted_finish)
    width = max(len(s) for s in names)
    for i, name in enumerate(names):
        flag = " *" if result.flow_times[i] == result.theta else ""
        print(
            f"    {name.ljust(width)}  start {fmt_scalar(result.initiation.entries[i])}"
            f"  finish {fmt_scalar(result.completion.entries[i])}"
            f"  flow {fmt_scalar(result.flow_times[i])}{flag}"
        )
    print(f"  largest flow time: {fmt_scalar(result.theta)} (* attains it)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
