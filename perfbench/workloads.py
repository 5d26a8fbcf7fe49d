"""The three workloads.

A workload turns an operation index into inputs (`prepare`, untimed),
runs the operation against tropt (`call`, timed) and checks its output
(`check`, untimed, returning a failure reason or None).  The indices
0 .. pool-1 form the pool the runner cycles through; a block is the
smallest run of operations that covers every request type once, and
the pool is `pool_blocks` blocks of distinct instances.

Calls go through module attributes looked up at call time
(`self.cli.main`, `self.schedule.solve_schedule`), so the tracer's
wrappers see them.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
from fractions import Fraction
from pathlib import Path
from typing import Optional

import check
import gen


class CliRun:
    """One in-process `tropt` invocation: exit code and captured text."""

    __slots__ = ("code", "out", "err")

    def __init__(self, code: int, out: str, err: str):
        self.code, self.out, self.err = code, out, err

    def condition(self) -> Optional[str]:
        """The condition named on an `infeasible:` line, if any."""
        for line in self.err.splitlines():
            if line.startswith("infeasible: "):
                return line[len("infeasible: "):]
        return None


def run_cli(main, argv: list[str]) -> CliRun:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 1
    return CliRun(code, out.getvalue(), err.getvalue())


def cli_failure(run: CliRun) -> Optional[str]:
    if "Traceback (most recent call last)" in run.err:
        return "traceback on stderr"
    return None


class Workload:
    name = ""
    block = 1  # operations covering each request type once
    pool_blocks = 1
    digest_ops = 0  # leading operations the committed digest covers

    @property
    def pool(self) -> int:
        return self.block * self.pool_blocks

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.cli = importlib.import_module("tropt.cli")

    def prepare(self, i: int):
        raise NotImplementedError

    def call(self, prepared):
        raise NotImplementedError

    def check(self, i: int, prepared, result) -> Optional[str]:
        raise NotImplementedError

    def digest_entry(self, i: int, prepared, result) -> str:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


class LargeExact(Workload):
    """Feasible schedules of order n in exact mode; each operation
    solves one instance with `solve_schedule` and again as its General
    rewrite through `build_problem` and `solve_problem`."""

    name = "large-n12-exact"
    digest_ops = 3

    def __init__(self, n: int = 12, pool_blocks: int = 20):
        self.n = n
        self.pool_blocks = pool_blocks

    def describe(self) -> str:
        return (f"order {self.n}, exact, schedule + General rewrite per op, "
                f"pool of {self.pool} instances")

    def setup(self, seed: int, workdir: Path) -> None:
        super().setup(seed, workdir)
        self.tropt = importlib.import_module("tropt")
        self.schedule = importlib.import_module("tropt.schedule")
        self.optimize = importlib.import_module("tropt.optimize")

    def prepare(self, i: int):
        draw = gen.feasible_schedule(gen.instance_rng(self.name, self.seed, i), self.n)
        neg = float("-inf")
        T = self.tropt

        def mat(rows):
            return T.Matrix(tuple(tuple(neg if v is None else v for v in r) for r in rows))

        def vec(vals):
            return T.Vector(tuple(neg if v is None else v for v in vals))

        spec = T.ScheduleSpec(
            start_finish=mat(draw.start_finish),
            start_start=mat(draw.start_start),
            earliest_start=vec(draw.earliest_start),
            latest_start=vec(draw.latest_start),
            window_lower=vec(draw.window_lower),
            window_upper=vec(draw.window_upper),
        )
        return draw, spec

    def call(self, prepared):
        spec = prepared[1]
        result = self.schedule.solve_schedule(spec)
        general = self.optimize.solve_problem(self.schedule.build_problem(spec))
        return result, general

    def check(self, i: int, prepared, result) -> Optional[str]:
        draw, _ = prepared
        sched, general = result
        theta = sched.theta
        if not isinstance(theta, (int, Fraction)):
            return f"theta {theta!r} is not exact"
        if theta != general.minimum:
            return f"theta {theta} differs from the General minimum {general.minimum}"
        raw = draw.to_json()
        x = [Fraction(v) for v in sched.initiation.entries]
        reason = check.schedule_violation(raw, x)
        if reason is not None:
            return f"returned start vector infeasible: {reason}"
        if check.flow_time(raw, x) != theta:
            return "flow time of the returned start vector differs from theta"
        if theta > check.flow_time(raw, draw.witness):
            return "theta exceeds the flow time of the witness"
        return check.schedule_graph(raw).minimum_violation(theta)

    def digest_entry(self, i: int, prepared, result) -> str:
        return f"{i} theta={result[0].theta}"


def _mix_template() -> list[tuple[str, str, int, bool]]:
    """(command, variant, order, emit intermediates) for one pass; every
    entry runs once exact and once with --float."""
    out = [("solve", kind, n, False) for kind in gen.KINDS for n in (3, 4, 5)]
    # n = 6 twice: the heaviest requests then make a tenth of the mix, so
    # the p95 tail falls inside their spread and not at its lower edge
    out += [("schedule", "", n, emit) for n in (3, 4, 5, 6, 6) for emit in (False, True)]
    out += [("solve-ineq", v, n, False) for v in ("b", "d", "bd") for n in (3, 5)]
    out += [(cmd, "", n, False) for cmd in ("eig", "star") for n in (3, 4, 5)]
    return out


def _expectation(cmd: str, doc: dict) -> tuple[Optional[str], Optional[dict]]:
    """The condition a request must name (None when it must succeed)
    and, where the answer is a direct formula, the answer itself."""
    if cmd == "solve":
        return check.solve_verdict(doc), None
    if cmd == "solve-ineq":
        return check.inequality_expectation(doc)
    if cmd == "star":
        return None, {"star": check.star(doc["A"]), "traceSum": check.trace_sum(doc["A"])}
    return None, None  # schedules are feasible by construction; eig always answers


def _check_solve(argv, doc, want, out, tol) -> Optional[str]:
    x = check.vector(out["canonical"])
    if None in x:
        return "canonical point is not regular"
    reason = check.problem_violation(doc, x, tol)
    if reason is not None:
        return f"canonical point infeasible: {reason}"
    minimum = check.scalar(out["minimum"])
    if not check.close(check.objective(doc, x), minimum, tol):
        return "objective at the canonical point differs from the minimum"
    return check.span_graph(doc).minimum_violation(minimum, tol)


def _check_schedule(argv, doc, want, out, tol) -> Optional[str]:
    x = check.vector(out["initiation"])
    reason = check.schedule_violation(doc, x, tol)
    if reason is not None:
        return f"initiation infeasible: {reason}"
    theta = check.scalar(out["theta"])
    if not check.close(check.flow_time(doc, x), theta, tol):
        return "flow time of the initiation differs from theta"
    if "--emit-intermediates" in argv and not check.close(
        check.scalar(out["intermediates"]["theta"]), theta, tol
    ):
        return "ledger theta differs from theta"
    return check.schedule_graph(doc).minimum_violation(theta, tol)


def _check_ineq(argv, doc, want, out, tol) -> Optional[str]:
    if out.keys() != want.keys():
        return f"fields {sorted(out)}, expected {sorted(want)}"
    for key, value in want.items():
        got = check.matrix(out[key]) if key == "generator" else check.vector(out[key])
        if not check.all_close(got, value, tol):
            return f"{key} differs from its closed form"
    return None


def _check_eig(argv, doc, want, out, tol) -> Optional[str]:
    radius = check.scalar(out["spectralRadius"])
    if not check.has_cycle(doc["A"]):
        return None if radius is None else "spectral radius of an acyclic matrix is not zero"
    if radius is None:
        return "spectral radius is zero, but the matrix has a cycle"
    basic = check.span_graph({"kind": "Basic", "A": doc["A"]})
    reason = basic.minimum_violation(radius, tol)
    return None if reason is None else f"spectral radius is no maximum cycle mean: {reason}"


def _check_star(argv, doc, want, out, tol) -> Optional[str]:
    if not check.all_close(check.matrix(out["star"]), want["star"], tol):
        return "star differs from the truncated power sum"
    if not check.close(check.scalar(out["traceSum"]), want["traceSum"], tol):
        return "trace sum differs from the sum of power traces"
    return None


_COMMAND_CHECKS = {
    "solve": _check_solve,
    "schedule": _check_schedule,
    "solve-ineq": _check_ineq,
    "eig": _check_eig,
    "star": _check_star,
}


class CliMixed(Workload):
    """A fixed request mix through `tropt.cli.main`, in process, from
    JSON files written at set-up.  One block is one pass of the mix;
    the pool holds `pool_blocks` blocks of distinct instances."""

    name = "cli-small-mixed"

    def __init__(self, pool_blocks: int = 11):
        self.pool_blocks = pool_blocks
        self.template = _mix_template()
        self.block = 2 * len(self.template)
        self.digest_ops = self.pool

    def describe(self) -> str:
        return (
            f"{self.block} requests per block ({len(self.template)} exact + "
            f"{len(self.template)} --float), pool of {self.pool} requests"
        )

    def _draw(self, index: int, cmd: str, variant: str, n: int):
        rng = gen.instance_rng(self.name, self.seed, index)
        if cmd == "solve":
            return gen.random_problem(rng, variant, n)
        if cmd == "schedule":
            return gen.feasible_schedule(rng, n).to_json()
        if cmd == "solve-ineq":
            return gen.inequality_system(rng, variant, n)
        return {"A": gen.square_matrix(rng, n)}

    def setup(self, seed: int, workdir: Path) -> None:
        super().setup(seed, workdir)
        self.requests = []
        for index in range(self.pool):
            cmd, variant, n, emit = self.template[(index // 2) % len(self.template)]
            doc = self._draw(index, cmd, variant, n)
            path = workdir / f"req{index:04d}.json"
            path.write_text(json.dumps(doc))
            argv = [cmd, str(path)] + (["--emit-intermediates"] if emit else [])
            if index % 2:
                argv.append("--float")
            self.requests.append((argv, doc, n))
        # the answers each request must give, computed without tropt
        self.expected = [_expectation(argv[0], doc) for argv, doc, _ in self.requests]
        # tropt's exact-mode answer to each --float request, which the
        # float output must reproduce within the tolerance
        self.refs = {}
        for index, (argv, _, _) in enumerate(self.requests):
            if "--float" in argv:
                ref = run_cli(self.cli.main, [a for a in argv if a != "--float"])
                self.refs[index] = (ref, json.loads(ref.out) if ref.code == 0 else None)

    def prepare(self, i: int):
        return i

    def call(self, prepared):
        return run_cli(self.cli.main, self.requests[prepared][0])

    def check(self, i: int, prepared, result) -> Optional[str]:
        argv, doc, n = self.requests[prepared]
        condition, want = self.expected[prepared]
        reason = cli_failure(result)
        if reason is not None:
            return reason
        code = 0 if condition is None else 2
        if result.code != code:
            return f"exit code {result.code}, expected {code}"
        if condition is not None:
            if result.condition() != condition:
                return f"condition {result.condition()!r}, expected {condition!r}"
            return None
        try:
            out = json.loads(result.out)
        except ValueError:
            return "stdout is not JSON"
        tol = 0
        if "--float" in argv:
            tol = check.tolerance(n, doc)
            ref_doc = self.refs[prepared][1]
            if ref_doc is None or not check.docs_close(out, ref_doc, tol):
                return "float output differs from exact mode"
        return _COMMAND_CHECKS[argv[0]](argv, doc, want, out, tol)

    def digest_entry(self, i: int, prepared, result) -> str:
        """Exit code and headline value of the exact-mode answer."""
        if prepared in self.refs:
            ref, ref_doc = self.refs[prepared]
        else:
            ref, ref_doc = result, json.loads(result.out) if result.code == 0 else None
        value = ref.condition()
        if ref_doc is not None:
            for key in ("minimum", "theta", "spectralRadius", "traceSum"):
                if key in ref_doc:
                    value = ref_doc[key]
                    break
            else:
                value = json.dumps(ref_doc, sort_keys=True)
        return f"{i} {self.requests[prepared][0][0]} code={ref.code} {value}"


class VerifyGrid(Workload):
    """`tropt verify --window 1` on order-n problems of all six kinds,
    one kind after another; every instance is feasible by construction,
    so each verify must report agreement with exit code 0.  Radius 1
    around the canonical point is the scan the grid-oracle acceptance
    gate makes."""

    name = "verify-grid-n3"
    block = len(gen.KINDS)
    digest_ops = 12

    def __init__(self, n: int = 3, pool_blocks: int = 30):
        self.n = n
        self.pool_blocks = pool_blocks

    def describe(self) -> str:
        return (f"order {self.n}, one instance of each of {self.block} kinds per block, "
                f"pool of {self.pool} instances")

    def prepare(self, i: int):
        kind = gen.KINDS[i % len(gen.KINDS)]
        doc = gen.feasible_problem(gen.instance_rng(self.name, self.seed, i), kind, self.n)
        path = self.workdir / f"verify{i:02d}.json"
        path.write_text(json.dumps(doc))
        return doc, path

    def call(self, prepared):
        return run_cli(self.cli.main, ["verify", str(prepared[1]), "--window", "1"])

    def check(self, i: int, prepared, result) -> Optional[str]:
        doc, _ = prepared
        reason = cli_failure(result)
        if reason is not None:
            return reason
        if result.code != 0:
            return f"exit code {result.code} on a feasible instance"
        try:
            out = json.loads(result.out)
        except ValueError:
            return "stdout is not JSON"
        if out.get("agree") is not True:
            return "closed form and grid disagree"
        x = check.vector(out["closedForm"]["canonical"])
        minimum = check.scalar(out["closedForm"]["minimum"])
        if None in x or check.problem_violation(doc, x) is not None:
            return "canonical point infeasible"
        if check.objective(doc, x) != minimum:
            return "objective at the canonical point differs from the minimum"
        return check.span_graph(doc).minimum_violation(minimum)

    def digest_entry(self, i: int, prepared, result) -> str:
        out = json.loads(result.out) if result.code == 0 else {}
        minimum = out.get("closedForm", {}).get("minimum")
        return f"{i} {prepared[0]['kind']} code={result.code} {minimum}"


WORKLOADS = {
    LargeExact.name: LargeExact,
    CliMixed.name: CliMixed,
    VerifyGrid.name: VerifyGrid,
}
