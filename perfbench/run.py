"""tropt benchmark: three seeded workloads, end-to-end and per layer.

Run from the root of a tropt source tree:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see README.md beside this file): large-n12-exact,
cli-small-mixed, verify-grid-n3.  Load comes from one process and one
thread in a closed loop: each operation waits for its answer before the
next one is sent.

With --trace 0 the run times the workload untraced and reports the
end-to-end metrics.  With --trace 1 it alternates untraced and traced
passes, then counts Semifield calls over one more block, and reports
the per-layer metrics.  Either way the last line of
stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it,
each starting with "#", give the environment stamp, sample counts,
the tail percentile, failures and (traced) the per-layer table.

The program is imported from ./src; nothing of it is edited.  Exit
status: 0 with a result line; nonzero, with no result line, when the
run could not be made (no tropt sources, bad arguments).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGEST = HERE / "digest.json"
DEFAULT_SEED = 0
COLD_STARTS = 8  # launch pairs before and again after the timed passes
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TRACED_SHARE = 0.8  # of --seconds, for the untraced and traced passes together


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


if not (SRC / "tropt" / "__init__.py").is_file():
    _fail(f"no tropt sources under {SRC}; run from the root of a tropt checkout")
sys.path.insert(0, str(SRC))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# -- environment -----------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git() -> str:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown (not a git checkout)"

    def git(*args):
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        sha = git("rev-parse", "HEAD")
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    except (subprocess.CalledProcessError, OSError):
        return "unknown (git failed)"
    return sha + ("-dirty" if dirty else "")


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git": _git(),
        "seed": seed,
        "cpu": _cpu_model(),
    }


def cold_starts(pairs: int) -> tuple[list[float], list[float]]:
    """Times from launching a fresh interpreter until `tropt.cli` is
    imported: scaled to reference-host time, and as measured.  Each
    launch follows a launch of a bare interpreter, which does the same
    kind of work (process start, site imports) and so sees the same
    host speed; the launch is scaled by hostspeed.REFERENCE_LAUNCH_S
    over the bare launch's time.  One launch before timing fills the
    bytecode cache, as any installed copy has it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def launch(code: str) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
        return time.perf_counter() - start

    launch("import tropt.cli")
    scaled, measured = [], []
    for _ in range(pairs):
        bare = launch("pass")
        cold = launch("import tropt.cli")
        scaled.append(cold * hostspeed.REFERENCE_LAUNCH_S / bare)
        measured.append(cold)
    return scaled, measured


# -- the closed loop -------------------------------------------------------


class Runner:
    """Runs a workload's pool of operations pass after pass, checking
    every run."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.digest: dict[int, str] = {}
        self.tracer = None

    def run_op(self, i: int) -> float:
        wl = self.wl
        prepared = wl.prepare(i)
        if self.tracer is not None:
            self.tracer.op = i
        start = time.perf_counter()
        try:
            result, error = wl.call(prepared), None
        except Exception as exc:  # the loop must go on; the failure is counted
            result, error = None, exc
        elapsed = time.perf_counter() - start
        if error is not None:
            reason = f"raised {type(error).__name__}: {error}"
        else:
            try:
                reason = wl.check(i, prepared, result)
            except Exception as exc:  # malformed output the checks trip over
                reason = f"check raised {type(exc).__name__}: {exc}"
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"op {i}: {reason}")
        elif i < wl.digest_ops:
            self.digest[i] = wl.digest_entry(i, prepared, result)
        return elapsed

    def run_ops(self, ops) -> list[tuple[int, float]]:
        return [(i, self.run_op(i)) for i in ops]

    def run_pass(self, times: dict, raw: dict, deadline: float = math.inf) -> bool:
        """One pass over the pool, block by block, timing the host's
        speed at every block boundary.  Appends each operation's time,
        scaled to reference-host time, to `times[i]` and its measured
        time to `raw[i]`.  Stops early, returning False, once the
        deadline has passed."""
        wl = self.wl
        before = hostspeed.kernel_s()
        for b in range(wl.pool_blocks):
            measured = self.run_ops(range(b * wl.block, (b + 1) * wl.block))
            after = hostspeed.kernel_s()
            factor = hostspeed.scale(before, after)
            for i, t in measured:
                times.setdefault(i, []).append(t * factor)
                raw.setdefault(i, []).append(t)
            before = after
            if time.perf_counter() >= deadline:
                return False
        return True

    def run_for(self, seconds: float) -> tuple[dict, dict]:
        """One whole pass over the pool, then more blocks until
        `seconds` have passed; returns scaled and measured times per
        operation."""
        deadline = time.perf_counter() + seconds
        times: dict[int, list[float]] = {}
        raw: dict[int, list[float]] = {}
        self.run_pass(times, raw)
        while time.perf_counter() < deadline and self.run_pass(times, raw, deadline):
            pass
        return times, raw

    def digest_sha(self) -> str:
        """Digest of the leading operations, running any not yet run."""
        for i in range(self.wl.digest_ops):
            if i not in self.digest:
                self.run_op(i)
        lines = [self.digest.get(i, f"{i} failed") for i in range(self.wl.digest_ops)]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def percentile(ordered: list[float], p: float) -> float:
    """Linear interpolation between closest ranks; p50 is the median."""
    pos = (len(ordered) - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(latencies: list[float]) -> tuple[str, float]:
    """Highest percentile of the ladder with at least ten samples
    above it; the maximum when no percentile has ten."""
    ordered = sorted(latencies)
    for p in TAIL_LADDER:
        value = percentile(ordered, p)
        if sum(1 for v in ordered if v > value) >= 10:
            return f"p{p:g}", value
    return "max", ordered[-1]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def op_times(times: dict) -> list[float]:
    """Each operation's time: the median of its runs."""
    return [statistics.median(v) for v in times.values()]


def end_to_end(runner: Runner, times: dict, raw: dict,
               launches: tuple[list[float], list[float]]) -> dict:
    ops = op_times(times)
    label, tail_s = tail(ops)
    measured = op_times(raw)
    runs = sum(len(v) for v in times.values())
    print(f"# samples: {len(ops)} operations, {runs} timed runs; tail percentile {label}")
    print(f"# measured, before scaling to the reference host: "
          f"{len(measured) / sum(measured):.4g} ops/s, p50 {1e3 * statistics.median(measured):.4g} ms, "
          f"cold start {statistics.median(launches[1]):.4g} s over {len(launches[1])} launches")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": _metric(statistics.median(launches[0]), "s"),
        "throughput_ops_s": _metric(len(ops) / sum(ops), "1/s"),
        "latency_p50_ms": _metric(1e3 * statistics.median(ops), "ms"),
        "latency_tail_ms": _metric(1e3 * tail_s, "ms"),
        "ok_ratio": _metric((runner.attempted - runner.failed) / runner.attempted, "ratio"),
        "peak_rss_mb": _metric(rss_kb / 1024, "MB"),
    }


_PARSE = ("serialize.parse_problem", "serialize.parse_schedule",
          "serialize.parse_matrix", "serialize.parse_vector")
_ENCODE = ("serialize.dumps", "serialize.encode_problem", "serialize.encode_opt_result",
           "serialize.encode_schedule_result", "serialize.encode_solutions",
           "serialize.encode_value", "serialize.encode_matrix", "serialize.encode_vector")
_LINSOLVE = ("linsolve.solve_upper_bounded", "linsolve.solve_fixpoint_lower",
             "linsolve.solve_combined")
_KINDS = ("basic", "extended", "linear_constrained", "general", "box_constrained",
          "fixpoint_constrained")


def per_layer(tracer, ops: int, semifield_per_op: float, overhead: float) -> dict:
    """Per-layer metrics, each per traced operation unless a ratio."""
    summary = tracer.summary()

    def row(name):
        return summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def total(name):
        return _metric(row(name)["total_s"] / ops, "s")

    def self_time(name):
        return _metric(row(name)["self_s"] / ops, "s")

    def calls(name):
        return _metric(row(name)["calls"] / ops, "count")

    def group(names):
        return _metric(tracer.group_total(names) / ops, "s")

    grid_s = row("oracle.grid_minimize")["total_s"]
    grid_points = tracer.counts["oracle.grid_points"]
    solver_s = tracer.group_total(("schedule.solve_schedule_detailed", "optimize.solve_problem"))
    tables_s = tracer.group_total(("linalg.chain_sums", "linalg.closure_sums"))
    m = {
        "cli.parse_args_s": total("cli.parse_args"),
        "cli.build_parser_s": total("cli.build_parser"),
        "cli.main.self_s": self_time("cli.main"),
        "serialize.loads_s": total("serialize.loads"),
        "serialize.parse_s": group(_PARSE),
        "serialize.encode_s": group(_ENCODE),
        "serialize.bytes_out": _metric(tracer.counts["serialize.bytes_out"] / ops, "B"),
        "schedule.solve_schedule_detailed_s": total("schedule.solve_schedule_detailed"),
        "schedule.solve_schedule_detailed.self_s": self_time("schedule.solve_schedule_detailed"),
        "schedule.build_problem_s": total("schedule.build_problem"),
        "schedule.collapse_solution_line_s": total("schedule.collapse_solution_line"),
        "optimize.solve_problem_s": total("optimize.solve_problem"),
        "optimize.solve_problem.calls": calls("optimize.solve_problem"),
    }
    for kind in _KINDS:
        name = f"optimize.minimize_{kind}"
        m[f"{name}.self_s"] = self_time(name)
        m[f"{name}.calls"] = calls(name)
    m.update({
        "linsolve.canonical_s": total("linsolve.canonical"),
        "linsolve.contains_s": total("linsolve.contains"),
        "linsolve.solve_s": group(_LINSOLVE),
        "linalg.matmul.calls": calls("linalg.matmul"),
        "linalg.matmul_s": total("linalg.matmul"),
        "linalg.scalar_ops": _metric(tracer.counts["linalg.scalar_ops"] / ops, "ops_computed"),
        "linalg.star_s": total("linalg.star"),
        "linalg.spectral_radius_s": total("linalg.spectral_radius"),
        "linalg.trace_sum_s": total("linalg.trace_sum"),
        "linalg.chain_sums_s": total("linalg.chain_sums"),
        "linalg.closure_sums_s": total("linalg.closure_sums"),
        "linalg.chain_closure_share": _metric(tables_s / solver_s if solver_s else 0.0, "ratio"),
        "linalg.power.calls": calls("linalg.power"),
        "linalg.power_s": total("linalg.power"),
        "semifield.calls": _metric(semifield_per_op, "count"),
        "oracle.grid_minimize_s": total("oracle.grid_minimize"),
        "oracle.grid_points": _metric(grid_points / ops, "count_computed"),
        "oracle.points_per_s": _metric(grid_points / grid_s if grid_s else 0.0, "1/s"),
        "trace.overhead_ratio": _metric(overhead, "ratio"),
    })
    return m


# -- entry points ----------------------------------------------------------


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """One run of a workload; returns the result object."""
    workdir = OUT / f"work-{workload.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        launches = ([], []) if trace else cold_starts(COLD_STARTS)
        workload.setup(seed, workdir)
        runner = Runner(workload)
        runner.run_ops(range(workload.block))
        print(f"# workload {workload.name}: {workload.describe()}")
        print(f"# warm-up: {runner.attempted} operations run and checked, "
              "excluded from timings")
        if not trace:
            times, raw = runner.run_for(seconds)
            scaled, measured = cold_starts(COLD_STARTS)
            launches = (launches[0] + scaled, launches[1] + measured)
            metrics = end_to_end(runner, times, raw, launches)
        else:
            # untraced and traced passes alternate, so both see the same
            # moods of the host
            tracer = tracing.Tracer()
            plain: dict[int, list[float]] = {}
            traced: dict[int, list[float]] = {}
            passes = 0
            deadline = time.perf_counter() + TRACED_SHARE * seconds
            while passes == 0 or time.perf_counter() < deadline:
                runner.run_pass(plain, {})
                runner.tracer = tracer
                tracer.install()
                try:
                    runner.run_pass(traced, {})
                finally:
                    tracer.uninstall()
                    runner.tracer = None
                passes += 1
            ops = passes * workload.pool
            overhead = sum(op_times(plain)) / sum(op_times(traced))
            sf_calls = tracing.count_semifield(
                lambda: runner.run_ops(range(workload.block))
            ) / workload.block
            tracing.print_table(tracer.summary(), ops)
            metrics = per_layer(tracer, ops, sf_calls, overhead)
            path = OUT / f"trace-{workload.name}-seed{seed}.jsonl.gz"
            tracer.write(path, {"workload": workload.name, "env": environment(seed), "ops": ops})
            print(f"# spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
        correct = runner.failed == 0
        if seed == DEFAULT_SEED and DIGEST.is_file():
            want = json.loads(DIGEST.read_text())["workloads"].get(workload.name)
            got = runner.digest_sha()
            if want is not None and got != want["sha256"]:
                correct = False
                print(f"# digest mismatch for seed {seed}: {got} != {want['sha256']}")
        for reason in runner.reasons:
            print(f"# failure: {reason}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def write_digest() -> None:
    """Record the digest of every workload's leading operations for the
    default seed (run after a deliberate change of inputs or checks)."""
    out = {"seed": DEFAULT_SEED, "workloads": {}}
    for name, factory in WORKLOADS.items():
        workload = factory()
        workdir = OUT / f"work-digest-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            workload.setup(DEFAULT_SEED, workdir)
            runner = Runner(workload)
            sha = runner.digest_sha()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if runner.failed:
            _fail(f"{name}: {runner.reasons}")
        out["workloads"][name] = {"ops": workload.digest_ops, "sha256": sha}
    DIGEST.write_text(json.dumps(out, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digest", action="store_true",
                        help=f"rewrite {DIGEST.name} for seed {DEFAULT_SEED} and exit")
    args = parser.parse_args(argv)
    if args.write_digest:
        write_digest()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    print(f"# env {json.dumps(environment(args.seed))}")
    result = measure(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
