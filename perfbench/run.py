"""End-to-end benchmark of the formlab CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is `src/formlab`, put on
PYTHONPATH for every child.  The workload's inputs are generated from the
seed (see gen.py) into a scratch directory under `.bench_work/`.  One pass
is the workload's fixed sequence of CLI invocations, each a fresh
`python -m formlab` process; the load is a closed loop with one client, so
the next invocation starts only after the previous one has exited.  Passes
repeat until S seconds have gone by.  Every report is validated; an
invocation that fails validation counts in `failed`.

With --trace 0 the run prints the end-to-end metrics: setup_s, the mean
and the median pass wall and CPU time, peak_rss_mb and fail_ratio.  The
summary line carries those in E2E_SUMMARY; `failed` carries the failures.
With --trace 1 it
alternates untraced passes with traced passes, in which every invocation
is replayed by replay.py with spans around the calls into each layer, and
prints the per-layer self times and work counts (medians over the traced
passes) and the tracing overhead.  The last line of stdout is one JSON
object; the lines before it give each metric with its unit and sample
count.  Results, run metadata and spans are written to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

SETUP_MIN = 5
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# one BLAS thread per child: with two, the spinning helper thread made CPU
# time and wall time depend on load from outside the benchmark
CHILD_THREADS = "1"
# the end-to-end metrics of the summary line, which BENCHMARK.json bounds
E2E_SUMMARY = ("setup_s", "pass_wall_mean_s", "pass_cpu_mean_s", "peak_rss_mb")

CHECK_NAMES = (
    "boundary_squared_zero",
    "coboundary_squared_zero",
    "star_double_identity",
    "stokes_adjointness",
    "generator_gram_identity",
    "bracket_closure",
    "adjoint_invariance",
    "action_global_invariance",
    "trivial_current_closed",
    "charge_homology_invariance",
    "trivial_charge_flux_identity",
    "defect_topological_gating",
    "groupoid_quaternion_laws",
    "graded_composition_contract",
    "dsl_roundtrip",
)
LAYER_SPANS = (
    "cli.import",
    "config.load",
    "mesh.assemble",
    "mesh.chains",
    "mesh.intersection",
    "calculus.solve",
    "calculus.operators",
    "defect.report",
    "defect.charges",
    "defect.apply",
    "fieldio.write",
    "fieldio.read",
    "dsl.compose_word",
    "cli.report",
) + tuple(f"checks.{name}" for name in CHECK_NAMES)
COUNTS = {
    "mesh.cells": "count",
    "mesh.boundary_nnz": "count",
    "mesh.intersection_calls": "count",
    "calculus.solve_unknowns": "count",
    "fieldio.write_bytes": "bytes",
    "fieldio.read_rows": "count",
    "defect.sweeps": "count",
    "defect.crossing_sweeps": "count",
    "defect.crossings": "count",
}


# -- children ----------------------------------------------------------------


@dataclass
class Child:
    """One finished child process: exit code, wall and CPU time, peak memory."""

    code: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


def run_child(argv, env, cwd: Path) -> Child:
    """Run argv to completion; rusage comes from os.wait4 on that one child."""
    out_path, err_path = cwd / ".child.out", cwd / ".child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        proc.returncode,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        out_path.read_bytes(),
        err_path.read_bytes(),
    )


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env.setdefault(var, CHILD_THREADS)
    return env


def cli_argv(inv: dict, traced: bool) -> list:
    prefix = "replay_" if traced else ""
    if traced:
        argv = [sys.executable, str(HERE / "replay.py"), inv["command"], inv["config"]]
    else:
        argv = [sys.executable, "-m", "formlab", inv["command"], inv["config"]]
    argv += ["--out", f"{prefix}{inv['name']}.report.json"]
    if inv["field_csv"]:
        argv += ["--field-csv", prefix + inv["field_csv"]]
    return argv


# -- validation --------------------------------------------------------------


def _close(a, b, rel: float) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rel * (1.0 + np.abs(b))))


def check_report(inv: dict, report: dict) -> str | None:
    """Return why the report is wrong for this invocation, or None."""
    expect = inv["expect"]
    command = inv["command"]
    if command == "check":
        checks = report.get("checks") or []
        failing = [c["name"] for c in checks if not c["passed"]]
        if not checks or failing:
            return f"checks failing: {failing or 'none reported'}"
    elif command == "compose":
        if report.get("ok") is not True:
            return f"composition failed: {report.get('diagnostic')}"
        if (report["source_degree"], report["target_degree"]) != (
            expect["source_degree"],
            expect["target_degree"],
        ):
            return "wrong source/target degree"
        m = np.asarray(report["group_element_matrix"], dtype=np.float64)
        if m.ndim == 3:  # complex entries are [re, im] pairs
            m = m[..., 0] + 1j * m[..., 1]
        if not np.allclose(m.conj().T @ m, np.eye(m.shape[0]), atol=1e-9):
            return "group element matrix is not unitary"
        if "matrix" in expect and not _close(m.real, expect["matrix"], 1e-9):
            return "group element matrix differs from the product of the atoms"
    elif command == "solve":
        residual = report["results"]["eom_residual_norm"]
        if not residual <= expect["solver_tol"]:
            return f"eom_residual_norm {residual} above the solver tolerance"
    elif command == "defect":
        results = report["results"]
        sweeps = expect["sweeps"]
        if [r["name"] for r in results] != [s["name"] for s in sweeps]:
            return "defect results do not match the requested sweeps"
        for r, s in zip(results, sweeps):
            if r["crossings"] != s["crossings"]:
                return f"{r['name']}: {r['crossings']} crossings, expected {s['crossings']}"
            if r["degree_after"] != r["degree_before"] ^ (s["crossings"] % 2):
                return f"{r['name']}: degree not flipped once per crossing"
            if not _close(r["observable_before"], expect["observable_before"], 1e-12):
                return f"{r['name']}: observable_before differs from the field's loop integral"
            if s["crossings"] == 0:
                if r["observable_after"] != r["observable_before"]:
                    return f"{r['name']}: a clear sweep changed the observable"
            elif not _close(r["observable_after"], s["observable_after"], 1e-9):
                return f"{r['name']}: observable_after is not the rotated observable"
    elif command == "charges":
        results = report["results"]
        wanted = expect["charges"]
        if [(r["name"], r["kind"]) for r in results] != [(c["name"], c["kind"]) for c in wanted]:
            return "charge results do not match the requested charges"
        for r, c in zip(results, wanted):
            value = np.asarray(r["value"], dtype=np.float64)
            if not np.all(np.isfinite(value)):
                return f"{r['name']}: non-finite charge"
            # a whole coordinate plane is a closed surface: d psi integrates to 0
            if c["support"]["kind"] == "plane" and not np.all(np.abs(value) <= 1e-9):
                return f"{r['name']}: flux of d psi through a closed plane is {value}"
    return None


class Validator:
    """Checks each invocation and that repeated inputs give identical output."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.reference = {}
        self.failures = []
        self.replay_mismatches = 0

    def _digests(self, inv: dict, prefix: str) -> tuple:
        report = (self.workdir / f"{prefix}{inv['name']}.report.json").read_bytes()
        field = b""
        if inv["field_csv"]:
            field = hashlib.sha256((self.workdir / (prefix + inv["field_csv"])).read_bytes()).digest()
        return report, field

    def untraced(self, inv: dict, child: Child) -> None:
        try:
            if child.code != 0:
                raise ValueError(f"exit {child.code}: {child.stderr.decode(errors='replace')[-400:]}")
            output = self._digests(inv, "")
            problem = check_report(inv, json.loads(output[0]))
            if problem:
                raise ValueError(problem)
            if self.reference.setdefault(inv["name"], output) != output:
                raise ValueError("output differs from the first pass on the same input")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.failures.append(f"{inv['name']}: {exc}")

    def traced(self, inv: dict, child: Child):
        """Return the replay's spans and counts, or None if it failed."""
        try:
            if child.code != 0:
                raise ValueError(f"exit {child.code}: {child.stderr.decode(errors='replace')[-400:]}")
            record = json.loads(child.stdout.decode().strip().splitlines()[-1])
            if self.reference.get(inv["name"]) != self._digests(inv, "replay_"):
                self.replay_mismatches += 1
                print(f"warning: replayed {inv['name']} report differs from the CLI's", file=sys.stderr)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            self.failures.append(f"replay {inv['name']}: {exc}")
            return None
        return record


# -- passes ------------------------------------------------------------------


@dataclass
class Pass:
    """Sums over one pass's invocations; a traced pass also keeps the replay records."""

    traced: bool
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    records: list = field(default_factory=list)  # (invocation name, replay record)


def run_pass(invocations, env, workdir: Path, validator: Validator, traced: bool) -> Pass:
    result = Pass(traced)
    for inv in invocations:
        child = run_child(cli_argv(inv, traced), env, workdir)
        result.wall += child.wall
        result.cpu += child.cpu
        result.rss_mb = max(result.rss_mb, child.rss_mb)
        if traced:
            record = validator.traced(inv, child)
            if record is not None:
                result.records.append((inv["name"], record))
        else:
            validator.untraced(inv, child)
    return result


def layer_values(p: Pass) -> tuple:
    """Per-layer self times and counts of one traced pass (sums over its invocations)."""
    values = {name: 0.0 for name in LAYER_SPANS}
    counts = {name: 0 for name in COUNTS}
    covered = total = 0.0
    for _, record in p.records:
        spans = record["spans"]
        self_time = [end - start for _, start, end, _ in spans]
        for name, start, end, parent in spans:
            if parent >= 0:
                self_time[parent] -= end - start
        for (name, *_), t in zip(spans, self_time):
            if name in values:
                values[name] += t
        counts["mesh.intersection_calls"] += sum(s[0] == "mesh.intersection" for s in spans)
        for name, value in record["counts"].items():
            counts[name] += value
        root = spans[0][2] - spans[0][1]
        total += root
        covered += root - self_time[0]
    values["trace.span_coverage"] = covered / total if total else 0.0
    return values, counts


# -- metadata ----------------------------------------------------------------


def metadata(args) -> dict:
    import scipy

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    env = child_env()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": rev,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {var: env.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
    }


# -- main --------------------------------------------------------------------


def check_import(env, workdir: Path) -> None:
    """Fail unless the children import formlab from this checkout (also warms the caches)."""
    probe = run_child(
        [sys.executable, "-c", "import formlab.cli, formlab; print(formlab.__file__)"], env, workdir
    )
    where = probe.stdout.decode().strip()
    if probe.code != 0 or not Path(where).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"formlab does not import from {SRC}: {probe.stderr.decode()[-400:]}")


def import_time(env, workdir: Path) -> float:
    """Wall time of a fresh interpreter that imports formlab.cli and exits."""
    child = run_child([sys.executable, "-c", "import formlab.cli"], env, workdir)
    if child.code != 0:
        raise RuntimeError("importing formlab.cli failed")
    return child.wall


def measure(args, invocations, env, workdir: Path, validator: Validator):
    """Run passes until the next one would end after the deadline.

    Untraced runs time one set-up import before each pass, so the set-up
    samples spread over the run like the passes do.  Traced runs alternate
    untraced and traced passes and make at least one of each.
    """
    passes, setup, elapsed = [], [], {False: [], True: []}
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and bool(passes) and not passes[-1].traced
        started = time.perf_counter()
        if elapsed[traced] and started + statistics.median(elapsed[traced]) > deadline:
            break
        if not args.trace:
            setup.append(import_time(env, workdir))
        passes.append(run_pass(invocations, env, workdir, validator, traced))
        elapsed[traced].append(time.perf_counter() - started)
    while not args.trace and len(setup) < SETUP_MIN:
        setup.append(import_time(env, workdir))
    return passes, setup


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="formlab CLI benchmark")
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "formlab" / "cli.py").is_file():
        print(f"error: no formlab sources under {SRC}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    outdir = ROOT / ".bench_out"
    # on SIGTERM unwind through run_child, which kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        return _run(args, workdir, outdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def e2e_metrics(setup: list, plain: list, attempted: int) -> dict:
    """name -> (value, unit, sample note) for an untraced run.

    With one client in a closed loop, the mean pass time is the inverse of
    the throughput.  It is the bounded figure (E2E_SUMMARY) because it
    averages over the run: on a shared 2-core host the machine's speed
    drifts by 20-40 % over stretches of tens of seconds, and the median of a
    40 s run follows whichever stretch holds most passes.  In ten-seed
    trials the run medians spread 1.2-1.6 times as widely as the run means.
    """
    n = len(plain)
    return {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} imports"),
        "pass_wall_mean_s": (statistics.fmean(p.wall for p in plain), "s", f"mean of {n} passes"),
        "pass_cpu_mean_s": (statistics.fmean(p.cpu for p in plain), "s", f"mean of {n} passes"),
        "pass_wall_p50_s": (statistics.median(p.wall for p in plain), "s", f"median of {n} passes"),
        "pass_cpu_p50_s": (statistics.median(p.cpu for p in plain), "s", f"median of {n} passes"),
        "peak_rss_mb": (max(p.rss_mb for p in plain), "MB", f"max of {attempted} invocations"),
    }


def layer_metrics(plain: list, traced: list, per_pass: list, drift: dict, mismatches: int) -> dict:
    """name -> (value, unit, sample note) for a traced run; per_pass holds layer_values."""
    note = f"median of {len(traced)} traced passes"
    metrics = {}
    for name in LAYER_SPANS:
        metrics[f"{name}_s"] = (statistics.median(v[name] for v, _ in per_pass), "s", note)
    metrics["trace.span_coverage"] = (
        statistics.median(v["trace.span_coverage"] for v, _ in per_pass), "1", note
    )
    for name, unit in COUNTS.items():
        metrics[name] = (statistics.median(c[name] for _, c in per_pass), unit, note)
    plain_wall = statistics.median(p.wall for p in plain)
    traced_wall = statistics.median(p.wall for p in traced)
    metrics["trace.overhead_s"] = (
        traced_wall - plain_wall,
        "s",
        f"traced {traced_wall:.4f} s ({len(traced)} passes) - untraced "
        f"{plain_wall:.4f} s ({len(plain)} passes)",
    )
    metrics["trace.count_drift"] = (len(drift), "count", "counts that did not repeat")
    metrics["trace.replay_mismatches"] = (mismatches, "count", "replayed reports unlike the CLI's")
    return metrics


def count_drift(outdir: Path, args, per_pass: list) -> dict:
    """Counts that differ between the traced passes, or from an earlier run of this seed."""
    drift = {}
    for name in COUNTS:
        seen = sorted({c[name] for c in per_pass})
        if len(seen) > 1:
            drift[name] = seen
    path = outdir / f"counts-{args.workload}-seed{args.seed}.json"
    if path.is_file():
        earlier = json.loads(path.read_text())
        for name, value in per_pass[0].items():
            if earlier.get(name) != value:
                drift.setdefault(name, [earlier.get(name), value])
    else:
        path.write_text(json.dumps(per_pass[0], sort_keys=True) + "\n")
    return drift


def _run(args, workdir: Path, outdir: Path) -> int:
    invocations = gen.generate(args.workload, args.seed, workdir)
    env = child_env()
    validator = Validator(workdir)
    check_import(env, workdir)
    passes, setup = measure(args, invocations, env, workdir, validator)
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    attempted = len(invocations) * len(passes)
    failed = len(validator.failures)
    outdir.mkdir(exist_ok=True)

    drift = {}
    if args.trace:
        per_pass = [layer_values(p) for p in traced]
        drift = count_drift(outdir, args, [counts for _, counts in per_pass])
        metrics = layer_metrics(plain, traced, per_pass, drift, validator.replay_mismatches)
    else:
        metrics = e2e_metrics(setup, plain, attempted)
    for failure in validator.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, seen in drift.items():
        print(f"warning: count {name} did not repeat: {seen}", file=sys.stderr)

    meta = metadata(args)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = {
        "metadata": meta,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "setup_s_samples": setup,
        "passes": [
            {"traced": p.traced, "wall_s": p.wall, "cpu_s": p.cpu, "peak_rss_mb": p.rss_mb}
            for p in passes
        ],
        "attempted": attempted,
        "failures": validator.failures,
        "count_drift": drift,
    }
    (outdir / f"{stem}.json").write_text(json.dumps(results, indent=1) + "\n")
    if traced:
        with open(outdir / f"spans-{stem}.jsonl", "w") as handle:
            for k, p in enumerate(passes):
                for name, record in p.records:
                    handle.write(json.dumps({"pass": k, "invocation": name, **record}) + "\n")

    print("metadata " + json.dumps(meta, sort_keys=True))
    print(
        f"workload {args.workload} seed {args.seed}: {len(passes)} passes of "
        f"{len(invocations)} invocations ({', '.join(i['name'] for i in invocations)})"
    )
    print(f"{'fail_ratio':44s} {failed / attempted:14.6g} {'1':6s} {failed} of {attempted} invocations")
    for name, (value, unit, note) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit:6s} {note}")
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": float(v), "unit": u}
            for k, (v, u, _) in metrics.items()
            if args.trace or k in E2E_SUMMARY
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
