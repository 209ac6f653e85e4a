"""Benchmark of the chiralchain command line, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload length_scan|certify|figures --seed N \
        --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

One run is one fresh process and one workload.  It builds the workload's
inputs from the seed, measures set-up time in fresh interpreters, runs one
untimed warm-up pass, then runs timed passes of real CLI commands
(``chiralchain.cli.main``, in process) until ``--seconds`` have elapsed.
Every command is checked for correctness after it runs.

With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
the run spends half its time untraced and half with every public function
of the package layers wrapped in spans, and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list every metric with its unit, and a full record (environment, pass times,
tail percentile, failures) goes to ``.bench_out/``.  ``--workload all`` runs
every workload in both modes, each in its own process, and prints one table.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH_DIR))

from tracing import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, Outcome, Plan  # noqa: E402

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_REPEATS = 5
# The tail percentile is the highest one with at least this many passes beyond it.
TAIL_BEYOND = 10
# The primary seed; the held-out seed 104729 (see README.md) confirms claims.
PRIMARY_SEED = 1

END_TO_END_UNITS = {"setup_s": "s", "pass_s.p50": "s", "pass_s.tail": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "cli.build_profile_s": "s",
    "cli.points": "count",
    "hamiltonian.build_s": "s",
    "hamiltonian.bulk_gap_s": "s",
    "hamiltonian.bulk_gap.calls": "count",
    "hamiltonian.bulk_gap.useful_ratio": "ratio",
    "hamiltonian.block_norms_s": "s",
    "hamiltonian.block_norms.calls": "count",
    "hamiltonian.short_range_s": "s",
    "spectral.eigh_s": "s",
    "spectral.eigh.calls": "count",
    "spectral.eigh.useful_ratio": "ratio",
    "spectral.eigh.dim3_sum": "n3_computed",
    "spectral.matrix_function_s": "s",
    "spectral.propagator_s": "s",
    "indices.index_report.self_s": "s",
    "indices.index_report.calls": "count",
    "indices.index_density_s": "s",
    "bounds.lieb_robinson.self_s": "s",
    "bounds.edge_filter.self_s": "s",
    "bounds.trace_norms.self_s": "s",
    "svgplot.emit_plot_s": "s",
    "svgplot.bytes": "bytes",
    "trace.overhead_s": "s",
}

SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import chiralchain
from chiralchain import cli
cli.load_config(sys.argv[2])
print(repr(time.monotonic()))
"""


class SourceMissing(RuntimeError):
    """The checkout has no chiralchain sources to benchmark."""


def import_package():
    """Import chiralchain from this checkout's ``src``, never from elsewhere."""
    init = SRC / "chiralchain" / "__init__.py"
    if not init.is_file():
        raise SourceMissing(f"no package sources at {init}")
    sys.path.insert(0, str(SRC))
    import chiralchain

    if Path(chiralchain.__file__).resolve() != init.resolve():
        raise SourceMissing(f"imported chiralchain from {chiralchain.__file__}, not {init}")
    return chiralchain


# ---------------------------------------------------------------------------
# Running passes
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def record(self, name: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append({"operation": name, "problems": problems[:10]})


def run_operation(cli, op, workdir: Path, tally: Tally) -> float:
    """Run one CLI command, check it, and return its wall time."""
    for rel in op.outputs:
        (workdir / rel).unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    problems = []
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            exit_code = cli.main(list(op.argv))
    except Exception:  # an operation that raises is a failed operation
        exit_code = None
        problems.append(traceback.format_exc())
    elapsed = time.perf_counter() - start
    if exit_code is not None:
        try:
            problems += op.check(Outcome(exit_code, stdout.getvalue(), workdir))
        except Exception:  # unreadable or missing output
            problems.append(traceback.format_exc())
    if problems and stderr.getvalue():
        problems.append(f"stderr: {stderr.getvalue()}")
    tally.record(op.name, problems)
    return elapsed


def run_pass(cli, plan: Plan, workdir: Path, tally: Tally) -> float:
    return sum(run_operation(cli, op, workdir, tally) for op in plan.operations)


def timed_passes(cli, plan, workdir, tally, seconds: float, tracer: Tracer | None = None) -> list:
    """Pass wall times, running passes until ``seconds`` have elapsed (at least one)."""
    times = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.pass_id = len(times)
        times.append(run_pass(cli, plan, workdir, tally))
        if time.perf_counter() - start >= seconds:
            return times


def setup_time(config: Path) -> float:
    """Seconds from starting a fresh interpreter until chiralchain is imported and the config parsed."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(config)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1]) - start


def tail(times: list) -> tuple[float, float, int]:
    """(value, percentile, passes): the highest percentile with TAIL_BEYOND passes beyond it.

    With fewer than TAIL_BEYOND + 1 passes no percentile qualifies and the
    fastest pass (percentile 0) is reported.
    """
    ordered = sorted(times)
    below = max(len(ordered) - TAIL_BEYOND, 1)
    percentile = 0.0 if len(ordered) <= TAIL_BEYOND else 100.0 * below / len(ordered)
    return ordered[below - 1], percentile, len(ordered)


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------


def layer_metrics(spans: list, overhead_s: float) -> dict:
    """Median over traced passes of each per-layer metric."""
    selfs = self_times(spans)
    by_pass: dict = {}
    for i, span in enumerate(spans):
        by_pass.setdefault(span.pass_id, []).append(i)
    per_pass = [_pass_metrics(spans, selfs, indices) for _, indices in sorted(by_pass.items())]
    out = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        # Counts stay whole numbers.
        median = statistics.median_low if all(isinstance(v, int) for v in values) else statistics.median
        out[name] = median(values)
    out["trace.overhead_s"] = overhead_s
    return out


def _pass_metrics(spans, selfs, indices) -> dict:
    def named(name):
        return [i for i in indices if spans[i].name == name]

    def outermost(name):
        # Inclusive time counts each call once even if the function recurses.
        keep = []
        for i in named(name):
            p = spans[i].parent
            while p is not None and spans[p].name != name:
                p = spans[p].parent
            if p is None:
                keep.append(i)
        return keep

    def total(name):
        return sum((spans[i].duration for i in outermost(name)), 0.0)

    def self_total(name):
        return sum((selfs[i] for i in named(name)), 0.0)

    def useful_ratio(calls):
        return len({spans[i].attrs["key"] for i in calls}) / len(calls) if calls else 0.0

    eigh = named("spectral.eigh")
    gap = named("hamiltonian.bulk_gap")
    cli_self = sum((
        selfs[i] for i in indices
        if spans[i].name.startswith("cli.") and spans[i].name != "cli.build_profile"
    ), 0.0)
    return {
        "cli.self_s": cli_self,
        "cli.build_profile_s": total("cli.build_profile"),
        "cli.points": len(named("cli.build_profile")),
        "hamiltonian.build_s": total("hamiltonian.build_ssh"),
        "hamiltonian.bulk_gap_s": total("hamiltonian.bulk_gap"),
        "hamiltonian.bulk_gap.calls": len(gap),
        "hamiltonian.bulk_gap.useful_ratio": useful_ratio(gap),
        "hamiltonian.block_norms_s": total("hamiltonian.block_norms"),
        "hamiltonian.block_norms.calls": len(named("hamiltonian.block_norms")),
        "hamiltonian.short_range_s": total("hamiltonian.short_range_constant"),
        "spectral.eigh_s": total("spectral.eigh"),
        "spectral.eigh.calls": len(eigh),
        "spectral.eigh.useful_ratio": useful_ratio(eigh),
        "spectral.eigh.dim3_sum": sum(spans[i].attrs["n"] ** 3 for i in eigh),
        "spectral.matrix_function_s": total("spectral.matrix_function"),
        "spectral.propagator_s": total("spectral.propagator"),
        "indices.index_report.self_s": self_total("indices.index_report"),
        "indices.index_report.calls": len(named("indices.index_report")),
        "indices.index_density_s": total("indices.index_density"),
        "bounds.lieb_robinson.self_s": self_total("bounds.lieb_robinson_check"),
        "bounds.edge_filter.self_s": self_total("bounds.edge_filter_decay_check"),
        "bounds.trace_norms.self_s": self_total("bounds.anticommutator_trace_norms"),
        "svgplot.emit_plot_s": total("svgplot.emit_plot"),
        "svgplot.bytes": sum(spans[i].attrs["bytes"] for i in named("svgplot.emit_plot")),
    }


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return caches


def _blas_threads() -> dict:
    """Threads each loaded OpenBLAS library uses, asked through its own API."""
    threads = {}
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return threads
    libs = sorted({ln.split()[-1] for ln in maps if "openblas" in ln.lower() and ln.split()[-1].startswith("/")})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(lib).name] = fn()
                break
    return threads


def environment() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS so its thread count is visible)

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# One measured run
# ---------------------------------------------------------------------------


def measure(name: str, seed: int, seconds: float, trace: bool,
            scale: str = "full", setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run one workload and return its full record; ``record['metrics']`` holds the reported metrics."""
    package = import_package()
    from chiralchain import cli

    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "scale": scale}
    tally = Tally()
    phases = record["phase_seconds"] = {}
    clock = time.perf_counter()

    def phase_done(phase):
        nonlocal clock
        now = time.perf_counter()
        phases[phase] = now - clock
        clock = now

    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"{name}-") as tmp:
        workdir = Path(tmp)
        plan = WORKLOADS[name].prepare(seed, workdir, scale)
        if not trace:
            setups = [setup_time(plan.config) for _ in range(setup_repeats)]
            phase_done("setup")
        run_pass(cli, plan, workdir, tally)  # warm-up, untimed
        phase_done("warm_up")
        if not trace:
            times = timed_passes(cli, plan, workdir, tally, seconds)
            value, percentile, count = tail(times)
            record["metrics"] = {
                "setup_s": statistics.median(setups),
                "pass_s.p50": statistics.median(times),
                "pass_s.tail": value,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            record.update(setup_times=setups, pass_times=times,
                          tail={"percentile": percentile, "passes": count})
        else:
            untraced = timed_passes(cli, plan, workdir, tally, seconds / 2)
            tracer = Tracer()
            try:
                tracer.install(package)
                traced = timed_passes(cli, plan, workdir, tally, seconds / 2, tracer)
            finally:
                tracer.uninstall()
            overhead = statistics.median(traced) - statistics.median(untraced)
            record["metrics"] = layer_metrics(tracer.spans, overhead)
            record.update(untraced_pass_times=untraced, traced_pass_times=traced,
                          spans=len(tracer.spans))
            spans_path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl.gz"
            tracer.write(spans_path)
            record["spans_file"] = str(spans_path.relative_to(ROOT))
        phase_done("timed")
    record.update(
        attempted=tally.attempted,
        failed=tally.failed,
        fail_ratio=tally.failed / tally.attempted,
        failures=tally.failures,
        environment=environment(),
    )
    return record


def _units(trace: bool) -> dict:
    return PER_LAYER_UNITS if trace else END_TO_END_UNITS


def result_line(record: dict) -> dict:
    units = _units(bool(record["trace"]))
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": record["metrics"][k], "unit": units[k]} for k in units},
    }


def summary_lines(record: dict) -> list:
    units = _units(bool(record["trace"]))
    lines = [f"workload {record['workload']} seed {record['seed']} trace {record['trace']}"]
    lines += [f"  {k} = {record['metrics'][k]!r} {units[k]}" for k in units]
    if "tail" in record:
        lines.append(f"  pass_s.tail is p{record['tail']['percentile']:.1f} of {record['tail']['passes']} passes")
    lines.append(f"  fail_ratio = {record['fail_ratio']!r} ({record['failed']} of {record['attempted']} operations)")
    for failure in record["failures"]:
        lines.append(f"  FAILED {failure['operation']}: {failure['problems'][0].strip()}")
    env = record["environment"]
    lines.append(f"  env: {env['nproc']} cpus, {env['cpu_model']}, caches {env['caches']}, "
                 f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
                 f"{env['blas']}, blas threads {env['blas_threads']}")
    return lines


# ---------------------------------------------------------------------------
# All workloads, one table
# ---------------------------------------------------------------------------


def run_all(seed: int, seconds: float) -> int:
    """Run every workload in both modes, each in a fresh process, and print one table."""
    records = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True,
            )
            sys.stderr.write(proc.stderr)
            if proc.returncode not in (0, 1):
                print(f"{name} trace {trace}: exit code {proc.returncode}", file=sys.stderr)
                return 2
            records[name, trace] = json.loads(_record_path(name, seed, trace).read_text())
    names = list(WORKLOADS)
    print(f"{'metric':36} {'unit':12} " + " ".join(f"{n:>14}" for n in names))
    rows = [(k, u, 0) for k, u in END_TO_END_UNITS.items()]
    rows.append(("fail_ratio", "ratio", None))
    rows += [(k, u, 1) for k, u in PER_LAYER_UNITS.items()]
    for metric, unit, trace in rows:
        if trace is None:
            cells = [records[n, 0]["fail_ratio"] + records[n, 1]["fail_ratio"] for n in names]
        else:
            cells = [records[n, trace]["metrics"][metric] for n in names]
        print(f"{metric:36} {unit:12} " + " ".join(f"{c:>14.6g}" for c in cells))
    tails = ", ".join(f"{n} p{records[n, 0]['tail']['percentile']:.1f} of {records[n, 0]['tail']['passes']}"
                      for n in names)
    print(f"pass_s.tail percentiles: {tails}")
    print("environment: " + json.dumps(records[names[0], 0]["environment"]))
    return 0 if all(r["failed"] == 0 for r in records.values()) else 1


def _record_path(name: str, seed: int, trace: int) -> Path:
    return OUT_DIR / f"result-{name}-seed{seed}-trace{trace}.json"


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=PRIMARY_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            import_package()
            return run_all(args.seed, args.seconds)
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except SourceMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    _record_path(args.workload, args.seed, args.trace).write_text(json.dumps(record, indent=1))
    print("\n".join(summary_lines(record)))
    result = result_line(record)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
