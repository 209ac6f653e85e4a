"""The benchmark's workloads: seeded inputs, CLI operations and their correctness checks.

Every workload runs the fig3 disordered-defect chain (t1 = 0.5, t2 = 1.0,
uniform disorder of amplitude 0.1 seeded from the benchmark seed, a defect
of height 0.2 at mid-chain, cell convention).  A pass is a fixed list of
CLI commands; each command is one operation and is checked after it runs:

- ``length_scan``: ``scan`` over L in {250, 500, 750, 1000} with empirical delta;
- ``certify``: ``bounds`` then ``check`` at L = 250 with theorem delta;
- ``figures``: ``reproduce fig3`` then ``reproduce fig4``.

For the seeds that have a file in ``reference/`` every CSV value is also
compared with the value recorded there, with a tolerance that scales with
eps * ||H|| / delta (see ``value_tolerance``).
"""

from __future__ import annotations

import csv
import json
import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

MODEL = {
    "t1": 0.5,
    "t2": 1.0,
    "disorder": {"amplitude": 0.1},
    "defect": {"height": 0.2, "center_frac": 0.5, "width": 1.0},
}
# Bound on ||H||_2 for MODEL: the largest row sum, (0.5 + 0.2 + 0.1) + (1.0 + 0.1).
H_NORM = 1.9

RESIDUAL_MAX = 1e-10
Q_ERROR_MAX = 1e-4

# Chain lengths per scale.  "tiny" keeps every check meaningful while
# running in well under a second; it serves the harness smoke test.
SCALES = {
    "full": {"scan_lengths": [250, 500, 750, 1000], "certify_length": 250},
    "tiny": {"scan_lengths": [250], "certify_length": 40},
}

BOUND_NAMES = [
    "lieb_robinson_t0.1", "lieb_robinson_t0.5", "lieb_robinson_t1",
    "edge_filter_decay", "anticommutator_trace_norm", "filter_switch_commutator_trace_norm",
]
CHECK_NAMES = ["hermiticity", "chirality", "bulk_edge_identity", "gap_filter_psd"]
# Columns compared exactly against the reference; "residual" is rounding
# noise, gated by RESIDUAL_MAX instead.
EXACT_COLUMNS = {"L", "seed", "ell", "imbalance", "nearest_int", "bound_name", "pass", "cell", "kind"}
SKIPPED_COLUMNS = {"residual"}
DELTA_RTOL = 1e-9


@dataclass(frozen=True)
class Outcome:
    """What one CLI command left behind."""

    exit_code: int
    stdout: str
    workdir: Path


@dataclass(frozen=True)
class Operation:
    name: str
    argv: list
    outputs: tuple  # files (relative to the work directory) the command writes
    check: Callable[[Outcome], list]  # returns the problems found, empty if correct


@dataclass(frozen=True)
class Plan:
    """Seeded inputs of one workload, ready to run."""

    operations: list
    config: Path  # parsed by the set-up measurement


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable[[int, Path, str], Plan]


# ---------------------------------------------------------------------------
# CSV reading and the reference comparison
# ---------------------------------------------------------------------------


def read_table(path: Path) -> tuple[list, list]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def value_tolerance(length: int, delta: float) -> float:
    """Absolute tolerance, relative to max(1, |reference|), of a value computed at (L, delta).

    Perturbing H by its rounding error eps * ||H|| moves tanh(H / delta) by
    about eps * ||H|| / delta per state; the factor 64 * n with n = 2L is
    headroom for a different but correct solver (a chiral SVD or a sparse
    path), which must still pass at fig4's delta = 1e-9.
    """
    return 64.0 * (2 * length) * 2.220446049250313e-16 * H_NORM / delta


def compare_table(name: str, header: list, rows: list, ref: dict, fixed: dict | None = None) -> list:
    """Problems found comparing a table with its reference; ``fixed`` gives L/delta for density tables."""
    if header != ref["header"]:
        return [f"{name}: header {header} differs from reference {ref['header']}"]
    if len(rows) != len(ref["rows"]):
        return [f"{name}: {len(rows)} rows, reference has {len(ref['rows'])}"]
    problems = []
    for i, (row, ref_row) in enumerate(zip(rows, ref["rows"])):
        cells = dict(zip(header, row))
        length = int(cells["L"]) if fixed is None else fixed["L"]
        delta = float(cells["delta"]) if fixed is None else fixed["delta"]
        tol = value_tolerance(length, delta)
        for column, got, want in zip(header, row, ref_row):
            if column in SKIPPED_COLUMNS:
                continue
            if column in EXACT_COLUMNS or want == "" or got == "":
                ok = got == want
            elif column == "delta":
                ok = math.isclose(float(got), float(want), rel_tol=DELTA_RTOL, abs_tol=0.0)
            else:
                ok = abs(float(got) - float(want)) <= tol * max(1.0, abs(float(want)))
            if not ok:
                problems.append(f"{name} row {i} {column}: {got} != reference {want} (tol {tol:.2e})")
    return problems


def load_reference(seed: int) -> dict | None:
    path = REFERENCE_DIR / f"seed-{seed}.json"
    return json.loads(path.read_text())["tables"] if path.is_file() else None


# ---------------------------------------------------------------------------
# Checks shared by the workloads
# ---------------------------------------------------------------------------


def _residual_problems(name: str, header: list, rows: list) -> list:
    col = header.index("residual")
    return [
        f"{name} row {i}: residual {row[col]} >= {RESIDUAL_MAX:g}"
        for i, row in enumerate(rows)
        if not float(row[col]) < RESIDUAL_MAX
    ]


def _svg_problems(path: Path) -> list:
    try:
        root = ET.fromstring(path.read_text())
    except (OSError, ET.ParseError) as exc:
        return [f"{path.name}: not a readable SVG document ({exc})"]
    if not root.tag.endswith("svg"):
        return [f"{path.name}: root element is {root.tag}, not svg"]
    return []


def _column(header: list, rows: list, name: str) -> list:
    col = header.index(name)
    return [row[col] for row in rows]


def _exit_problems(outcome: Outcome) -> list:
    return [] if outcome.exit_code == 0 else [f"exit code {outcome.exit_code}"]


def _write_config(workdir: Path, name: str, config: dict) -> Path:
    path = workdir / name
    path.write_text(json.dumps(config, indent=1))
    return path


# ---------------------------------------------------------------------------
# length_scan
# ---------------------------------------------------------------------------


def _prepare_length_scan(seed: int, workdir: Path, scale: str) -> Plan:
    lengths = SCALES[scale]["scan_lengths"]
    config = _write_config(workdir, "scan.json", {
        "model": MODEL,
        "geometry": {"length": lengths, "convention": "cell"},
        "scan": "length",
        "delta": {"mode": "empirical"},
        "seed": seed,
    })
    reference = load_reference(seed) if scale == "full" else None

    def check(outcome: Outcome) -> list:
        problems = _exit_problems(outcome)
        if problems:
            return problems
        header, rows = read_table(outcome.workdir / "scan.csv")
        problems += _residual_problems("scan.csv", header, rows)
        if [int(v) for v in _column(header, rows, "L")] != lengths:
            problems.append(f"scan.csv: lengths differ from {lengths}")
        problems += [
            f"scan.csv row {i}: nearest_int {v} != 1"
            for i, v in enumerate(_column(header, rows, "nearest_int")) if v != "1"
        ]
        problems += [
            f"scan.csv row {i}: q_error {v} >= {Q_ERROR_MAX:g}"
            for i, v in enumerate(_column(header, rows, "q_error")) if not float(v) < Q_ERROR_MAX
        ]
        if reference is not None:
            problems += compare_table("scan.csv", header, rows, reference["length_scan/scan.csv"])
        return problems

    argv = ["scan", "--config", str(config), "--reproducible", "--out", str(workdir / "scan.csv")]
    return Plan([Operation("scan", argv, ("scan.csv",), check)], config)


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

_CHECK_LINE = re.compile(r"^check (\w+): (ok|FAIL) \((.*)\)$")


def _prepare_certify(seed: int, workdir: Path, scale: str) -> Plan:
    config = _write_config(workdir, "certify.json", {
        "model": MODEL,
        "geometry": {"length": SCALES[scale]["certify_length"], "convention": "cell"},
        "delta": {"mode": "theorem", "decay_length": 1.0},
        "seed": seed,
    })
    reference = load_reference(seed) if scale == "full" else None

    def check_bounds(outcome: Outcome) -> list:
        problems = _exit_problems(outcome)
        if problems:
            return problems
        header, rows = read_table(outcome.workdir / "bounds.csv")
        names = _column(header, rows, "bound_name")
        if names != BOUND_NAMES:
            problems.append(f"bounds.csv: bound names {names} differ from {BOUND_NAMES}")
        problems += [
            f"bounds.csv: {name} does not pass"
            for name, passed in zip(names, _column(header, rows, "pass")) if passed != "true"
        ]
        if reference is not None:
            problems += compare_table("bounds.csv", header, rows, reference["certify/bounds.csv"])
        return problems

    def check_check(outcome: Outcome) -> list:
        problems = _exit_problems(outcome)
        matches = [_CHECK_LINE.match(ln) for ln in outcome.stdout.splitlines()]
        if None in matches or [m.group(1) for m in matches] != CHECK_NAMES:
            return problems + [f"check output is not the {len(CHECK_NAMES)} expected lines: {outcome.stdout!r}"]
        problems += [f"check {m.group(1)}: {m.group(2)}" for m in matches if m.group(2) != "ok"]
        residual = float(matches[CHECK_NAMES.index("bulk_edge_identity")].group(3).split("=")[1])
        if not residual < RESIDUAL_MAX:
            problems.append(f"check bulk_edge_identity: residual {residual:g} >= {RESIDUAL_MAX:g}")
        return problems

    bounds_argv = ["bounds", "--config", str(config), "--reproducible", "--out", str(workdir / "bounds.csv")]
    return Plan([
        Operation("bounds", bounds_argv, ("bounds.csv",), check_bounds),
        Operation("check", ["check", "--config", str(config)], (), check_check),
    ], config)


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

FIG3_LENGTHS = list(range(10, 101, 10))
# (L, delta) at which the density table is evaluated.
FIG3_DENSITY = {"L": 30, "delta": 1.0 / 20.0}


def _prepare_figures(seed: int, workdir: Path, scale: str) -> Plan:
    # The pipelines build their own configs; set-up parses the fig3 scan's
    # equivalent config file.
    config = _write_config(workdir, "fig3.json", {
        "model": MODEL,
        "geometry": {"length": FIG3_LENGTHS, "convention": "cell"},
        "scan": "length",
        "delta": {"mode": "empirical"},
        "seed": seed,
    })
    reference = load_reference(seed)
    out = workdir / "figures"

    def tables(names: tuple, fixed: dict) -> list:
        problems = []
        for name in names:
            path = out / f"{name}.csv"
            header, rows = read_table(path)
            if "residual" in header:
                problems += _residual_problems(path.name, header, rows)
            problems += _svg_problems(out / f"{name}.svg")
            if reference is not None:
                problems += compare_table(path.name, header, rows, reference[f"figures/{name}.csv"],
                                          fixed.get(name))
        return problems

    def check_fig3(outcome: Outcome) -> list:
        problems = _exit_problems(outcome)
        if problems:
            return problems
        problems += tables(("fig3_length_scan", "fig3_density"), {"fig3_density": FIG3_DENSITY})
        header, rows = read_table(out / "fig3_length_scan.csv")
        if [int(v) for v in _column(header, rows, "L")] != FIG3_LENGTHS:
            problems.append(f"fig3_length_scan.csv: lengths differ from {FIG3_LENGTHS}")
        # The density tables must sum to indices obeying edge - bulk = 0 (cell convention).
        header, rows = read_table(out / "fig3_density.csv")
        sums = {"edge": 0.0, "bulk": 0.0}
        for value, kind in zip(_column(header, rows, "value"), _column(header, rows, "kind")):
            sums[kind] += float(value)
        if len(rows) != 2 * FIG3_DENSITY["L"] or not abs(sums["edge"] - sums["bulk"]) < RESIDUAL_MAX:
            problems.append(f"fig3_density.csv: {len(rows)} rows, edge - bulk = {sums['edge'] - sums['bulk']:g}")
        return problems

    def check_fig4(outcome: Outcome) -> list:
        problems = _exit_problems(outcome)
        if problems:
            return problems
        problems += tables(("fig4_switch_scan", "fig4_delta_scan"), {})
        header, rows = read_table(out / "fig4_switch_scan.csv")
        if [int(v) for v in _column(header, rows, "ell")] != list(range(1, 30)):
            problems.append("fig4_switch_scan.csv: switch positions differ from 1..29")
        header, rows = read_table(out / "fig4_delta_scan.csv")
        if len(rows) != 46:
            problems.append(f"fig4_delta_scan.csv: {len(rows)} rows, expected 46")
        return problems

    def outputs(names):
        return tuple(f"figures/{n}.{ext}" for n in names for ext in ("csv", "svg"))

    common = ["--seed", str(seed), "--out", str(out), "--reproducible"]
    return Plan([
        Operation("fig3", ["reproduce", "fig3", *common],
                  outputs(("fig3_length_scan", "fig3_density")), check_fig3),
        Operation("fig4", ["reproduce", "fig4", *common],
                  outputs(("fig4_switch_scan", "fig4_delta_scan")), check_fig4),
    ], config)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("length_scan", "dense large-L index path: four scan points up to L = 1000",
                 _prepare_length_scan),
        Workload("certify", "theorem-mode bulk gap, bound certificates and the self-check at L = 250",
                 _prepare_certify),
        Workload("figures", "many small repeated solves plus CSV and SVG emission (fig3, fig4)",
                 _prepare_figures),
    )
}
