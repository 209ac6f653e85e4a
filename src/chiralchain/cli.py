"""Experiment runner: JSON configs, parameter scans, CSV and SVG emission.

One experiment per config file, exactly one scan axis (length, delta, switch
position, or none).  Output tables carry a provenance comment block and are
byte-identical across runs for a fixed config and seed; a timestamp comment
is added unless rendering in reproducible mode.

Exit codes: 0 success, 1 config error, 2 numerical failure, 3 self-check
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (
    BOUND_CSV_HEADER,
    correlation_length,
    edge_filter_decay_check,
    gap_filter_blocks,
    gap_filter_min_eigenvalue,
    lieb_robinson_check,
    trace_norm_checks,
)
from .hamiltonian import (
    ChiralHamiltonian,
    CouplingProfile,
    apply_defect,
    apply_disorder,
    build_ssh,
    bulk_gap,
    short_range_constant,
)
from .indices import (
    INDEX_CSV_HEADER,
    DeltaMode,
    DeltaPolicy,
    IndexKind,
    index_density,
    index_report,
    resolve_delta,
)
from .lattice import Convention, SwitchError, make_geometry, switch_function
from .spectral import NumericalError
from .svgplot import emit_plot

DENSITY_CSV_HEADER = ["cell", "value", "kind"]

FIG3_LENGTHS = list(range(10, 101, 10))

# Times probed by the propagator certificate pipeline.
BOUNDS_TIMES = (0.1, 0.5, 1.0)


class ConfigError(ValueError):
    """Invalid experiment configuration; the message carries the field path."""


class ScanAxis(Enum):
    LENGTH = "length"
    DELTA = "delta"
    SWITCH = "switch"
    NONE = "none"


# ---------------------------------------------------------------------------
# Configuration schema
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DisorderConfig:
    amplitude: float = 0.0
    seed: int | None = None


@dataclass(frozen=True)
class DefectConfig:
    height: float = 0.0
    center_frac: float = 0.5
    width: float = 1.0


@dataclass(frozen=True)
class ModelConfig:
    t1: float | tuple
    t2: float | tuple
    disorder: DisorderConfig = DisorderConfig()
    defect: DefectConfig = DefectConfig()
    boundary_potential: tuple = ()


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelConfig
    length: int | tuple
    convention: Convention = Convention.CELL_C2
    delta: DeltaPolicy = DeltaPolicy()
    switch: int | str | tuple = "middle"
    seed: int | None = None
    scan: ScanAxis = ScanAxis.NONE
    delta_values: tuple = ()
    output: str | None = None

    def to_dict(self) -> dict:
        """Canonical plain-dict form; parse(to_dict()) round-trips."""
        model = {"t1": _plain(self.model.t1), "t2": _plain(self.model.t2)}
        if self.model.disorder.amplitude or self.model.disorder.seed is not None:
            d = {"amplitude": self.model.disorder.amplitude}
            if self.model.disorder.seed is not None:
                d["seed"] = self.model.disorder.seed
            model["disorder"] = d
        if self.model.defect.height:
            model["defect"] = {
                "height": self.model.defect.height,
                "center_frac": self.model.defect.center_frac,
                "width": self.model.defect.width,
            }
        if self.model.boundary_potential:
            model["boundary_potential"] = [list(p) for p in self.model.boundary_potential]
        out = {
            "model": model,
            "geometry": {
                "length": _plain(self.length),
                "convention": self.convention.value,
            },
            "switch": _plain(self.switch),
            "scan": self.scan.value,
        }
        delta = {}
        if self.scan is ScanAxis.DELTA:
            out["delta_values"] = list(self.delta_values)
        # A delta scan ignores the mode, so its default is left out there.
        if self.scan is not ScanAxis.DELTA or self.delta.mode is not DeltaMode.EMPIRICAL:
            delta["mode"] = self.delta.mode.value
        if self.delta.mode is DeltaMode.MANUAL:
            delta["value"] = self.delta.value
        # The bound certificates read decay_length in every mode and scan.
        if self.delta.mode is DeltaMode.THEOREM or self.delta.decay_length != 1.0:
            delta["decay_length"] = self.delta.decay_length
        if delta:
            out["delta"] = delta
        if self.seed is not None:
            out["seed"] = self.seed
        if self.output is not None:
            out["output"] = self.output
        return out

    def config_hash(self) -> str:
        """Hash of the experiment; where its table is written is not part of it."""
        experiment = dataclasses.replace(self, output=None).to_dict()
        blob = json.dumps(experiment, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _plain(v):
    if isinstance(v, tuple):
        return list(v)
    return v


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_finite_number(v) -> bool:
    """True for a JSON number that is a finite float (JSON also admits NaN and Infinity)."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def _object(v, path: str) -> dict:
    _expect(isinstance(v, dict), path, "must be an object")
    return v


def _number(d: dict, key: str, path: str, default=None, required=False) -> float | None:
    if key not in d:
        _expect(not required, f"{path}.{key}", "is required")
        return default
    _expect(_is_finite_number(d[key]), f"{path}.{key}", "must be a finite number")
    return float(d[key])


def _integer(d: dict, key: str, path: str) -> int | None:
    if key not in d:
        return None
    _expect(_is_int(d[key]), f"{path}.{key}", "must be an integer")
    return int(d[key])


def _choice(enum: type[Enum], v, path: str) -> Enum:
    try:
        return enum(v)
    except ValueError:
        raise ConfigError(f"{path}: must be one of {[m.value for m in enum]}, got {v!r}") from None


def _int_or_list(v, path: str, message: str) -> int | tuple:
    """An integer, or a non-empty list of integers as a tuple."""
    if isinstance(v, list) and v and all(map(_is_int, v)):
        return tuple(int(x) for x in v)
    _expect(_is_int(v), path, message)
    return int(v)


def _coupling_field(d: dict, key: str, path: str):
    _expect(key in d, f"{path}.{key}", "is required")
    v = d[key]
    items = v if isinstance(v, list) else [v]
    _expect(all(_is_int(x) or isinstance(x, float) for x in items), f"{path}.{key}",
            "must be a number or a list of numbers")
    _expect(all(map(_is_finite_number, items)), f"{path}.{key}", "contains non-finite entries")
    return tuple(float(x) for x in v) if isinstance(v, list) else float(v)


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw JSON object into an ExperimentConfig; errors carry field paths."""
    _expect(isinstance(raw, dict), "config", "must be a JSON object")
    unknown = set(raw) - {
        "model", "geometry", "delta", "switch", "seed", "scan", "delta_values", "output",
    }
    _expect(not unknown, "config", f"unknown keys {sorted(unknown)}")

    model_raw = _object(raw.get("model"), "model")
    t1 = _coupling_field(model_raw, "t1", "model")
    t2 = _coupling_field(model_raw, "t2", "model")

    disorder = DisorderConfig()
    if "disorder" in model_raw:
        d = _object(model_raw["disorder"], "model.disorder")
        amplitude = _number(d, "amplitude", "model.disorder", required=True)
        _expect(amplitude >= 0, "model.disorder.amplitude", "must be >= 0")
        disorder = DisorderConfig(amplitude, _integer(d, "seed", "model.disorder"))

    defect = DefectConfig()
    if "defect" in model_raw:
        d = _object(model_raw["defect"], "model.defect")
        width = _number(d, "width", "model.defect", default=1.0)
        _expect(width > 0, "model.defect.width", "must be > 0")
        defect = DefectConfig(
            _number(d, "height", "model.defect", required=True),
            _number(d, "center_frac", "model.defect", default=0.5),
            width,
        )

    boundary = ()
    if "boundary_potential" in model_raw:
        bp = model_raw["boundary_potential"]
        _expect(isinstance(bp, list), "model.boundary_potential", "must be a list of [cell, value] pairs")
        pairs = []
        for i, item in enumerate(bp):
            path = f"model.boundary_potential[{i}]"
            _expect(isinstance(item, list) and len(item) == 2, path, "must be a [cell, value] pair")
            cell, value = item
            _expect(_is_int(cell), path, "cell must be an integer")
            _expect(_is_finite_number(value), path, "value must be a finite number")
            pairs.append((int(cell), float(value)))
        boundary = tuple(pairs)

    geom_raw = _object(raw.get("geometry"), "geometry")
    length = _int_or_list(geom_raw.get("length"), "geometry.length",
                          "must be an integer or a non-empty list of integers")
    convention = _choice(Convention, geom_raw.get("convention", "cell"), "geometry.convention")
    scan = _choice(ScanAxis, raw.get("scan", "none"), "scan")
    switch = raw.get("switch", "middle")
    if switch != "middle":
        switch = _int_or_list(switch, "switch",
                              "must be 'middle', an integer, or a non-empty list of integers")

    delta_values = ()
    if "delta_values" in raw:
        dv = raw["delta_values"]
        _expect(isinstance(dv, list) and dv, "delta_values", "must be a non-empty list of numbers")
        for i, x in enumerate(dv):
            _expect(_is_finite_number(x) and x > 0, f"delta_values[{i}]",
                    "must be a finite positive number")
        delta_values = tuple(float(x) for x in dv)

    delta = DeltaPolicy()
    if "delta" in raw:
        d = _object(raw["delta"], "delta")
        mode = _choice(DeltaMode, d.get("mode", "empirical"), "delta.mode")
        value = _number(d, "value", "delta")
        if mode is DeltaMode.MANUAL:
            _expect(value is not None and value > 0, "delta.value", "must be > 0 for manual mode")
        else:
            # Only manual mode reads (and to_dict writes) a value.
            value = None
        decay_length = _number(d, "decay_length", "delta", default=1.0)
        _expect(decay_length > 0, "delta.decay_length", "must be > 0")
        delta = DeltaPolicy(mode, value=value, decay_length=decay_length)

    seed = _integer(raw, "seed", "config")
    output = raw.get("output")
    _expect(output is None or isinstance(output, str), "output", "must be a string path")

    # Scan shape: exactly the scanned field is a list.
    length_is_list = isinstance(length, tuple)
    _expect(length_is_list == (scan is ScanAxis.LENGTH), "geometry.length",
            "must be a list exactly when scan is 'length'")
    _expect(isinstance(switch, tuple) == (scan is ScanAxis.SWITCH), "switch",
            "must be a list exactly when scan is 'switch'")
    _expect(bool(delta_values) == (scan is ScanAxis.DELTA), "delta_values",
            "must be present exactly when scan is 'delta'")
    if disorder.amplitude > 0:
        _expect(seed is not None or disorder.seed is not None, "seed",
                "a seed is required when disorder amplitude is > 0")
    for v in length if length_is_list else (length,):
        _expect(v >= 2, "geometry.length", f"lengths must be >= 2, got {v}")
    for path, coupling in (("model.t1", t1), ("model.t2", t2)):
        _expect(not (length_is_list and isinstance(coupling, tuple)), path,
                "per-cell coupling lists cannot be combined with a length scan")
    _expect(not boundary or convention is Convention.CELL_C2, "model.boundary_potential",
            "is only supported under the 'cell' convention")

    return ExperimentConfig(
        model=ModelConfig(t1, t2, disorder, defect, boundary),
        length=length,
        convention=convention,
        delta=delta,
        switch=switch,
        seed=seed,
        scan=scan,
        delta_values=delta_values,
        output=output,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    # JSON text is UTF-8; a BOM is a JSONDecodeError.
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config: invalid JSON in {path}: {exc}") from exc
    return parse_config(raw)


# ---------------------------------------------------------------------------
# Result tables
# ---------------------------------------------------------------------------


@dataclass
class ResultTable:
    """Ordered CSV rows with a '#'-comment provenance block."""

    header: list
    rows: list = field(default_factory=list)
    provenance: dict = field(default_factory=dict)

    def render(self, reproducible: bool = False) -> str:
        lines = [f"# {k}: {v}" for k, v in self.provenance.items()]
        if not reproducible:
            lines.append(f"# generated: {datetime.now(timezone.utc).isoformat()}")
        lines.append(",".join(self.header))
        for row in self.rows:
            lines.append(",".join(_format_cell(v) for v in row))
        return "\n".join(lines) + "\n"


def _format_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _provenance(config: ExperimentConfig, seed: int | None) -> dict:
    return {
        "config_hash": config.config_hash(),
        "seed": "" if seed is None else seed,
        "version": __version__,
    }


# ---------------------------------------------------------------------------
# Experiment runner
# ---------------------------------------------------------------------------


def build_profile(model: ModelConfig, length: int, seed: int | None) -> CouplingProfile:
    """Coupling profile for one scan point (base values, then disorder, then defect)."""
    t1 = _as_cells(model.t1, length, "model.t1")
    t2 = _as_cells(model.t2, length, "model.t2")
    boundary = None
    if model.boundary_potential:
        boundary = np.zeros(length)
        for cell, value in model.boundary_potential:
            _expect(0 <= cell < length, "model.boundary_potential",
                    f"cell {cell} outside [0, {length})")
            # A sum past the float range is reported by CouplingProfile's finiteness check.
            with np.errstate(over="ignore"):
                boundary[cell] += value
    try:
        profile = CouplingProfile(t1, t2, boundary=boundary)
        if model.disorder.amplitude > 0:
            disorder_seed = model.disorder.seed if model.disorder.seed is not None else seed
            profile = apply_disorder(profile, disorder_seed, model.disorder.amplitude)
        if model.defect.height:
            profile = apply_defect(
                profile, model.defect.height, model.defect.center_frac, model.defect.width
            )
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc
    return profile


def _as_cells(value, length: int, path: str) -> np.ndarray:
    if isinstance(value, tuple):
        _expect(len(value) == length, path, f"needs {length} entries, got {len(value)}")
        return np.asarray(value, dtype=float)
    return np.full(length, float(value))


def _points(config: ExperimentConfig) -> Iterator[tuple]:
    """Yield ``(profile, H, policy, switch, delta)`` per scan point, scan axis ascending.

    The loops nest as length -> switch -> delta; only the scanned axis has
    more than one value.  Each length builds its profile and open-chain H
    once, so the points of a switch or delta scan share one spectrum.  The
    theorem policy's bulk gap and short-range constant depend on the model
    alone, so they are measured once per length; a delta scan skips them,
    because its points use a manual delta.  H is dropped before the next
    length's is built: a caller that drops its own reference too holds at
    most one H (and spectrum) at a time.  ``next(_points(config))`` builds
    only the first (smallest) point.
    """
    scan = config.scan
    lengths = sorted(config.length) if scan is ScanAxis.LENGTH else [config.length]
    switches = sorted(config.switch) if scan is ScanAxis.SWITCH else [config.switch]
    deltas = sorted(config.delta_values) if scan is ScanAxis.DELTA else [None]
    for length in lengths:
        geom = make_geometry(length, config.convention)
        profile = build_profile(config.model, geom.cells, config.seed)
        H = build_ssh(geom, profile)
        policy = config.delta
        if policy.mode is DeltaMode.THEOREM and scan is not ScanAxis.DELTA:
            policy = dataclasses.replace(
                policy,
                half_gap=bulk_gap(profile),
                coupling_norm=short_range_constant(H, policy.decay_length),
            )
        for transition in switches:
            try:
                switch = switch_function(geom, transition)
            except SwitchError as exc:
                raise ConfigError(f"switch: {exc}") from exc
            for d in deltas:
                point_policy = policy if d is None else DeltaPolicy.manual(d)
                yield profile, H, point_policy, switch, resolve_delta(point_policy, length)
        del H  # before the next length builds its own


def run(config: ExperimentConfig) -> ResultTable:
    """Evaluate every scan point of ``_points`` into one CSV row."""
    seed = config.seed
    table = ResultTable(list(INDEX_CSV_HEADER), provenance=_provenance(config, seed))
    for _, H, _, switch, delta in _points(config):
        report = index_report(H, delta, switch.transition)
        del H  # before a length scan builds the next point's
        # The finite-size correspondence is exact algebra; a visible residual
        # means the numerics are broken and the row must not be emitted.
        if report.correspondence_residual >= 1e-10:
            raise NumericalError(
                f"bulk-edge identity violated at L = {report.length}, "
                f"ell = {report.transition}, delta = {report.delta!r}: "
                f"residual {report.correspondence_residual:.3e}"
            )
        table.rows.append(report.csv_row(seed))
    return table


# ---------------------------------------------------------------------------
# Figure reproduction pipelines
# ---------------------------------------------------------------------------


def disordered_defect_model(seed: int) -> ModelConfig:
    """Disordered SSH chain with a mid-chain Gaussian defect.

    t1 = 0.5 and t2 = 1.0 plus independent uniform noise in [-0.1, 0.1] on
    both couplings, and a bump of height 0.2 on t1 centered at mid-chain.
    """
    return ModelConfig(
        t1=0.5,
        t2=1.0,
        disorder=DisorderConfig(amplitude=0.1, seed=seed),
        defect=DefectConfig(height=0.2, center_frac=0.5, width=1.0),
    )


def _density_table(config: ExperimentConfig, delta: float) -> ResultTable:
    _, H, _, switch, _ = next(_points(config))
    table = ResultTable(list(DENSITY_CSV_HEADER), provenance=_provenance(config, config.seed))
    table.provenance["delta"] = repr(delta)
    for kind in (IndexKind.EDGE, IndexKind.BULK):
        density = index_density(H, delta, switch, kind)
        for cell, value in enumerate(density):
            table.rows.append([cell, float(value), kind.value])
    return table


def reproduce_fig3(seed: int = 1) -> tuple[ResultTable, ResultTable]:
    """Length scan of the disordered-defect chain plus per-cell index densities.

    Table A: edge/bulk indices for L in 10..100 with delta = 1/sqrt(2L).
    Table B: per-cell diagonals of both index expressions at L = 30,
    delta = 1/20.  Deterministic for a fixed seed.
    """
    model = disordered_defect_model(seed)
    scan_config = ExperimentConfig(
        model=model,
        length=tuple(FIG3_LENGTHS),
        seed=seed,
        scan=ScanAxis.LENGTH,
    )
    table_a = run(scan_config)
    density_config = ExperimentConfig(model=model, length=30, seed=seed)
    table_b = _density_table(density_config, 1.0 / 20.0)
    return table_a, table_b


def reproduce_fig4(seed: int = 1) -> tuple[ResultTable, ResultTable]:
    """Switch-position scan and delta scan of the disordered-defect chain at L = 30.

    Table A sweeps the switch transition over every interior cell at
    delta = 1/20.  Table B sweeps delta log-spaced over [1e-9, 1]; the wide
    range makes both failure modes visible (delta below the edge-mode
    splitting, delta at the bulk-gap scale).
    """
    model = disordered_defect_model(seed)
    switch_config = ExperimentConfig(
        model=model,
        length=30,
        delta=DeltaPolicy.manual(1.0 / 20.0),
        switch=tuple(range(1, 30)),
        seed=seed,
        scan=ScanAxis.SWITCH,
    )
    table_a = run(switch_config)
    delta_grid = tuple(float(d) for d in np.geomspace(1e-9, 1.0, 46))
    delta_config = ExperimentConfig(
        model=model,
        length=30,
        seed=seed,
        scan=ScanAxis.DELTA,
        delta_values=delta_grid,
    )
    table_b = run(delta_config)
    return table_a, table_b


# ---------------------------------------------------------------------------
# Bound certificate pipeline
# ---------------------------------------------------------------------------


def bound_table(config: ExperimentConfig) -> ResultTable:
    """Certificates for one scan point: propagator bound, filter decay, trace norms."""
    profile, H, policy, switch, delta = next(_points(config))
    d = config.delta.decay_length
    # The theorem policy measured K at this decay length already.
    coupling_norm = policy.coupling_norm
    if coupling_norm is None:
        coupling_norm = short_range_constant(H, d)
    half_gap = bulk_gap(profile)
    corr_len = correlation_length(delta, d, coupling_norm)

    certificates = [lieb_robinson_check(H, t, d, coupling_norm) for t in BOUNDS_TIMES]
    # One 1 - S^2 serves the edge filter and both trace norms.
    filter_blocks = gap_filter_blocks(H, delta)
    certificates.append(edge_filter_decay_check(H, delta, half_gap, corr_len, filter_blocks))
    certificates += trace_norm_checks(H, delta, switch, half_gap, corr_len, filter_blocks)
    table = ResultTable(list(BOUND_CSV_HEADER), provenance=_provenance(config, config.seed))
    table.rows += [cert.csv_row(H.geometry.length, delta) for cert in certificates]
    return table


# ---------------------------------------------------------------------------
# Self checks
# ---------------------------------------------------------------------------


def _assembly_defect(H: ChiralHamiltonian) -> float:
    """max |H - H^dag| and max |HC + CH| of the assembled matrix, read from the stored band of T.

    H = [[0, T], [T^dag, 0]] is assembled from T alone, so every entry of
    either matrix is 0 or t - t for an entry t of T's band: both defects are
    0.0 when every t is finite and NaN otherwise.
    """
    return 0.0 if np.isfinite(H.band).all() else math.nan


def self_check(config: ExperimentConfig) -> list[tuple[str, bool, str]]:
    """Structural checks on the configured model at its first scan point."""
    _, H, _, switch, delta = next(_points(config))

    defect = _assembly_defect(H)
    results = [
        ("hermiticity", defect == 0.0, f"max |H - H^dag| = {defect:.3e}"),
        ("chirality", defect == 0.0, f"max |HC + CH| = {defect:.3e}"),
    ]

    report = index_report(H, delta, switch.transition)
    results.append((
        "bulk_edge_identity",
        report.correspondence_residual < 1e-10,
        f"|edge - bulk - imbalance| = {report.correspondence_residual:.3e}",
    ))
    min_eig = gap_filter_min_eigenvalue(H, delta)
    results.append(("gap_filter_psd", min_eig >= -1e-12, f"min eigenvalue = {min_eig:.3e}"))
    return results


# ---------------------------------------------------------------------------
# Command line interface
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _writing(path: str | Path):
    """Report a failure to create or write ``path`` as a config error."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"output: cannot write {path}: {exc}") from exc


def _check_writable(path: str | Path | None) -> None:
    """Fail before any work when ``path`` cannot be written; creates nothing.

    ``_writing`` still reports a failure of the write itself.
    """
    if path is None:
        return
    target = Path(path)
    if target.is_dir():
        reason = "is a directory"
    elif not target.parent.is_dir():
        reason = f"{target.parent} is not a directory"
    elif not os.access(target if target.exists() else target.parent, os.W_OK):
        reason = "permission denied"
    else:
        return
    raise ConfigError(f"output: cannot write {path}: {reason}")


def _emit(table: ResultTable, path: str | Path | None, reproducible: bool) -> None:
    """Write a table to ``path``, or to stdout when there is no path."""
    text = table.render(reproducible=reproducible)
    if path is None:
        sys.stdout.write(text)
        return
    with _writing(path):
        Path(path).write_text(text)


def _load(args) -> ExperimentConfig:
    # --seed is the one override; a seed can only satisfy the seed rule, so
    # the parsed config stays valid.
    config = load_config(args.config)
    return config if args.seed is None else dataclasses.replace(config, seed=args.seed)


def _cmd_run(args) -> int:
    # 'index' evaluates one point and 'scan' a scan axis; both emit run()'s table.
    config = _load(args)
    scanned = args.command == "scan"
    _expect((config.scan is not ScanAxis.NONE) == scanned, "scan",
            f"'{args.command}' command needs a config {'with' if scanned else 'without'} a scan axis")
    out = args.out or config.output
    _check_writable(out)
    _emit(run(config), out, args.reproducible)
    return 0


def _cmd_bounds(args) -> int:
    # The config's output path belongs to the index scan; certificates go to
    # stdout unless --out says otherwise.
    config = _load(args)
    _check_writable(args.out)
    _emit(bound_table(config), args.out, args.reproducible)
    return 0


def _cmd_check(args) -> int:
    results = self_check(_load(args))
    for name, passed, detail in results:
        print(f"check {name}: {'ok' if passed else 'FAIL'} ({detail})")
    return 0 if all(passed for _, passed, _ in results) else 3


# Figure -> (table builder, then per table: file name, x column, y column, log x, log y).
_FIGURES = {
    "fig3": (reproduce_fig3, (("fig3_length_scan", "L", "q_error", False, True),
                              ("fig3_density", "cell", "value", False, False))),
    "fig4": (reproduce_fig4, (("fig4_switch_scan", "ell", "I_edge", False, False),
                              ("fig4_delta_scan", "delta", "q_error", True, True))),
}


def _cmd_reproduce(args) -> int:
    out_dir = Path(args.out)
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    build, plots = _FIGURES[args.figure]
    tables = build(args.seed)
    # Every plot is rendered before any file is written.
    svgs = [emit_plot(table, x, y, log_x, log_y)
            for table, (_, x, y, log_x, log_y) in zip(tables, plots)]
    for table, (name, *_), svg in zip(tables, plots, svgs):
        _emit(table, out_dir / f"{name}.csv", args.reproducible)
        with _writing(out_dir / f"{name}.svg"):
            (out_dir / f"{name}.svg").write_text(svg)
        print(f"wrote {out_dir / name}.csv and .svg")
    return 0


# Subcommands that read a config: name, handler, help.
_CONFIG_COMMANDS = (
    ("index", _cmd_run, "evaluate a single index report"),
    ("scan", _cmd_run, "run the config's parameter scan"),
    ("bounds", _cmd_bounds, "emit bound certificates for the configured model"),
    ("check", _cmd_check, "run structural self-tests on the configured model"),
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parsing leaves the parser unchanged.
    parser = argparse.ArgumentParser(
        prog="chiralchain",
        description="Finite-size bulk/edge indices and locality certificates for chiral chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text in _CONFIG_COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--config", required=True, help="experiment config (JSON)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None,
                       help="output CSV path (default: config output or stdout)")
        p.add_argument("--reproducible", action="store_true",
                       help="suppress the timestamp comment for byte-stable output")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility and ignored; scan points run serially")

    p_rep = sub.add_parser("reproduce", help="figure-reproduction pipelines")
    p_rep.set_defaults(handler=_cmd_reproduce)
    p_rep.add_argument("figure", choices=list(_FIGURES))
    p_rep.add_argument("--seed", type=int, default=1)
    p_rep.add_argument("--out", default=".", help="output directory")
    p_rep.add_argument("--reproducible", action="store_true")
    p_rep.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility and ignored")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, np.linalg.LinAlgError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
