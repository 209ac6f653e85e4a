import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralchain.cli import (
    ConfigError,
    ResultTable,
    ScanAxis,
    bound_table,
    main,
    parse_config,
    reproduce_fig3,
    reproduce_fig4,
    run,
    _assembly_defect,
    build_profile,
    self_check,
)
from chiralchain.hamiltonian import (
    ChiralHamiltonian,
    CouplingProfile,
    build_ssh,
    bulk_gap,
    short_range_constant,
)
from chiralchain.indices import INDEX_CSV_HEADER, DeltaMode, DeltaPolicy, index_report
from chiralchain.lattice import Convention, make_geometry
from chiralchain.svgplot import emit_plot
from oracles import verify_chiral


def base_config(**overrides):
    raw = {
        "model": {"t1": 0.5, "t2": 1.0},
        "geometry": {"length": 20, "convention": "cell"},
        "delta": {"mode": "empirical"},
        "switch": "middle",
        "scan": "none",
    }
    raw.update(overrides)
    return raw


def disordered_config(**overrides):
    raw = base_config(seed=1)
    raw["model"] = {
        "t1": 0.5,
        "t2": 1.0,
        "disorder": {"amplitude": 0.1},
        "defect": {"height": 0.2},
    }
    raw.update(overrides)
    return raw


# --- parsing and validation ----------------------------------------------------


def test_parse_minimal_config():
    config = parse_config(base_config())
    assert config.length == 20
    assert config.scan is ScanAxis.NONE


def test_config_round_trip_idempotent():
    raw = disordered_config(
        scan="length", geometry={"length": [10, 20], "convention": "cell"}
    )
    config = parse_config(raw)
    again = parse_config(config.to_dict())
    assert again == config
    assert again.to_dict() == config.to_dict()
    assert again.config_hash() == config.config_hash()


@pytest.mark.parametrize("mode", ["empirical", "theorem"])
def test_parse_drops_delta_value_outside_manual_mode(mode):
    # Only manual mode reads a value, and to_dict never writes one elsewhere.
    config = parse_config(base_config(delta={"mode": mode, "value": 0.3}))
    assert config.delta.value is None
    assert parse_config(config.to_dict()) == config
    assert config.config_hash() == parse_config(base_config(delta={"mode": mode})).config_hash()


@pytest.mark.parametrize(
    "raw,expected",
    [
        ({"model": {"t1": 0.5, "t2": 1.0}, "geometry": {"length": 40}}, "e89fde899707922e"),
        (
            {"model": {"t1": 0.5, "t2": 1.0}, "geometry": {"length": 40},
             "delta": {"mode": "manual", "value": 0.05}},
            "17357338cbad3e79",
        ),
        (
            {"model": {"t1": 0.5, "t2": 1.0}, "geometry": {"length": 40},
             "delta": {"mode": "theorem", "decay_length": 2.0}},
            "fa5d3a19f46dafb1",
        ),
        (
            {"model": {"t1": 0.5, "t2": 1.0}, "geometry": {"length": 30},
             "scan": "delta", "delta_values": [0.01, 0.1]},
            "51981bf437e2eabc",
        ),
    ],
)
def test_config_hash_is_stable(raw, expected):
    # The hash is printed in every CSV's provenance block, so it must not
    # change when the config's internal representation does.
    assert parse_config(raw).config_hash() == expected


@pytest.mark.parametrize("scan", ["none", "delta"])
def test_decay_length_enters_config_hash(scan):
    # The bound certificates read decay_length in every mode, so two configs
    # that differ only there must not share a hash.
    if scan == "delta":
        # A delta scan ignores the mode; only decay_length is kept.
        raw = base_config(delta={}, scan="delta", delta_values=[0.01, 0.1])
    else:
        raw = base_config(delta={"mode": "manual", "value": 0.05})
    configs = []
    for decay_length in (1.0, 2.0):
        raw["delta"]["decay_length"] = decay_length
        config = parse_config(raw)
        assert parse_config(config.to_dict()) == config
        configs.append(config)
    assert configs[0].config_hash() != configs[1].config_hash()
    assert "decay_length" not in configs[0].to_dict().get("delta", {})


@pytest.mark.parametrize("mode", [{"mode": "theorem"}, {"mode": "manual", "value": 0.05}])
def test_delta_scan_round_trip_keeps_mode(mode):
    # A delta scan ignores the mode, but the config still records it.
    config = parse_config(base_config(delta=mode, scan="delta", delta_values=[0.01, 0.1]))
    assert parse_config(config.to_dict()) == config


def test_output_path_is_not_part_of_config_hash():
    raw = base_config()
    config = parse_config(raw)
    with_output = parse_config({**raw, "output": "scan.csv"})
    assert with_output.output == "scan.csv"
    assert with_output.config_hash() == config.config_hash()


def test_main_scan_output_does_not_change_bytes(tmp_path, capsys):
    cfg = write_config(tmp_path, disordered_config(
        scan="length", geometry={"length": [10, 20], "convention": "cell"}
    ))
    outputs = []
    for name in ("o1.csv", "o2.csv"):
        assert main(["scan", "--config", str(cfg), "--reproducible",
                     "--out", str(tmp_path / name)]) == 0
        outputs.append((tmp_path / name).read_text())
    capsys.readouterr()
    assert main(["scan", "--config", str(cfg), "--reproducible"]) == 0
    outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_scan_assembles_no_dense_block(tmp_path, monkeypatch):
    # The benchmark's model takes dstevd, which reads only T's two diagonals.
    def dense_block(H):
        raise AssertionError("the scan assembled a dense T")

    monkeypatch.setattr(ChiralHamiltonian, "T", property(dense_block))
    cfg = write_config(tmp_path, disordered_config(
        scan="length", geometry={"length": [250, 500], "convention": "cell"}
    ))
    assert main(["scan", "--config", str(cfg), "--reproducible", "--out", str(tmp_path / "o.csv")]) == 0
    assert len((tmp_path / "o.csv").read_text().splitlines()) == 6


def _add(section, **fields):
    return lambda r: r[section].update(**fields)


def _set(**fields):
    return lambda r: r.update(**fields)


# Every message parse_config raises, verbatim; each mutation of base_config()
# breaks one rule (the last two break two, to pin which is reported first).
@pytest.mark.parametrize(
    "mutate,message",
    [
        (_set(unknown_key=1), "config: unknown keys ['unknown_key']"),
        (lambda r: r.pop("model"), "model: must be an object"),
        (lambda r: r["model"].pop("t1"), "model.t1: is required"),
        (_add("model", t1="x"), "model.t1: must be a number or a list of numbers"),
        (_add("model", t2=[0.5, True]), "model.t2: must be a number or a list of numbers"),
        (_add("model", t1=math.nan), "model.t1: contains non-finite entries"),
        (_add("model", t1=[0.5, 10**400]), "model.t1: contains non-finite entries"),
        (_add("model", disorder=1), "model.disorder: must be an object"),
        (_add("model", disorder={}), "model.disorder.amplitude: is required"),
        (_add("model", disorder={"amplitude": "big"}),
         "model.disorder.amplitude: must be a finite number"),
        (_add("model", disorder={"amplitude": -0.1}), "model.disorder.amplitude: must be >= 0"),
        (_add("model", disorder={"amplitude": 0.1, "seed": 1.5}),
         "model.disorder.seed: must be an integer"),
        (_add("model", disorder={"amplitude": 0.1, "seed": True}),
         "model.disorder.seed: must be an integer"),
        (_add("model", defect=[]), "model.defect: must be an object"),
        (_add("model", defect={}), "model.defect.height: is required"),
        (_add("model", defect={"height": None}), "model.defect.height: must be a finite number"),
        (_add("model", defect={"height": 0.2, "width": 0}), "model.defect.width: must be > 0"),
        (_add("model", defect={"height": 0.2, "center_frac": True}),
         "model.defect.center_frac: must be a finite number"),
        (_add("model", boundary_potential={}),
         "model.boundary_potential: must be a list of [cell, value] pairs"),
        (_add("model", boundary_potential=[[0]]),
         "model.boundary_potential[0]: must be a [cell, value] pair"),
        (_add("model", boundary_potential=[[0, 1.0], [0.5, 1.0]]),
         "model.boundary_potential[1]: cell must be an integer"),
        (_add("model", boundary_potential=[[0, "x"]]),
         "model.boundary_potential[0]: value must be a finite number"),
        (lambda r: r["model"].update(boundary_potential=[[0, 0.05]]) or r.update(
            geometry={"length": 20, "convention": "sites"}),
         "model.boundary_potential: is only supported under the 'cell' convention"),
        (lambda r: r.pop("geometry"), "geometry: must be an object"),
        *[
            (_set(geometry=geometry),
             "geometry.length: must be an integer or a non-empty list of integers")
            for geometry in ({"length": "20"}, {"length": []}, {"length": [10, True]}, {})
        ],
        (_set(geometry={"length": 20, "convention": "hex"}),
         "geometry.convention: must be one of ['cell', 'sites'], got 'hex'"),
        (_set(geometry={"length": 20, "convention": [1]}),
         "geometry.convention: must be one of ['cell', 'sites'], got [1]"),
        (_set(scan="sideways"),
         "scan: must be one of ['length', 'delta', 'switch', 'none'], got 'sideways'"),
        *[
            (_set(switch=switch, scan="switch"),
             "switch: must be 'middle', an integer, or a non-empty list of integers")
            for switch in ("left", [], [1.5], None)
        ],
        (_set(delta_values=[], scan="delta"), "delta_values: must be a non-empty list of numbers"),
        (_set(delta_values=[0.1, 0], scan="delta"),
         "delta_values[1]: must be a finite positive number"),
        (_set(delta="x"), "delta: must be an object"),
        (_set(delta={"mode": "auto"}),
         "delta.mode: must be one of ['theorem', 'empirical', 'manual'], got 'auto'"),
        (_set(delta={"mode": "manual", "value": "x"}), "delta.value: must be a finite number"),
        (_set(delta={"mode": "manual"}), "delta.value: must be > 0 for manual mode"),
        (_set(delta={"mode": "manual", "value": -1}), "delta.value: must be > 0 for manual mode"),
        (_set(delta={"decay_length": 0}), "delta.decay_length: must be > 0"),
        (_set(delta={"decay_length": None}), "delta.decay_length: must be a finite number"),
        (_set(seed=1.5), "config.seed: must be an integer"),
        (_set(output=3), "output: must be a string path"),
        (_set(geometry={"length": [10, 20]}),
         "geometry.length: must be a list exactly when scan is 'length'"),
        (_set(scan="length"), "geometry.length: must be a list exactly when scan is 'length'"),
        (_set(switch=[5, 6]), "switch: must be a list exactly when scan is 'switch'"),
        (_set(delta_values=[0.1]), "delta_values: must be present exactly when scan is 'delta'"),
        (_add("model", disorder={"amplitude": 0.1}),
         "seed: a seed is required when disorder amplitude is > 0"),
        (_set(geometry={"length": 1}), "geometry.length: lengths must be >= 2, got 1"),
        (_set(geometry={"length": [10, 1]}, scan="length"),
         "geometry.length: lengths must be >= 2, got 1"),
        (lambda r: r["model"].update(t2=[1.0] * 20) or r.update(
            geometry={"length": [10, 20]}, scan="length"),
         "model.t2: per-cell coupling lists cannot be combined with a length scan"),
        (lambda r: r["model"].update(t1=[0.5] * 20, t2=[1.0] * 20) or r.update(
            geometry={"length": [10, 20]}, scan="length"),
         "model.t1: per-cell coupling lists cannot be combined with a length scan"),
        (_set(scan="sideways", switch="left"),
         "scan: must be one of ['length', 'delta', 'switch', 'none'], got 'sideways'"),
        (_set(seed=1.5, output=3), "config.seed: must be an integer"),
    ],
)
def test_config_error_messages(mutate, message):
    raw = base_config()
    mutate(raw)
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert str(err.value) == message


def test_empty_boundary_potential_is_valid_under_sites():
    raw = base_config(geometry={"length": 20, "convention": "sites"})
    raw["model"]["boundary_potential"] = []
    assert parse_config(raw).model.boundary_potential == ()


def test_config_must_be_an_object():
    with pytest.raises(ConfigError) as err:
        parse_config([])
    assert str(err.value) == "config: must be a JSON object"


@pytest.mark.parametrize(
    "mutate,path_fragment",
    [
        (lambda r: r.pop("model"), "model"),
        (lambda r: r["model"].pop("t1"), "model.t1"),
        (lambda r: r["model"].update(t1="x"), "model.t1"),
        (lambda r: r.update(scan="sideways"), "scan"),
        (lambda r: r.update(geometry={"length": 1}), "geometry.length"),
        (lambda r: r.update(geometry={"length": 20, "convention": "hex"}), "geometry.convention"),
        (lambda r: r.update(delta={"mode": "manual"}), "delta.value"),
        (lambda r: r.update(unknown_key=1), "config"),
        (lambda r: r["model"].update(disorder={"amplitude": -0.1}), "model.disorder.amplitude"),
        (lambda r: r["model"].update(boundary_potential=[[0]]), "boundary_potential[0]"),
    ],
)
def test_schema_errors_carry_field_path(mutate, path_fragment):
    raw = base_config()
    mutate(raw)
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert path_fragment in str(err.value)


def test_exactly_one_scan_axis_enforced():
    with pytest.raises(ConfigError):
        parse_config(base_config(geometry={"length": [10, 20]}))  # list without scan
    with pytest.raises(ConfigError):
        parse_config(base_config(scan="length"))  # scan without list
    with pytest.raises(ConfigError):
        parse_config(
            base_config(
                scan="length",
                geometry={"length": [10, 20]},
                switch=[5, 6],
            )
        )


def test_seed_required_with_disorder():
    raw = disordered_config()
    del raw["seed"]
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert "seed" in str(err.value)


def test_delta_values_only_for_delta_scan():
    with pytest.raises(ConfigError):
        parse_config(base_config(delta_values=[0.1, 0.2]))
    config = parse_config(base_config(scan="delta", delta_values=[0.1, 0.2]))
    assert config.delta_values == (0.1, 0.2)
    with pytest.raises(ConfigError):
        parse_config(base_config(scan="delta", delta_values=[0.1, -0.2]))


# --- runner ----------------------------------------------------------------------


def test_run_single_point():
    table = run(parse_config(base_config()))
    assert table.header == INDEX_CSV_HEADER
    assert len(table.rows) == 1
    row = dict(zip(table.header, table.rows[0]))
    assert row["L"] == 20
    assert row["residual"] < 1e-10


def test_run_length_scan_rows_ordered_and_converging():
    raw = disordered_config(
        scan="length",
        geometry={"length": list(range(20, 90, 10)), "convention": "cell"},
    )
    table = run(parse_config(raw))
    assert len(table.rows) == 7
    lengths = [r[0] for r in table.rows]
    assert lengths == sorted(lengths)
    q = [r[-1] for r in table.rows]
    assert q[-1] < q[0]
    assert all(r[7] < 1e-10 for r in table.rows)  # residual column


def test_run_delta_scan_has_interior_minimum():
    # Near-critical clean chain: both ends of the delta range misbehave.
    raw = base_config(
        model={"t1": 0.82, "t2": 1.0},
        geometry={"length": 30, "convention": "cell"},
        scan="delta",
        delta_values=list(np.geomspace(1e-3, 1.0, 25)),
    )
    del raw["delta"]
    table = run(parse_config(raw))
    q = [r[-1] for r in table.rows]
    interior = min(q)
    assert interior < 0.05
    assert q[0] > 0.2
    assert q[-1] > 0.2
    assert q.index(interior) not in (0, len(q) - 1)


def test_run_switch_scan_flat_in_middle():
    raw = base_config(
        scan="switch",
        switch=list(range(7, 14)),
        geometry={"length": 20, "convention": "cell"},
        delta={"mode": "manual", "value": 0.05},
    )
    table = run(parse_config(raw))
    edges = [r[5] for r in table.rows]  # I_edge column
    assert max(edges) - min(edges) < 1e-2


def test_threads_flag_accepted_and_ignored(tmp_path):
    raw = disordered_config(
        scan="length", geometry={"length": [10, 20, 30], "convention": "cell"}
    )
    cfg = write_config(tmp_path, raw)
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", str(cfg), "--reproducible", "--out", str(out)]) == 0
    serial = out.read_bytes()
    assert main(["scan", "--config", str(cfg), "--reproducible", "--threads", "3",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == serial
    assert main(["reproduce", "fig3", "--threads", "2", "--out", str(tmp_path / "fig3"),
                 "--reproducible"]) == 0


def test_run_deterministic_bytes():
    config = parse_config(disordered_config())
    assert run(config).render(reproducible=True) == run(config).render(reproducible=True)


def test_alternating_sites_run():
    raw = base_config(geometry={"length": 21, "convention": "sites"}, switch=11)
    table = run(parse_config(raw))
    row = dict(zip(table.header, table.rows[0]))
    assert row["imbalance"] in (-1, 0, 1)
    assert row["residual"] < 1e-10


def test_run_out_of_range_switch_is_config_error():
    config = parse_config(base_config(switch=25))
    for pipeline in (run, bound_table, self_check):
        with pytest.raises(ConfigError, match="switch"):
            pipeline(config)


# --- tables and plots --------------------------------------------------------------


def test_render_timestamp_suppressed_when_reproducible():
    table = ResultTable(["a"], [[1]], {"seed": 0})
    assert "generated" in table.render()
    assert "generated" not in table.render(reproducible=True)


def test_render_formats():
    table = ResultTable(["a", "b", "c", "d"], [[1, 0.5, None, True]], {})
    line = table.render(reproducible=True).splitlines()[-1]
    assert line == "1,0.5,,true"


def test_emit_plot_single_point():
    table = ResultTable(INDEX_CSV_HEADER, [[20, 1, 0.1, 10, 1.0, 1.0, 0, 0.0, 1, 0.01]], {})
    svg = emit_plot(table, "L", "q_error")
    assert svg.startswith("<svg ")
    assert svg.count("<circle") == 1


def test_emit_plot_line_and_log_scale():
    rows = [[L, 1, 0.1, L // 2, 1.0, 1.0, 0, 0.0, 1, 10.0 ** (-L / 10)] for L in (10, 20, 30)]
    table = ResultTable(INDEX_CSV_HEADER, rows, {})
    svg = emit_plot(table, "L", "q_error", log_y=True)
    assert "<polyline" in svg
    assert "q_error (log)" in svg


def test_emit_plot_log_scale_omits_non_positive_points():
    q_errors = [0.0, 1e-3, 1e-6]
    rows = [[20, 1, d, 10, 1.0, 1.0, 0, 0.0, 1, q] for d, q in zip((1e-9, 1e-3, 1.0), q_errors)]
    table = ResultTable(INDEX_CSV_HEADER, rows, {})
    svg = emit_plot(table, x_column="delta", y_column="q_error", log_x=True, log_y=True)
    assert svg.count("<circle") == 2
    assert svg == emit_plot(ResultTable(INDEX_CSV_HEADER, rows[1:], {}),
                            x_column="delta", y_column="q_error", log_x=True, log_y=True)
    zeros = ResultTable(INDEX_CSV_HEADER, [rows[0]], {})
    with pytest.raises(ValueError):
        emit_plot(zeros, x_column="delta", y_column="q_error", log_y=True)


def test_emit_plot_log_scale_with_subnormal_value():
    # log10(4.6e-311) is -310.3; padded by 6 % of the span the axis reaches -328.8,
    # below the smallest subnormal, so its lowest ticks would underflow to 0.
    table = ResultTable(["delta", "q_error"], [[1e-3, 4.6e-311], [1e-2, 1e-3]], {})
    svg = emit_plot(table, "delta", "q_error", log_y=True)
    assert svg.count("<circle") == 2
    y_ticks = [float(t) for t in re.findall(r'text-anchor="end">([^<]+)</text>', svg)]
    assert y_ticks and all(t > 0.0 for t in y_ticks)


def test_emit_plot_per_site():
    rows = [[c, 0.1 * c, "edge"] for c in range(5)] + [[c, -0.05 * c, "bulk"] for c in range(5)]
    table = ResultTable(["cell", "value", "kind"], rows, {})
    svg = emit_plot(table, "cell", "value")
    assert svg.count("<rect") >= 10  # background + bars
    assert "edge" in svg and "bulk" in svg


def test_emit_plot_empty_table_rejected():
    with pytest.raises(ValueError):
        emit_plot(ResultTable(["a"], [], {}), "a", "a")


PLOT_DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize(
    "name,table,columns,logs",
    [
        # Log x and log y; the q_error = 0 point is left out.
        ("plot_line_log", ResultTable(["delta", "q_error"], [[1e-9, 0.0], [1e-6, 1e-3],
                                                               [1e-3, 2.5e-5], [1.0, 0.5]], {}),
         ("delta", "q_error"), (True, True)),
        # A kind column: one bar series per kind, with negative values.
        ("plot_bars", ResultTable(["cell", "value", "kind"],
                                  [[c, 0.1 * c, "edge"] for c in range(4)]
                                  + [[c, -0.05 * c, "bulk"] for c in range(4)], {}),
         ("cell", "value"), (False, False)),
        # One point: both axes need the degenerate-range widening.
        ("plot_single_point", ResultTable(["L", "q_error"], [[20, 0.01]], {}),
         ("L", "q_error"), (False, False)),
    ],
)
def test_emit_plot_bytes_pinned(name, table, columns, logs):
    assert emit_plot(table, *columns, *logs) == (PLOT_DATA / f"{name}.svg").read_text()


# --- figure pipelines ----------------------------------------------------------------


def test_reproduce_fig3_shapes():
    table_a, table_b = reproduce_fig3(seed=1)
    assert [r[0] for r in table_a.rows] == list(range(10, 101, 10))
    q = [r[-1] for r in table_a.rows]
    assert q[-1] < q[0]
    kinds = {r[2] for r in table_b.rows}
    assert kinds == {"edge", "bulk"}
    assert len(table_b.rows) == 60
    edge_rows = [r for r in table_b.rows if r[2] == "edge"]
    mass = sum(abs(r[1]) for r in edge_rows)
    near_edge = sum(abs(r[1]) for r in edge_rows if r[0] < 10)
    assert near_edge > 0.9 * mass


def test_reproduce_fig4_shapes():
    table_a, table_b = reproduce_fig4(seed=1)
    ells = [r[3] for r in table_a.rows]
    assert ells == list(range(1, 30))
    middle = [r[5] for r in table_a.rows if 10 <= r[3] <= 20]
    assert max(middle) - min(middle) < 1e-2
    deviations = [abs(r[5] - 1.0) for r in table_b.rows]
    interior = min(deviations)
    assert deviations[0] > interior
    assert deviations[-1] > interior


# --- bound table and self check --------------------------------------------------------


def test_bound_table_rows():
    table = bound_table(parse_config(disordered_config()))
    names = [r[0] for r in table.rows]
    assert names == [
        "lieb_robinson_t0.1",
        "lieb_robinson_t0.5",
        "lieb_robinson_t1",
        "edge_filter_decay",
        "anticommutator_trace_norm",
        "filter_switch_commutator_trace_norm",
    ]
    assert all(r[-1] is True or r[-1] == "true" or r[-1] for r in table.rows)


def test_bound_table_certifies_first_switch_of_a_switch_scan():
    scan = bound_table(parse_config(disordered_config(
        geometry={"length": 24}, scan="switch", switch=[9, 3]
    )))
    single = bound_table(parse_config(disordered_config(geometry={"length": 24}, switch=3)))
    assert scan.rows == single.rows


def test_self_check_passes_on_valid_model():
    results = self_check(parse_config(disordered_config()))
    assert all(ok for _, ok, _ in results)


def dense_defects(H) -> tuple[float, float]:
    """max |H - H^dag| and max |HC + CH|, scanned on the assembled matrix."""
    M = H.matrix
    with np.errstate(invalid="ignore"):
        return float(np.abs(M - M.conj().T).max()), verify_chiral(M, H.geometry)


@pytest.mark.parametrize("geometry", [
    {"length": 20, "convention": "cell"},
    {"length": 41, "convention": "sites"},
])
def test_check_structure_lines_are_the_dense_reading(tmp_path, capsys, monkeypatch, geometry):
    import chiralchain.cli as cli_module

    built = []
    build = cli_module.build_ssh

    def recorded(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(cli_module, "build_ssh", recorded)
    assert main(["check", "--config", str(write_config(tmp_path, disordered_config(geometry=geometry)))]) == 0
    herm, chir = dense_defects(built[0])
    assert capsys.readouterr().out.splitlines()[:2] == [
        f"check hermiticity: ok (max |H - H^dag| = {herm:.3e})",
        f"check chirality: ok (max |HC + CH| = {chir:.3e})",
    ]


@pytest.mark.parametrize("entry", [
    1e308, -0.0, 1e308 - 1e308j, math.inf, -math.inf, math.nan,
    complex(math.inf, 0.0), complex(0.0, -math.inf), complex(math.nan, 1.0),
])
@pytest.mark.parametrize("convention", [Convention.CELL_C2, Convention.ALTERNATING_SITES])
def test_assembly_defect_is_the_dense_scan_of_any_stored_entry(entry, convention):
    # Entries the builder rejects reach H only through its constructor.
    geom = make_geometry(7, convention)
    H = build_ssh(geom, CouplingProfile.constant(geom.cells, 0.5, 1.0))
    band = H.band.astype(type(entry))
    band[band.shape[0] // 2, 1] = entry  # T[1, 1]
    H = ChiralHamiltonian(band, geom)
    herm, chir = dense_defects(H)
    assert repr(_assembly_defect(H)) == repr(herm) == repr(chir)


# --- command line ------------------------------------------------------------------------


def write_config(tmp_path, raw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def test_main_index_writes_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config())
    out = tmp_path / "out.csv"
    code = main(["index", "--config", str(cfg), "--out", str(out), "--reproducible"])
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[3] == ",".join(INDEX_CSV_HEADER)
    assert "generated" not in text


def test_main_index_stdout(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config())
    assert main(["index", "--config", str(cfg), "--reproducible"]) == 0
    captured = capsys.readouterr()
    assert "I_edge" in captured.out


@pytest.mark.parametrize(
    "command,raw,message",
    [
        ("scan", base_config(), "'scan' command needs a config with a scan axis"),
        ("index", base_config(geometry={"length": [10, 20]}, scan="length"),
         "'index' command needs a config without a scan axis"),
    ],
)
def test_main_index_and_scan_check_the_scan_axis(tmp_path, capsys, command, raw, message):
    cfg = write_config(tmp_path, raw)
    assert main([command, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"config error: scan: {message}\n"


def test_main_boundary_potential_under_sites_is_config_error(tmp_path, capsys):
    raw = base_config(geometry={"length": 20, "convention": "sites"})
    raw["model"]["boundary_potential"] = [[0, 0.05]]
    assert main(["index", "--config", str(write_config(tmp_path, raw))]) == 1
    assert capsys.readouterr().err.startswith("config error: model.boundary_potential: ")


def test_main_config_error_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": {"t1": 0.5}})
    assert main(["index", "--config", str(cfg)]) == 1
    assert "config error" in capsys.readouterr().err


def test_main_missing_file_exit_code(tmp_path, capsys):
    assert main(["index", "--config", str(tmp_path / "missing.json")]) == 1


@pytest.mark.parametrize("command", ["index", "scan", "bounds", "check"])
@pytest.mark.parametrize("prefix, reason", [
    (b"\xff", "'utf-8' codec can't decode byte 0xff"),
    (b"\xef\xbb\xbf", "Unexpected UTF-8 BOM"),
])
def test_main_undecodable_config_is_config_error(tmp_path, capsys, command, prefix, reason):
    # JSON text is UTF-8: a file that does not decode is a config error naming the file.
    cfg = tmp_path / "config.json"
    cfg.write_bytes(prefix + json.dumps(base_config()).encode())
    assert main([command, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config: invalid JSON in {cfg}: ") and reason in err


def test_main_nan_coupling_is_config_error(tmp_path, capsys):
    raw = base_config()
    raw["model"]["t1"] = float("nan")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(raw))  # json emits a bare NaN literal
    assert main(["index", "--config", str(cfg)]) == 1
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["index", "check"])
@pytest.mark.parametrize("model, field", [
    ({"t1": 1.5e308, "boundary_potential": [[0, 1.5e308]]}, "t1 + boundary"),
    ({"boundary_potential": [[0, 1.5e308], [0, 1.5e308]]}, "boundary"),
])
def test_finite_couplings_that_sum_past_the_float_range_are_a_config_error(tmp_path, command, model, field):
    # Each value is finite, but the chain adds them: the sums are checked
    # with the boundary, so the run stops with a config error and no warning.
    raw = base_config()
    raw["model"].update(model)
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "chiralchain", command, "--config", str(write_config(tmp_path, raw))],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"config error: model: {field} contains non-finite entries\n"


@pytest.mark.parametrize(
    "mutate,field",
    [
        (lambda r: r["model"].update(t1=[0.5] * 19 + [10**400]), "model.t1"),
        (lambda r: r["model"].update(defect={"height": math.nan}), "model.defect.height"),
        (lambda r: r["model"].update(defect={"height": 10**400}), "model.defect.height"),
        (lambda r: r.update(delta={"mode": "manual", "value": math.inf}), "delta.value"),
        (lambda r: r.update(scan="delta", delta_values=[0.1, math.inf]), "delta_values[1]"),
        (lambda r: r["model"].update(disorder={"amplitude": math.inf}), "model.disorder.amplitude"),
        (lambda r: r["model"].update(disorder={"amplitude": 1e308}), "disorder amplitude"),
        (lambda r: r["model"].update(boundary_potential=[[0, -math.inf]]),
         "model.boundary_potential[0]"),
    ],
)
def test_main_non_finite_number_is_config_error(tmp_path, capsys, mutate, field):
    raw = base_config(seed=1)
    mutate(raw)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(raw))  # json emits bare NaN and Infinity literals
    command = "scan" if raw["scan"] != "none" else "index"
    assert main([command, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and field in err


def test_main_numerical_error_exit_code(tmp_path, capsys, monkeypatch):
    # Solver failures cannot be provoked deterministically from a valid
    # config, so exercise the exit-code wiring directly.
    import chiralchain.cli as cli_module
    from chiralchain.spectral import NumericalError

    def boom(config):
        raise NumericalError("eigensolver did not converge")

    monkeypatch.setattr(cli_module, "run", boom)
    cfg = write_config(tmp_path, base_config())
    assert main(["index", "--config", str(cfg)]) == 2
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["index", "bounds"])
def test_theorem_delta_on_closed_gap_exits_2(tmp_path, capsys, command):
    # t1 = t2 closes the gap on the even default ring: half_gap is 0.
    raw = base_config(delta={"mode": "theorem"})
    raw["model"] = {"t1": 1.0, "t2": 1.0}
    cfg = write_config(tmp_path, raw)
    assert main([command, "--config", str(cfg)]) == 2
    assert "half_gap" in capsys.readouterr().err


def test_theorem_delta_beyond_exp_overflow_length(tmp_path):
    # Past 709 cells the weight exp(|x - y| / d) of a far block overflows;
    # a zero block times that weight would make delta NaN.
    raw = disordered_config(delta={"mode": "theorem"})
    raw["geometry"]["length"] = 720
    cfg = write_config(tmp_path, raw)
    out = tmp_path / "index.csv"
    assert main(["index", "--config", str(cfg), "--out", str(out), "--reproducible"]) == 0
    header, row = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    delta = float(row.split(",")[header.split(",").index("delta")])
    assert math.isfinite(delta) and delta > 0


def test_main_index_huge_defect_height(tmp_path):
    # Entries near the float maximum: symmetrizing as (M + M^dag) / 2 overflowed.
    raw = base_config()
    raw["model"]["defect"] = {"height": 1e308}
    cfg = write_config(tmp_path, raw)
    out = tmp_path / "index.csv"
    assert main(["index", "--config", str(cfg), "--out", str(out), "--reproducible"]) == 0
    header, row = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    residual = float(row.split(",")[header.split(",").index("residual")])
    assert residual < 1e-10


def test_main_seed_override(tmp_path):
    cfg = write_config(tmp_path, disordered_config())
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["index", "--config", str(cfg), "--out", str(out1), "--reproducible"]) == 0
    assert main(["index", "--config", str(cfg), "--seed", "2", "--out", str(out2),
                 "--reproducible"]) == 0
    assert out1.read_text() != out2.read_text()


def test_main_check_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, disordered_config())
    assert main(["check", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "bulk_edge_identity" in out


def test_main_bounds_subcommand(tmp_path):
    cfg = write_config(tmp_path, base_config())
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--config", str(cfg), "--out", str(out), "--reproducible"]) == 0
    assert "lieb_robinson" in out.read_text()


def test_main_reproduce_fig3(tmp_path):
    assert main(["reproduce", "fig3", "--seed", "1", "--out", str(tmp_path),
                 "--reproducible"]) == 0
    assert (tmp_path / "fig3_length_scan.csv").exists()
    assert (tmp_path / "fig3_density.svg").read_text().startswith("<svg ")


def test_main_reproduce_fig4_with_zero_q_error(tmp_path):
    # At seed 195 the delta = 1e-9 edge index is exactly 0, so one q_error is
    # 0 and has no place on the log-log delta plot.
    assert main(["reproduce", "fig4", "--seed", "195", "--out", str(tmp_path),
                 "--reproducible"]) == 0
    names = ("fig4_switch_scan", "fig4_delta_scan")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{n}.{ext}" for n in names for ext in ("csv", "svg")
    )
    lines = (tmp_path / "fig4_delta_scan.csv").read_text().splitlines()
    q_errors = [ln.rsplit(",", 1)[1] for ln in lines if not ln.startswith("#")][1:]
    assert "0.0" in q_errors
    assert (tmp_path / "fig4_delta_scan.svg").read_text().count("<circle") == len(q_errors) - 1


def test_main_reproduce_fig4_with_subnormal_q_error(tmp_path):
    # At seed 2394 one q_error is 4.6e-311, so the padded log axis reaches
    # below 1e-323 and its lowest tick would underflow to 0.
    assert main(["reproduce", "fig4", "--seed", "2394", "--out", str(tmp_path),
                 "--reproducible"]) == 0
    names = ("fig4_switch_scan", "fig4_delta_scan")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{n}.{ext}" for n in names for ext in ("csv", "svg")
    )
    for name in names:
        root = ElementTree.parse(tmp_path / f"{name}.svg").getroot()
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
    lines = (tmp_path / "fig4_delta_scan.csv").read_text().splitlines()
    rows = [ln for ln in lines if not ln.startswith("#")][1:]
    q_errors = [float(ln.rsplit(",", 1)[1]) for ln in rows]
    assert 0.0 < min(q_errors) < 1e-308
    assert (tmp_path / "fig4_delta_scan.svg").read_text().count("<circle") == len(q_errors)


def test_main_unwritable_output_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(
        scan="length", geometry={"length": [10, 20], "convention": "cell"}
    ))
    missing = tmp_path / "missing" / "x.csv"
    assert main(["scan", "--config", str(cfg), "--out", str(missing)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(missing) in err
    existing = tmp_path / "file"
    existing.write_text("")
    assert main(["reproduce", "fig3", "--out", str(existing)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(existing) in err


@pytest.mark.parametrize("where", ["--out", "config"])
def test_unwritable_output_fails_before_any_scan_point(tmp_path, capsys, monkeypatch, where):
    import chiralchain.cli as cli_module

    def not_called(config):
        raise AssertionError("run must not start when the output cannot be written")

    monkeypatch.setattr(cli_module, "run", not_called)
    missing = tmp_path / "missing" / "x.csv"
    raw = base_config(scan="length", geometry={"length": [10, 20], "convention": "cell"})
    argv = ["scan", "--config"]
    if where == "config":
        raw["output"] = str(missing)
        argv.append(str(write_config(tmp_path, raw)))
    else:
        argv += [str(write_config(tmp_path, raw)), "--out", str(missing)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"config error: output: cannot write {missing}: ")
    assert not missing.parent.exists()


def test_unwritable_bounds_output_fails_before_certificates(tmp_path, capsys, monkeypatch):
    import chiralchain.cli as cli_module

    def not_called(config):
        raise AssertionError("bound_table must not start when the output cannot be written")

    monkeypatch.setattr(cli_module, "bound_table", not_called)
    cfg = write_config(tmp_path, base_config())
    assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: output: cannot write {tmp_path}: is a directory")


def _count_svds(monkeypatch) -> list:
    """Count the SVDs of A->B blocks, the one solve of the chiral path."""
    from chiralchain import spectral

    calls = []
    solve = spectral._chiral_svd

    def counted(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(spectral, "_chiral_svd", counted)
    return calls


@pytest.mark.parametrize("command", ["bounds", "check"])
def test_certify_commands_diagonalize_once(tmp_path, capsys, monkeypatch, command):
    cfg = write_config(tmp_path, disordered_config(
        geometry={"length": 40, "convention": "cell"}, delta={"mode": "theorem"}))
    svds = _count_svds(monkeypatch)
    assert main([command, "--config", str(cfg), "--reproducible"]) == 0
    assert len(svds) == 1


def test_figures_diagonalize_each_model_once(monkeypatch):
    # fig4's switch and delta scans share one model each; fig3 solves each
    # of its 10 lengths once, plus the density table's L = 30 chain.
    import chiralchain.cli as cli_module

    svds = _count_svds(monkeypatch)
    per_run = []
    run_tables = cli_module.run

    def counted_run(config):
        before = len(svds)
        table = run_tables(config)
        per_run.append(len(svds) - before)
        return table

    monkeypatch.setattr(cli_module, "run", counted_run)
    reproduce_fig4(1)
    assert per_run == [1, 1]
    svds.clear()
    reproduce_fig3(1)
    assert len(svds) == 11


def test_scans_and_figures_leave_scipy_unloaded(tmp_path):
    # Importing scipy.linalg or scipy.sparse.linalg costs 28-32 MB of
    # resident memory; only the test oracles need scipy.  The bidiagonal
    # SVD, and in theorem mode the ring's band LU, come from numpy's own
    # LAPACK, and these commands resolve them.
    for folder in ("theorem", "theorem-scan"):
        (tmp_path / folder).mkdir()
    cfg = write_config(tmp_path, disordered_config(
        scan="length", geometry={"length": [10, 20], "convention": "cell"}))
    theorem = write_config(tmp_path / "theorem", disordered_config(delta={"mode": "theorem"}))
    theorem_scan = write_config(tmp_path / "theorem-scan", disordered_config(
        scan="length", geometry={"length": [10, 20], "convention": "cell"}, delta={"mode": "theorem"}))
    commands = [
        ["reproduce", "fig3", "--out", str(tmp_path), "--reproducible"],
        ["reproduce", "fig4", "--out", str(tmp_path), "--reproducible"],
        ["scan", "--config", str(cfg), "--out", str(tmp_path / "scan.csv")],
        *([command, "--config", str(theorem), "--out", str(tmp_path / f"{command}.csv")]
          for command in ("index", "bounds", "check")),
        ["scan", "--config", str(theorem_scan), "--out", str(tmp_path / "theorem-scan.csv")],
    ]
    script = (
        "import json, sys\n"
        "from chiralchain.cli import main\n"
        "from chiralchain import _lapack\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "resolved = [_lapack.dstevd.cache_info().currsize, _lapack.band_kernels.cache_info().currsize]\n"
        "print(json.dumps([codes, 'scipy' in sys.modules, resolved]))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0] * 7, False, [1, 1]]


def test_bidiagonal_svd_failure_exits_2(tmp_path, capsys, monkeypatch):
    from chiralchain import _lapack

    def failing_kernel(*args):
        args[10]._obj.value = 3  # INFO: an eigenvalue did not converge

    monkeypatch.setattr(_lapack, "dstevd", lambda: failing_kernel)
    cfg = write_config(tmp_path, disordered_config(
        scan="length", geometry={"length": [10, 20], "convention": "cell"}))
    assert main(["scan", "--config", str(cfg), "--out", str(tmp_path / "scan.csv")]) == 2
    assert capsys.readouterr().err == (
        "numerical failure: bidiagonal SVD of the A->B block failed: dstevd info = 3\n"
    )


def test_bulk_gap_without_band_kernels_on_a_large_ring_exits_2(tmp_path, capsys, monkeypatch):
    # A numpy whose LAPACK lacks the band kernels takes the dense ring only
    # up to 1024 cells; the default ring of a 300-cell chain has 1200.
    from chiralchain import _lapack

    monkeypatch.setattr(_lapack, "band_kernels", lambda dtype: None)
    raw = disordered_config(delta={"mode": "theorem"})
    raw["geometry"]["length"] = 300
    cfg = write_config(tmp_path, raw)
    assert main(["index", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "numerical failure: bulk gap of a 1200-cell ring: numpy's LAPACK lacks the band kernels, "
        "and the dense fallback takes at most 1024 cells\n"
    )


def test_bounds_command_leaves_scipy_special_unloaded(tmp_path):
    # The Chebyshev tail of the propagator bound uses math.lgamma, not
    # scipy.special, and the theorem delta's bulk gap uses no scipy at all.
    cfg = write_config(tmp_path, disordered_config(delta={"mode": "theorem"}))
    script = (
        "import sys\n"
        "from chiralchain.cli import main\n"
        "code = main(['bounds', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(code, 'scipy' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script, str(cfg), str(tmp_path / "bounds.csv")],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]


def test_cli_import_leaves_scipy_unloaded():
    # scipy is only needed by the test oracles.
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, chiralchain.cli; print('scipy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_main_bad_usage_exit_code(capsys):
    assert main(["frobnicate"]) == 1


def test_main_commands_in_a_row_match_each_alone(tmp_path, capsys):
    # The parser is built once per process, so one parse must leave nothing behind for the next.
    from chiralchain import cli

    cfg = str(write_config(tmp_path, disordered_config()))
    commands = [
        ["bounds", "--reproducible"],  # usage error: --config is missing
        ["bounds", "--config", cfg, "--reproducible"],
        ["check", "--config", cfg, "--reproducible"],
    ]

    def outcome(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    alone = []
    for argv in commands:
        cli._build_parser.cache_clear()
        alone.append(outcome(argv))
    cli._build_parser.cache_clear()
    in_a_row = [outcome(argv) for argv in commands]
    assert in_a_row == alone
    assert [code for code, _, _ in alone] == [1, 0, 0]
    assert cli._build_parser.cache_info().misses == 1


def test_run_sorts_scan_axis_ascending():
    raw = disordered_config(
        scan="length", geometry={"length": [40, 10, 20], "convention": "cell"}
    )
    table = run(parse_config(raw))
    assert [r[0] for r in table.rows] == [10, 20, 40]


def _count_calls(monkeypatch, module, name) -> list:
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_theorem_switch_scan_measures_constants_once(monkeypatch):
    # The gap and the short-range constant depend on the model, not on the switch.
    import chiralchain.cli as cli_module

    gaps = _count_calls(monkeypatch, cli_module, "bulk_gap")
    norms = _count_calls(monkeypatch, cli_module, "short_range_constant")
    table = run(parse_config(disordered_config(
        scan="switch", switch=[6, 12, 18], geometry={"length": 24, "convention": "cell"},
        delta={"mode": "theorem"})))
    assert len(table.rows) == 3
    assert (len(gaps), len(norms)) == (1, 1)


def test_length_scan_holds_one_hamiltonian_at_a_time(monkeypatch):
    import weakref

    import chiralchain.cli as cli_module

    built = []
    build = cli_module.build_ssh

    def recorded(*args):
        assert all(ref() is None for ref in built), "an earlier point's H is still alive"
        H = build(*args)
        built.append(weakref.ref(H))
        return H

    monkeypatch.setattr(cli_module, "build_ssh", recorded)
    run(parse_config(disordered_config(
        scan="length", geometry={"length": [10, 20, 30], "convention": "cell"})))
    assert len(built) == 3


@pytest.mark.parametrize("scan, single", [
    ({"scan": "length", "geometry": {"length": [30, 10, 20], "convention": "cell"},
      "delta": {"mode": "theorem"}},
     {"geometry": {"length": 10, "convention": "cell"}, "delta": {"mode": "theorem"}}),
    ({"scan": "delta", "delta_values": [0.3, 0.05]},
     {"delta": {"mode": "manual", "value": 0.05}}),
])
def test_bounds_and_check_build_only_the_smallest_scan_point(monkeypatch, scan, single):
    import chiralchain.cli as cli_module

    point = parse_config(disordered_config(**single))
    rows, checks = bound_table(point).rows, self_check(point)
    config = parse_config(disordered_config(**scan))
    builds = _count_calls(monkeypatch, cli_module, "build_ssh")
    assert bound_table(config).rows == rows
    assert len(builds) == 1
    assert self_check(config) == checks
    assert len(builds) == 2


def test_run_refuses_a_row_with_a_visible_residual(tmp_path, capsys, monkeypatch):
    import chiralchain.cli as cli_module

    report = cli_module.index_report
    seen = []

    def broken(H, delta, transition):
        seen.append(transition)
        r = report(H, delta, transition)
        return dataclasses.replace(r, correspondence_residual=1e-9) if transition == 12 else r

    monkeypatch.setattr(cli_module, "index_report", broken)
    cfg = write_config(tmp_path, disordered_config(
        scan="switch", switch=[18, 6, 12], geometry={"length": 24, "convention": "cell"}))
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 2
    assert seen == [6, 12] and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: bulk-edge identity violated at L = 24, ell = 12, delta = ")
    assert err.rstrip().endswith("residual 1.000e-09")


def _point_row(config, length, transition, delta):
    """One index row from the library alone, with H and theorem constants built for this point."""
    geom = make_geometry(length, config.convention)
    profile = build_profile(config.model, geom.cells, config.seed)
    H = build_ssh(geom, profile)
    policy = config.delta
    if delta is not None:
        policy = DeltaPolicy.manual(delta)
    elif policy.mode is DeltaMode.THEOREM:
        policy = dataclasses.replace(policy, half_gap=bulk_gap(profile),
                                     coupling_norm=short_range_constant(H, policy.decay_length))
    return index_report(H, policy, transition).csv_row(config.seed)


@st.composite
def scan_configs(draw):
    convention = draw(st.sampled_from(["cell", "sites"]))
    length = draw(st.integers(2, 40))
    raw = disordered_config(
        geometry={"length": length, "convention": convention},
        delta=draw(st.sampled_from([
            {"mode": "empirical"}, {"mode": "theorem"}, {"mode": "manual", "value": 0.1}])),
        scan=draw(st.sampled_from(["none", "length", "switch", "delta"])),
    )
    raw["model"]["disorder"]["amplitude"] = draw(st.sampled_from([0.0, 0.1]))
    if raw["scan"] == "length":
        raw["geometry"]["length"] = draw(st.lists(st.integers(2, 40), min_size=1, max_size=3, unique=True))
    elif raw["scan"] == "switch":
        raw["switch"] = draw(st.lists(st.integers(1, length - 1), min_size=1, max_size=3, unique=True))
    elif raw["scan"] == "delta":
        raw["delta_values"] = draw(st.lists(st.floats(1e-9, 2.0), min_size=1, max_size=3, unique=True))
    return parse_config(raw)


@settings(max_examples=60, deadline=None)
@given(config=scan_configs())
def test_run_equals_a_point_by_point_library_evaluation(config):
    # Pins the sharing rules: a length scan never reuses another length's H,
    # and a delta scan never reads theorem constants.
    import chiralchain.cli as cli_module

    def axis(values, scanned):
        return sorted(values) if config.scan is scanned else [values]

    lengths = axis(config.length, ScanAxis.LENGTH)
    deltas = sorted(config.delta_values) if config.scan is ScanAxis.DELTA else [None]
    expected = [
        _point_row(config, length, transition, delta)
        for length in lengths
        for transition in axis(config.switch, ScanAxis.SWITCH)
        for delta in deltas
    ]
    with mock.patch.object(cli_module, "bulk_gap", wraps=bulk_gap) as gaps:
        rows = run(config).rows
    assert [list(map(repr, row)) for row in rows] == [list(map(repr, row)) for row in expected]
    theorem = config.delta.mode is DeltaMode.THEOREM and config.scan is not ScanAxis.DELTA
    assert gaps.call_count == (len(lengths) if theorem else 0)


def _count_matrix_reads(monkeypatch) -> list:
    """Count the reads of ``ChiralHamiltonian.matrix``, the assembled n x n matrix."""
    from chiralchain.hamiltonian import ChiralHamiltonian

    reads = []
    assemble = ChiralHamiltonian.matrix.fget

    def counted(self):
        reads.append(self.geometry)
        return assemble(self)

    monkeypatch.setattr(ChiralHamiltonian, "matrix", property(counted))
    return reads


@pytest.mark.parametrize("convention", ["cell", "sites"])
def test_production_commands_never_assemble_the_matrix(tmp_path, capsys, monkeypatch, convention):
    # Every command works on the stored band of T and on the sublattice
    # blocks of its functions; check reads Hermiticity and chirality from
    # the band too.
    geometry = {"length": 41, "convention": convention}
    theorem = write_config(tmp_path, disordered_config(geometry=geometry, delta={"mode": "theorem"}))
    scan = tmp_path / "scan.json"
    scan.write_text(json.dumps(disordered_config(
        scan="length", geometry={"length": [20, 41], "convention": convention})))
    reads = _count_matrix_reads(monkeypatch)
    commands = [
        ["scan", "--config", str(scan), "--reproducible"],
        ["index", "--config", str(theorem), "--reproducible"],
        ["bounds", "--config", str(theorem), "--reproducible"],
        ["check", "--config", str(theorem)],
    ]
    if convention == "cell":
        commands += [["reproduce", fig, "--out", str(tmp_path), "--reproducible"]
                     for fig in ("fig3", "fig4")]
    for argv in commands:
        assert main(argv) == 0, argv
        assert reads == [], argv
