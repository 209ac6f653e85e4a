"""Finite-size bulk and edge topological indices for open chiral chains.

Builds chiral tight-binding Hamiltonians (SSH and generalizations, with
disorder, defects and boundary perturbations), evaluates the smoothed
finite-size bulk and edge indices together with their exact correspondence,
and numerically certifies the locality bounds that make the indices
meaningful.  The ``chiralchain`` CLI runs seeded parameter scans to CSV and
minimal SVG plots.
"""

__version__ = "0.1.0"

from .lattice import (
    ChainGeometry,
    Convention,
    GeometryError,
    SwitchError,
    SwitchFunction,
    chiral_polarization,
    make_geometry,
    switch_function,
)
from .hamiltonian import (
    ChiralHamiltonian,
    CouplingProfile,
    ExtraCoupling,
    apply_defect,
    apply_disorder,
    block_norms,
    build_ssh,
    bulk_gap,
    periodic_closure,
    short_range_constant,
    verify_chiral,
)
from .spectral import (
    ChiralSpectrum,
    NumericalError,
    OracleRangeError,
    SpectralData,
    eigh,
    flattened_sign,
    gap_filter,
    matrix_function,
    propagator,
    tanh_oracle,
)
from .indices import (
    DeltaMode,
    DeltaPolicy,
    IndexKind,
    IndexReport,
    bulk_index,
    edge_index,
    index_density,
    index_report,
    resolve_delta,
    windowed_edge_index,
)
from .bounds import (
    BoundCertificate,
    DecayProfile,
    anticommutator_trace_norms,
    correlation_length,
    decay_profile,
    edge_filter_decay_check,
    lieb_robinson_check,
    restriction_discrepancy,
)
from .svgplot import PlotKind, emit_plot
from .cli import (
    ConfigError,
    ExperimentConfig,
    ResultTable,
    ScanAxis,
    load_config,
    parse_config,
    reproduce_fig3,
    reproduce_fig4,
    run,
)

__all__ = [name for name in dir() if not name.startswith("_")]
