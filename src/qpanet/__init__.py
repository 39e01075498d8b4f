"""Paradox measures on quality-driven preferential attachment networks.

The package computes, in closed form, the joint degree-quality
distribution of a growth model whose attachment rate is degree plus
quality, the distribution of a neighbor's degree and quality, and the
derived friendship/quality paradox measures (critical values and
affected-node fractions, in mean and median versions, against both the
model and an uncorrelated baseline).  A generative simulator and an
edge-list loader provide Monte Carlo cross-validation and real-graph
ingestion.
"""

from .analytic import (
    JointTable,
    ModelParams,
    NeighborDist,
    build_joint_table,
    joint_probability,
    neighbor_degree_dist,
    neighbor_degree_first_moment,
    neighbor_quality_dist,
    nn_probability,
    write_nn_table,
)
from .errors import (
    DomainError,
    GraphParseError,
    NonConvergenceError,
    QpanetError,
    UndefinedConditionalError,
)
from .measures import (
    Criticals,
    Fractions,
    SweepRow,
    critical_values,
    paradox_fractions,
    sweep,
    uncorrelated_criticals,
    write_sweep_csv,
)
from .numerics import SeriesResult, adaptive_series
from .quality import (
    QualityPmf,
    load_custom,
    make_bernoulli,
    make_custom,
    make_exponential,
    sample_quality,
)
from .simulate import (
    EmpiricalReport,
    Network,
    empirical_report,
    grow_qpa,
    grow_uniform,
    joint_histogram,
    load_graph,
)

__version__ = "0.1.0"

__all__ = [
    "ModelParams",
    "JointTable",
    "NeighborDist",
    "QualityPmf",
    "Criticals",
    "Fractions",
    "SweepRow",
    "Network",
    "EmpiricalReport",
    "SeriesResult",
    "adaptive_series",
    "make_bernoulli",
    "make_exponential",
    "make_custom",
    "load_custom",
    "sample_quality",
    "joint_probability",
    "build_joint_table",
    "nn_probability",
    "neighbor_quality_dist",
    "neighbor_degree_dist",
    "neighbor_degree_first_moment",
    "write_nn_table",
    "critical_values",
    "uncorrelated_criticals",
    "paradox_fractions",
    "sweep",
    "write_sweep_csv",
    "grow_qpa",
    "grow_uniform",
    "load_graph",
    "empirical_report",
    "joint_histogram",
    "QpanetError",
    "DomainError",
    "NonConvergenceError",
    "UndefinedConditionalError",
    "GraphParseError",
]
