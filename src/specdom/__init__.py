"""Threshold graphs, Laplacian spectra, and spectral-dominance checks.

The package certifies eigenvalue prefix-sum bounds (Grone-Merris-Bai and
Brouwer) with explicit threshold-graph witnesses, and ships the extremal
constructions behind them: Ferrers-diagram arithmetic, greedy diagram
fills, dominators for split graphs and cycles, and energy maximisers.

Each public name is imported from its module on first use (PEP 562), so
importing the package loads numpy only once a name that needs it is used.
"""

import importlib

_NAMES = {
    "builders": """
        ExtremalPlan ThresholdGraph brouwer_extremal
        brouwer_extremal_plan clique_plus_isolated_threshold
        complement_threshold cycle_dominator enumerate_threshold
        format_threshold from_below_columns from_creation_sequence
        parse_threshold pineapple realize spectrum_of split_dominator
        union_merge
    """.split(),
    "dominance": """
        BrouwerViolationError DominanceReport DominanceWitness PerKEntry
        energy_witness max_energy_threshold std_constructive std_oracle
        threshold_energy
    """.split(),
    "enumeration": "threshold_columns threshold_count".split(),
    "graphs": """
        Graph Graph6Error GraphInputError complement complete
        complete_plus_isolated cycle decode_graph6 disjoint_union
        encode_graph6 format_edge_list from_edge_list iter_graph6
        parse_edge_list
    """.split(),
    "partitions": """
        ConjugateSequence DegreeSequence below_columns conjugate
        conjugate_counts is_split is_threshold trace
    """.split(),
    "scan": """
        NearEquality RecordError ScanSummary Violation scan_all_graphs
        scan_graph6_lines
    """.split(),
    "spectra": """
        CheckReport JacobiConvergenceError KEntry Spectrum check_brouwer
        check_gmb cycle_spectrum eigenvalues energy_count
        energy_via_prefix jacobi_eigenvalues jacobi_eigenvalues_batch
        laplacian laplacian_energy prefix_sums
    """.split(),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
