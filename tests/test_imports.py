"""What importing the package and running each command loads, each in a
fresh interpreter: numpy only for the commands that solve spectra, and
of the package and the heavier standard modules only what the command
runs."""

import ast
import json

import pytest

# runs the command line in this interpreter, then reports on stderr
# whether numpy was imported
PROBE = ("import sys; from specdom.cli import main; rc = main(sys.argv[1:]); "
         "print('numpy' in sys.modules, file=sys.stderr); sys.exit(rc)")

# standard modules that cost a command's start-up time when it does not
# need them: dataclasses pulls in inspect, ast, dis and tokenize
WATCHED = ("dataclasses", "inspect", "json", "csv", "multiprocessing", "numpy")
# the package's modules and the WATCHED ones imported so far, sorted
LOADED = ("[sorted(m for m in sys.modules if m.partition('.')[0] == 'specdom'), "
          f"[m for m in {WATCHED!r} if m in sys.modules]]")
# runs the command line in this interpreter, then reports LOADED on stderr
# as its last line, also after --help; it imports nothing of its own
MODULES_PROBE = ("import sys\n"
                 "from specdom.cli import main\n"
                 "try:\n"
                 "    sys.exit(main(sys.argv[1:]))\n"
                 "finally:\n"
                 f"    print({LOADED}, file=sys.stderr)\n")
BARE = ["specdom", "specdom.cli"]
BUILD = sorted(BARE + ["specdom.builders", "specdom.enumeration", "specdom.graphs",
                       "specdom.partitions"])
SEARCH = sorted(BARE + ["specdom.graphs", "specdom.scan", "specdom.spectra"])
ANALYZE = sorted(BARE + ["specdom.builders", "specdom.dominance", "specdom.enumeration",
                         "specdom.graphs", "specdom.jsonlayout", "specdom.spectra",
                         "specdom.writers"])

PUBLIC_NAMES = [
    "BrouwerViolationError", "CheckReport", "ConjugateSequence",
    "DegreeSequence", "DominanceReport", "DominanceWitness", "ExtremalPlan",
    "Graph", "Graph6Error", "GraphInputError", "JacobiConvergenceError",
    "KEntry", "NearEquality", "PerKEntry", "RecordError", "ScanSummary",
    "Spectrum", "ThresholdGraph", "Violation", "below_columns",
    "brouwer_extremal", "brouwer_extremal_plan", "check_brouwer", "check_gmb",
    "clique_plus_isolated_threshold", "complement", "complement_threshold",
    "complete", "complete_plus_isolated", "conjugate", "conjugate_counts",
    "cycle", "cycle_dominator", "cycle_spectrum", "decode_graph6",
    "disjoint_union", "eigenvalues", "encode_graph6", "energy_count",
    "energy_via_prefix", "energy_witness", "enumerate_threshold",
    "format_edge_list", "format_threshold", "from_below_columns",
    "from_creation_sequence", "from_edge_list", "is_split", "is_threshold",
    "iter_graph6", "jacobi_eigenvalues", "jacobi_eigenvalues_batch",
    "laplacian", "laplacian_energy", "max_energy_threshold",
    "parse_edge_list", "parse_threshold", "pineapple", "prefix_sums",
    "realize", "scan_all_graphs", "scan_graph6_lines", "spectrum_of",
    "split_dominator", "std_constructive", "std_oracle", "threshold_columns",
    "threshold_count", "threshold_energy", "trace", "union_merge",
]


def test_cli_imports_without_numpy(run_python):
    proc = run_python(["-c", "import sys, specdom.cli; "
                             "print('numpy' in sys.modules)"], text=True)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


@pytest.mark.parametrize("argv, numpy_loaded", [
    (["enumerate-threshold", "6"], False),
    (["enumerate-threshold", "6", "--json"], False),
    (["build", "cycle-dominator", "8"], False),
    (["build", "split-dominator", "{k3}", "2"], False),
    (["analyze", "{k3}"], True),
    (["search", "{k3}"], True),
], ids=["enumerate", "enumerate-json", "cycle-dominator", "split-dominator",
        "analyze", "search"])
def test_numpy_loads_only_to_solve_spectra(run_python, tmp_path, argv,
                                           numpy_loaded):
    # the triangle, a split graph
    k3 = tmp_path / "k3.g6"
    k3.write_text("Bw\n")
    argv = [a.format(k3=k3) for a in argv]
    proc = run_python(["-c", PROBE, *argv], text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert proc.stderr.splitlines()[-1] == str(numpy_loaded)


def test_cli_import_loads_only_the_cli(run_python):
    proc = run_python(["-c", f"import sys, specdom.cli; print({LOADED})"], text=True)
    assert proc.returncode == 0, proc.stderr
    assert ast.literal_eval(proc.stdout) == [BARE, []]


@pytest.mark.parametrize("argv, package, watched", [
    (["--help"], BARE, []),
    (["enumerate-threshold", "6"], [*BARE, "specdom.enumeration"], []),
    (["enumerate-threshold", "6", "--json"], [*BARE, "specdom.enumeration"], []),
    (["build", "cycle-dominator", "8"], BUILD, ["dataclasses", "inspect"]),
    (["build", "cycle-dominator", "8", "--json"], BUILD,
     ["dataclasses", "inspect", "json"]),
    (["search", "{k3}", "--jobs", "1"], SEARCH, ["dataclasses", "inspect", "numpy"]),
    # the JSON layout, and none of analyze's code
    (["search", "{k3}", "--jobs", "1", "--json"], sorted(SEARCH + ["specdom.jsonlayout"]),
     ["dataclasses", "inspect", "json", "numpy"]),
    (["analyze", "{k3}"], ANALYZE, ["dataclasses", "inspect", "numpy"]),
    (["analyze", "{k3}", "--csv"], ANALYZE, ["dataclasses", "inspect", "csv", "numpy"]),
    (["analyze", "{k3}", "--json"], ANALYZE, ["dataclasses", "inspect", "json", "numpy"]),
], ids=["help", "enumerate", "enumerate-json", "build", "build-json", "search",
        "search-json", "analyze", "analyze-csv", "analyze-json"])
def test_each_command_loads_only_what_it_runs(run_python, tmp_path, argv,
                                              package, watched):
    k3 = tmp_path / "k3.g6"
    k3.write_text("Bw\n")
    argv = [a.format(k3=k3) for a in argv]
    proc = run_python(["-c", MODULES_PROBE, *argv], text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert ast.literal_eval(proc.stderr.splitlines()[-1]) == [package, watched]


def test_public_names(run_python):
    script = (
        "import json, specdom\n"
        "listed = dir(specdom)\n"
        "star = {}\n"
        "exec('from specdom import *', star)\n"
        "print(json.dumps({'all': specdom.__all__, 'listed': listed,\n"
        "    'star': sorted(k for k in star if k != '__builtins__'),\n"
        "    'mismatched': [n for n in specdom.__all__\n"
        "                if getattr(specdom, n) is not star[n]]}))\n"
    )
    proc = run_python(["-c", script], text=True)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    assert found["all"] == PUBLIC_NAMES
    # dir() names every public name before any of them is loaded
    assert set(PUBLIC_NAMES) <= set(found["listed"])
    assert found["star"] == PUBLIC_NAMES
    assert found["mismatched"] == []
