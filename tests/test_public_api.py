"""The names opinet exports, pinned.

Submodules are left out: which of them are attributes of the package
depends on what else has been imported.
"""

import ast
import sys
import types
from pathlib import Path

import opinet

EXPORTS = {
    "CommunityGraph", "ConfigError", "ContinuumParams", "DebateOperator",
    "ExperimentConfig", "GraphConfig", "Grid", "LabeledFields", "MicroParams",
    "MixtureSpec", "PRESETS", "PairField", "RunReport", "ScalarField",
    "SimulationError", "bandwidth_select", "build_initial_state",
    "cfl_max_dt", "consensus_value", "consensus_value_cont",
    "conserved_quantity", "e_cont", "e_micro", "empirical_f",
    "empirical_g_kde", "ensure_connected", "euler_maruyama_step",
    "euler_step", "fit_exponential_rate", "generate_community_graph",
    "load_config", "lyapunov_tilde", "micro_rhs", "potential_v",
    "preset_crossing", "preset_three_communities", "replace_mixing",
    "run_experiment", "run_mu_sweep", "sample_initial_opinions",
    "save_config", "split_by_group", "step_labeled", "step_size_bound",
    "step_unlabeled",
}

# references the tests compare against and graph helpers that only the
# tests use, kept in tests/oracles.py or restated in the tests
ORACLES = {"llf_flux_f", "llf_flux_g", "eta_discrete", "community_pdf",
           "mirrored_laplacian", "exact_g_kde", "laplacian", "spectral_gap",
           "graph_from_pairs", "is_connected", "measured_mixing"}

SOURCES = sorted(Path(opinet.__file__).parent.glob("*.py"))


def test_exports_are_pinned():
    names = {name for name in dir(opinet) if not name.startswith("_")
             and not isinstance(getattr(opinet, name), types.ModuleType)}
    assert names == EXPORTS


def test_no_oracle_is_exported():
    assert not [name for name in ORACLES if hasattr(opinet, name)]
    assert not hasattr(opinet.MixtureSpec, "community_pdf")


def test_no_module_imports_a_private_name_of_another():
    # a name that two modules share is part of the package's inside API,
    # so it has no leading underscore
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += ["%s: from %s%s import %s"
                          % (path.name, "." * node.level, node.module or "",
                             alias.name)
                          for alias in node.names
                          if alias.name.startswith("_")]
    assert not found


def test_the_package_imports_only_numpy_and_the_standard_library():
    # anywhere in a module, a function body included, so no call path
    # needs a package that pyproject.toml does not list for a run
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += ["%s: %s" % (path.name, name) for name in names
                      if name.split(".")[0] != "numpy"
                      and name.split(".")[0] not in sys.stdlib_module_names]
    assert not found
