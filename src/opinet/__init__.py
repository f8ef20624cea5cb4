"""Opinion dynamics on community graphs and their continuum closures."""

from .errors import ConfigError, SimulationError
from .graph import (GraphConfig, CommunityGraph, generate_community_graph,
                    ensure_connected)
from .micro import (DebateOperator, micro_rhs, euler_step, step_size_bound,
                    euler_maruyama_step, conserved_quantity, consensus_value,
                    potential_v, e_micro)
from .empirical import (Grid, ScalarField, PairField, LabeledFields,
                        MixtureSpec, sample_initial_opinions, empirical_f,
                        empirical_g_kde, split_by_group, bandwidth_select)
from .continuum import (ContinuumParams, cfl_max_dt, step_unlabeled,
                        step_labeled)
from .analysis import (RunReport, consensus_value_cont, e_cont,
                       lyapunov_tilde, fit_exponential_rate)
from .config import (ExperimentConfig, MicroParams, load_config,
                     save_config, PRESETS, preset_three_communities,
                     preset_crossing, replace_mixing)
from .runner import build_initial_state, run_experiment, run_mu_sweep

__version__ = "0.1.0"
