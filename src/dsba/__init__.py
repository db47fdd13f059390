"""Decentralized stochastic root-finding of monotone operator sums.

Library + simulator for variance-reduced resolvent-based consensus methods
over synchronous gossip networks, with a sparse delta-relay communication
mode and explicit/full-batch baselines.
"""

from .algorithms import (BatchedTable, NodeState, PhiTable, dsa_node_step,
                         dsba_node_step, extra_round, make_node, step_size_bound)
from .dataset import (Rows, Shards, default_lambda, normalize_rows, parse_libsvm,
                      partition)
from .operators import eval_component, lipschitz_bound, resolve_regularized
from .simulator import (MetricsLog, Problem, RunConfig, RunResult,
                        SyntheticSpec, auc_score, build_problem, objective,
                        reference_solution, run, set_up, synthetic_samples)
from .sparsecomm import Network, ObserverMemory, run_sparse
from .topology import (MixingMatrix, build_mixing, check_mixing_conditions,
                       make_adjacency)

__version__ = "0.1.0"
