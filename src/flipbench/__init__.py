"""Laboratory for the FLIP local-search method on smoothed max-k-cut instances.

Exact fixed-point arithmetic end to end: instances, traces, sign
matrices, rank certificates, and batch experiments.
"""

from .model import (DEFAULT_DENOM, Instance, InvalidMoveError, ModelError,
                    Move, complete_edges, cut_value, hamiltonian)
from .thresholds import Beta
from .generator import SmoothingProfile, build_graph, make_instance
from .engine import (PivotRule, ReplayError, Trace, replay, run_flip,
                     slice_trace, trace_from_text, trace_to_text, verify_trace)
from .analysis import (BlockNotFoundError, BlockView, Cycle, CycleSet, Pair,
                       classify_cyclic, cycles, cyclic_acyclic_blocks,
                       find_alpha_cyclic_block, find_critical_block,
                       occurrence_stats, pairs, surplus, two_critical_block)
from .matrices import SignMatrix, build_M, build_P, exact_rank
from .certificates import (Arc, CertificateError, CertificateGraph,
                           build_3cut_certificate, build_half_certificate,
                           build_k2_certificate, certify, validate_certificate)
from .harness import (ExperimentConfig, HarnessError, approx_check,
                      epsilon_bound, exp_mc, exp_rank_campaign, exp_scaling,
                      mc_slow_bound, parse_config, rows_to_csv,
                      run_experiment, state_cuts, theorem_bound,
                      window_length)

__version__ = "0.1.0"
