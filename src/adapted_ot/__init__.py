"""Adapted optimal-transport distances and optimal stopping on scenario trees."""

__version__ = "0.1.0"

from .trees import (FilteredTree, GridError, Node, PathLaw, TimeGrid, align,
                    coarsen_filtration, common_grid, law, regrid,
                    standard_tree, tree_from_json, tree_isomorphic,
                    tree_to_json, validate)
from .prediction import (hk_minimize, is_naturally_filtered, natural_tree,
                         prediction_process, stable_labels)
from .coupling import (Coupling, EpsShift, ZERO_SHIFT, X_TO_Y, Y_TO_X,
                       causality_constraints, glue, identity_coupling,
                       is_eps_bicausal, is_eps_causal, path_cost_matrix,
                       product_coupling, transport_cost)
from .lp import LPError, LPResult, lp_solve, transport_lp
from .solvers import (DistanceReport, aw, cw, eps_bicausal_lp, hellwig,
                      nested_bicausal, scw, strict_scw, wasserstein)
from .stopping import (CostFunction, OSResult, StoppingRule, TransferFamily,
                       brute_force_os, cost_by_name, eval_rule,
                       lipschitz_battery, martingale_defect, modulus,
                       os_from_transfer, os_stability_bound, running_max_cost,
                       snell_os, state_cost, terminal_cost,
                       transfer_stopping_time)
from .generators import (McEstimate, aldous_functional, bursty_time_change,
                         counterexample_limit, counterexample_pair,
                         euler_pair_cost, figure1_pair, gaussian_lattice_tree,
                         offset_rw_pair, parse_coefficient, quantized_bm_tree,
                         random_martingale_tree, random_tree,
                         random_walk_tree, rw_bm_block_coupling_cost,
                         shifted_time_change, time_changed_bm_pair)
