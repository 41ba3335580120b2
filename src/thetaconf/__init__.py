"""Planar level trees, wreath-product tree categories, ordering posets,
nerve homology, and exact configuration-cell classification."""

from .cells import (Configuration, cell_of, convexity_probe,
                    functoriality_check, in_cell, midpoint, parse_point_file,
                    sample, sample_in_cell, witness)
from .errors import (DEFAULT_MAX_COUNT, BranchingConditionViolation,
                     CapExceeded, LabelMismatch, NotActive, SymbolParseError,
                     UnhealthyTarget)
from .gamma import (DeltaMorphism, GammaMorphism, delta_compose,
                    enumerate_delta, enumerate_gamma, gamma_compose,
                    gamma_is_active, segal)
from .homology import (ChainComplex, HomologyResult, OrderComplex,
                       boundary_matrices, homology, order_complex,
                       poset_homology, smith_normal_form)
from .labelled import (LabelledTree, embed, hom_exists, hom_morphism,
                       initiality_check, label_bijection, retract,
                       unit_exists)
from .nord import (NOrdering, PosetView, degree, enumerate_nord, from_tree,
                   hasse, leq, pair_level, parse_text, sigma_act, to_tree,
                   upper_covers)
from .theta import (ThetaMorphism, assemble_morphism,
                    branching_condition_holds, enumerate_hom_bruteforce,
                    identity_morphism, lift_active, theta_compose)
from .trees import (LeafId, PlanarLevelTree, ROOT_ONLY, branching_level,
                    enumerate_trees, healthify, is_healthy, level_n_leaves,
                    parse_symbol, render_symbol)

__version__ = "0.1.0"
