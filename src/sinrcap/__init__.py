"""SINR link-capacity algorithms: LP relaxation with randomized rounding,
greedy baselines, admission control, and an exhaustive oracle."""

from .model import (DistanceMatrix, Instance, Link, Point, PowerAssignment,
                    PrimarySet, length_ratio, parse_power, read_instance,
                    validate_power_class, write_instance)
from .affectance import (AffectanceContext, IndividuallyInfeasible,
                         InfeasiblePrimaries, Schedule, affectance,
                         aggregate_affectance, c_factor, certify,
                         check_feasibility, hat_noise, separation_check)
from .lp_core import (FractionalSolution, LinearProgram, LpSession, LpSolveError,
                      check_solution, dump_lp, solve_lp)
from .formulations import (admission_filter_threshold, build_admission_large_lp,
                           build_admission_lp, build_capacity_lp, build_qos_lp,
                           build_weighted_lp)
from .rounding import (RoundingPolicy, bernoulli_draws, extract_low_affectance,
                       final_selection, run_pipeline, run_sweep, sample_round,
                       schedule_weight, signal_strengthen)
from .greedy import (greedy_base, greedy_combined, greedy_combined_sweep,
                     greedy_length_classes, greedy_sweep, greedy_weight_classes)
from .oracle import TooLarge, exact_admission, exact_capacity, largest_bifeasible
from .admission import (AdmissionResult, RetriesExhausted, admit_general,
                        admit_large_opt, nearly_uniform_classes,
                        partition_by_primaries, sparsify, verify_admission)
from .harness import (GenConfig, ExperimentRecord, generate_instance,
                      run_compare, run_oracle_suite)

__version__ = "0.1.0"
