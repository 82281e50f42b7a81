"""SINR link-capacity algorithms: LP relaxation with randomized rounding,
greedy baselines, admission control, and an exhaustive oracle."""

from .model import (DistanceMatrix, Instance, Link, Point, PowerAssignment, PrimarySet,
                    parse_power, read_instance, write_instance)
from .affectance import (AffectanceContext, IndividuallyInfeasible,
                         InfeasiblePrimaries, Schedule, affectance, c_factor, certify,
                         hat_noise, separation_check)
from .lp_core import (FractionalSolution, LinearProgram, LpSession, LpSolveError,
                      check_solution, dump_lp, solve_lp)
from .formulations import (PROBLEMS, admission_filter_threshold, build_admission_large_lp,
                           build_admission_lp, build_capacity_lp, build_qos_lp,
                           build_weighted_lp)
from .rounding import (RoundingPolicy, bernoulli_draws, run_pipeline, run_sweep,
                       schedule_value, signal_strengthen)
from .greedy import greedy_base, greedy_combined, greedy_sweep
from .oracle import TooLarge, exact_admission, exact_capacity, largest_bifeasible
from .admission import (AdmissionResult, RetriesExhausted, admit_general, admit_large_opt,
                        admit_sweep)
from .harness import (GenConfig, ExperimentRecord, generate_instance,
                      run_compare, run_oracle_suite)

__version__ = "0.1.0"
