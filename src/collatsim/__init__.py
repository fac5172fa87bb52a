"""Simulator and verification harness for online collateral maintenance.

A settlement operator holds collateral C and commits part of it against
incoming transactions; committed collateral is reclaimed only by flushing,
which knocks the flushed capacity offline for F slots.  This package
provides the online policies from the accompanying analysis, over
wallets or a divisible pool, stepped slot by slot, brute-force offline
optima, workload generators and adversaries, closed-form competitive
ratios, and a harness that measures policies against their proven bounds.
"""

from .model import (
    PPM,
    CollateralError,
    EventTrace,
    ModelParams,
    RunResult,
    SettleLog,
    Transaction,
    TransactionSequence,
    CollateralPool,
    first_overfull_window,
    validate_window_bound,
)
from .policies import (
    POLICY_KINDS,
    GroupFlushPolicy,
    RandTwoPolicy,
    ThresholdPolicy,
    make_policy,
)
from .oracles import (
    opt_general_utility,
    opt_general_value,
    opt_kwallet_value,
    opt_utility_upper_bound,
    opt_value_extend,
    window_upper_bound,
)
from .workloads import (
    WORKLOAD_KINDS,
    WorkloadSpec,
    epoch_burst_seq,
    fwf_killer_seq,
    gen_stochastic,
    read_sequence_csv,
    thm3_seq,
    write_sequence_csv,
)
from .formulas import (
    DomainError,
    eta_alpha,
    eta_star,
    eta_star_ratio,
    fa_ratio,
    ftwf_ratio,
    fwf_ratio,
    k_star,
    kwallet_profit_inflation,
)
from .harness import (
    ExhaustSpace,
    ExperimentConfig,
    exhaustive_verify,
    measure_ratio,
    run_policy,
    run_sequence,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "PPM",
    "CollateralError",
    "EventTrace",
    "ModelParams",
    "RunResult",
    "SettleLog",
    "Transaction",
    "TransactionSequence",
    "CollateralPool",
    "first_overfull_window",
    "validate_window_bound",
    "POLICY_KINDS",
    "GroupFlushPolicy",
    "RandTwoPolicy",
    "ThresholdPolicy",
    "make_policy",
    "opt_general_utility",
    "opt_general_value",
    "opt_kwallet_value",
    "opt_utility_upper_bound",
    "opt_value_extend",
    "window_upper_bound",
    "WORKLOAD_KINDS",
    "WorkloadSpec",
    "epoch_burst_seq",
    "fwf_killer_seq",
    "gen_stochastic",
    "read_sequence_csv",
    "thm3_seq",
    "write_sequence_csv",
    "DomainError",
    "eta_alpha",
    "eta_star",
    "eta_star_ratio",
    "fa_ratio",
    "ftwf_ratio",
    "fwf_ratio",
    "k_star",
    "kwallet_profit_inflation",
    "ExhaustSpace",
    "ExperimentConfig",
    "exhaustive_verify",
    "measure_ratio",
    "run_policy",
    "run_sequence",
    "sweep",
]
