"""Exact federated continual unlearning for ridge heads on frozen features.

Clients summarize every add/delete batch into fixed-size second-order
statistics; the server keeps an additive ledger of the retained set and
recovers a head equal (to floating-point tolerance) to centralized ridge
retraining after every round, by full recomputation or by incremental
inverse updates, with a Bayesian zero-KL certificate on top.
"""

from .client import ClientMessage, ClientStore, PackedStats, QrPayload
from .coordinator import (
    CommRecord,
    RoundAggregate,
    RoundFold,
    Server,
    account_round,
    aggregate,
    run_round_a,
    run_round_approx,
    run_round_b,
)
from .inverse import (
    DowndateInfeasible,
    InverseState,
    SmwStep,
    audit_drift,
    init_from_ledger,
    smw_step,
)
from .kernels import (
    DimensionMismatch,
    NotSPD,
    cholesky_spd,
    frobenius_norm,
    rel_frobenius_dev,
    solve_spd,
    spectral_norm,
    symmetric_eig,
    thin_qr_rfactor,
)
from .posterior import (
    MatrixNormalPosterior,
    kl_matrix_normal,
    posterior_from_ledger,
    posterior_from_state,
    psd_order_check,
)
from .simulate import (
    RetainedGram,
    Scenario,
    dirichlet_partition,
    gen_synthetic,
    oracle_retrain,
    run_scenario,
    schedule_addback,
    schedule_burst,
    schedule_chunked,
    schedule_churn,
)
from .stats import (
    Ledger,
    NegativeCount,
    SufficientStats,
    ledger_apply,
    ledger_init,
    stats_add,
    stats_from_batch,
    stats_sub,
)

__version__ = "0.1.0"
