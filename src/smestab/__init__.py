"""Feedback stabilization of quantum nondemolition eigenstates.

Integrates the diffusive conditioned master equation for an N-level system
under continuous measurement of a nondegenerate observable, applies
variance-coupled Lyapunov feedback through a control Hamiltonian, and
certifies the convergence claims numerically (generator identities, Born-rule
frequencies, supermartingale decay, commutator rank conditions).
"""
from .analysis import (
    RankReport,
    iterated_commutators,
    kalman_like_rank,
    span_rank,
    stochastic_jq_commutators,
    strong_regularity,
)
from .bloch import (
    bloch_feedback,
    bloch_sme_increment,
    from_density,
    integrate_bloch,
    levelset_table,
    to_density,
)
from .config import ConfigError, config_from_dict, load_config, parse_matrix
from .dynamics import (
    ModelSpec,
    TargetSpec,
    diffusion_term,
    hamiltonian_drift,
    lindblad_drift,
    measurement_increment,
    sme_drift,
    sse_diffusion,
    sse_drift,
)
from .ensemble import (
    EnsembleConfig,
    EnsembleError,
    EnsembleStats,
    run_ensemble,
    write_mean_curves_csv,
    write_summary_csv,
    write_trajectory_csv,
)
from .hermitian import (
    commutator,
    expectation,
    hermitize,
    is_hermitian,
    min_eigenvalue,
    project_to_density,
    purity,
    validate_density,
    variance,
)
from .integrate import (
    IntegrationError,
    SimConfig,
    Trajectory,
    run_batch,
    simulate,
)
from .lyapunov import (
    ControllerSpec,
    LyapunovReport,
    closed_loop_generator,
    feedback,
    generator_v,
    generator_v_montecarlo_check,
    lb_v1,
    lb_v_tilde,
    l0_v_tilde,
    third_central_moment,
    trace_term,
    v1,
    v2,
    v_tilde,
)

__version__ = "0.1.0"
