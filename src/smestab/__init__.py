"""Feedback stabilization of quantum nondemolition eigenstates.

Integrates the diffusive conditioned master equation for an N-level system
under continuous measurement of a nondegenerate observable, applies
variance-coupled Lyapunov feedback through a control Hamiltonian, and
certifies the convergence claims numerically (generator identities, Born-rule
frequencies, supermartingale decay, commutator rank conditions).
"""
from .analysis import kalman_like_rank
from .bloch import integrate_bloch, levelset_table
from .dynamics import ModelSpec, TargetSpec
from .ensemble import EnsembleConfig, run_ensemble
from .integrate import SimConfig, run_batch, simulate
from .lyapunov import (
    ControllerSpec,
    closed_loop_generator,
    feedback,
    generator_v,
    generator_v_montecarlo_check,
    trace_term,
    v2,
)

__version__ = "0.1.0"
