"""Stochastic-volatility hidden Markov models, two ways.

A quantum-inspired classical HMM discretizes a square-root variance diffusion
onto a finite spot grid with Gaussian return emissions mixed over integrated
variance; a unitary quantum HMM drives the same observation alphabet through a
parameterized Kraus channel. Both expose exact filtering, likelihoods, and
simulation, with shared derivative-free fitting, penalized model selection,
KL/likelihood-ratio analytics, and Hankel-rank diagnostics on top.
"""

from .analysis import (
    BoundReport,
    HankelMatrix,
    LlrSample,
    build_hankel,
    filtered_vol_divergence,
    hankel_of_model,
    kl_exact_small,
    kl_monte_carlo,
    llr_experiment,
    llr_histogram,
    llr_summary,
    nab_bounds,
    numerical_rank,
)
from .chmm import (
    ClassicalHmm,
    EmissionMatrix,
    FilterTrace,
    IntegratedVolTable,
    build_classical_hmm,
    build_emission_matrix,
    build_integrated_table,
    emission_given_vbar,
    filter_path,
    log_likelihood_binned,
    log_likelihood_continuous,
    sequence_probability,
    simulate,
    simulate_many,
)
from .errors import (
    EnumerationCapError,
    NonConvergenceError,
    NumericalError,
    ValidationError,
    ZeroLikelihoodError,
)
from .estimate import (
    ClassicalFitSpec,
    FitConfig,
    FitResult,
    PenaltyConstants,
    QhmmFitSpec,
    nelder_mead,
    penalized_select,
    penalty_lambda,
)
from .qhmm import (
    AnsatzSpec,
    CausalBreakReport,
    DensityMatrix,
    QhmmModel,
    build_ansatz_unitary,
    build_qhmm,
    causal_break_test,
    initial_latent_state,
    kraus_from_unitary,
    partial_trace,
    qhmm_sequence_logprob,
    qhmm_sequence_probability,
    qhmm_simulate,
    qhmm_simulate_many,
)
from .serialize import load_model, model_from_dict, model_to_dict, save_model
from .specfun import (
    GammaLaw,
    NoncentralChi2Law,
    gamma_cdf,
    gamma_quantile,
    gaussian_cdf,
    ln_gamma,
    noncentral_chi2_cdf,
    noncentral_chi2_pdf,
    reg_inc_gamma_lower,
)
from .volgrid import (
    CirParams,
    ObservationScheme,
    SpotGrid,
    TransitionMatrix,
    build_observation_scheme,
    cir_ergodic_law,
    cir_spot_grid,
    cir_transition_matrix,
    discretize_return,
    matrix_power,
    nonparam_transition_matrix,
    stationary_distribution,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
