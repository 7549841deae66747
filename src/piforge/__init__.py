"""piforge: exact identity verification and certified convergence analysis
for series representations of pi, pi^2, ..., pi^6."""

from .closed_forms import (
    PiMultiple,
    beta_partial,
    beta_pi_coeff,
    pi_multiple_interval,
    zeta_partial,
    zeta_pi_coeff,
)
from .exact_core import factorial
from .exact_verifier import (
    IdentityCheck,
    reduce_exact,
    residual_numeric,
    verify_grid,
)
from .gupta_series import (
    classical_partial,
    inner_poly,
    partial_sum,
    prefactor,
    tail_bound,
)
from .numeric_engine import (
    CertifiedReal,
    IntervalDivisionError,
    PrecisionContext,
    TailedInterval,
)
from .prior_series import (
    HarmonicPair,
    KolbigWeights,
    MidBinomial,
    alzer_H_partial,
    alzer_h_partial,
    alzer_koumandos_partial,
    kolbig_partial,
)
from .special_numbers import (
    BernoulliTable,
    EulerTable,
    TableDepthError,
    TableStore,
    bernoulli_numbers,
    euler_numbers,
)

__version__ = "0.1.0"
