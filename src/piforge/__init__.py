"""piforge: exact identity verification and certified convergence analysis
for series representations of pi, pi^2, ..., pi^6."""

from .exact_core import factorial
from .exact_verifier import IdentityCheck, reduce_exact, verify_grid
from .gupta_series import partial_sum, prefactor, tail_bound
from .numeric_engine import CertifiedReal, PrecisionContext
from .prior_series import (
    alzer_H_partials,
    alzer_h_partials,
    alzer_koumandos_partials,
    kolbig_partials,
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
