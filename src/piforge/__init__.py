"""piforge: exact identity verification and certified convergence analysis
for series representations of pi, pi^2, ..., pi^6.

``import piforge`` loads none of its modules.  Each public name below is
imported from its module on first use (PEP 562), so ``from piforge import
partial_sum`` loads what ``partial_sum`` needs, and a CLI run compiles and
loads only the modules its subcommand calls: the entry, ``piforge.cli``,
holds the grammar and imports ``exact_commands`` to run ``numbers`` or
``verify``, or ``series_commands`` to run ``sum`` or ``compare``, and no
module imports the entry.  A gupta row imports the kernel of its own path
alone: ``walk`` for the direct walk, ``tails`` for the certified tails.  An
exact rational crosses from module to module as an integer (numerator,
denominator) pair, and only ``report`` divides one into decimal digits;
n! comes from ``math.factorial``, never from a memo of the package's own.
Of the standard library, ``verify`` (a failing check too), ``numbers``,
``sum`` and ``compare`` run on ints alone, a mu read into an integer pair
too, and load none of ``fractions``, ``decimal``, ``numbers``, ``csv`` and
``json``.
"""

_EXPORTS = {
    "closed_forms": "prefactor",
    "exact_verifier": "IdentityCheck verify_grid",
    "gupta_series": "partial_sum tail_bound",
    "numeric_engine": "CertifiedReal PrecisionContext",
    "prior_series": "alzer_H_partials alzer_h_partials alzer_koumandos_partials "
    "alzer_pair_partials kolbig_partials",
    "special_numbers": "BernoulliTable EulerTable TableDepthError TableStore "
    "bernoulli_numbers euler_numbers",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
