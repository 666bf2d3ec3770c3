"""Walsh spectra, shift sums and curve counts for trace forms on GF(2^m).

The package studies Boolean functions f(x) = Tr(G(x)) where

    G(x) = a7*x^7 + sum_i b_i * x^(2^i + 1)

over a binary field of odd extension degree.  Three independent computation
paths for the same quantities are kept deliberately separate so they can
cross-check each other:

* spectral: fast Walsh-Hadamard transform of the truth table;
* combinatorial: shift sums X_alpha evaluated by direct summation;
* geometric: point counts of the quintic Artin-Schreier curves attached to
  each nonzero shift, plus a single auxiliary curve v^4 + v = gamma*x^7.

The names exported here are the ones the command line runs.  The one-shift
scalar forms that only tests compare against (``classify7.classify_alpha``,
``boolfn.reduce_difference`` and the oracles in ``tests/oracles.py``) are
not part of this API.
"""

from .field import FieldCtx, default_modulus
from .rng import SplitRng, derive_seed
from .boolfn import TracePoly, reduce_difference_all, truth_table
from .spectrum import amplitude_counts, fwht, l4_fourth, linf, nonlinearity
from .autocorr import sigma_autocorr, sigma_decomposition, x_alpha_all
from .genus2 import (QuinticCurve, classify, classify_curves, count_points, count_points_all,
                     radical)
from .classify7 import classify_all, count_n0_n
from .auxcurve import count_n123, enumerate_points, gamma_of, s7_sum
from .corpus import curve_corpus, sample_curve, sample_tracepoly, standard_corpus
from .report import Check, Report, compare, slack_bound

__version__ = "0.11.0"

__all__ = [
    "FieldCtx", "default_modulus",
    "SplitRng", "derive_seed",
    "TracePoly", "reduce_difference_all", "truth_table",
    "amplitude_counts", "fwht", "l4_fourth", "linf", "nonlinearity",
    "sigma_autocorr", "sigma_decomposition", "x_alpha_all",
    "QuinticCurve", "classify", "classify_curves", "count_points", "count_points_all",
    "radical",
    "classify_all", "count_n0_n",
    "count_n123", "enumerate_points", "gamma_of", "s7_sum",
    "curve_corpus", "sample_curve", "sample_tracepoly", "standard_corpus",
    "Check", "Report", "compare", "slack_bound",
    "__version__",
]
