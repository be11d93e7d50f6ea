"""Exact-arithmetic toolkit for stable-pair counting series on K3 surfaces.

Everything in here is exact: big integers, big rationals, Laurent
polynomials, and truncated Laurent series with honest truncation-order
bookkeeping.  A v-expansion keeps its powers of i in the v-index, so
even its Gaussian-rational values are stored as rationals.  No floats
anywhere.
"""

__version__ = "0.1.0"

import sys

from . import errors, partition  # noqa: F401
from .modular import EisensteinBasis, eisenstein_even, \
    fit_v_coefficient, logphi_sigma_check, mpt_check, psi_kls_sym, \
    sigma_series, v_partition_series, verify_psi_vs_log  # noqa: F401
from .partition import f_via_matrices, g_closed, g_via_kernels, \
    g_via_matrices, ky_product, s_series, syst_euler, syst_hodge  # noqa: F401
from .rings import Monomial, TTPoly, UPoly, YPoly  # noqa: F401
from .scalars import bernoulli  # noqa: F401
from .series import QSeries  # noqa: F401


def reset_caches() -> None:
    """Empty every module cache of the package: each lru_cache table of
    its loaded modules, found through ``cache_info`` so that a cache added
    later is emptied too.  No result depends on them; a cold start needs
    this, and so does a test that patches what a cached function reads."""
    for name, module in list(sys.modules.items()):
        if name.startswith(__name__ + ".") and module is not None:
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_info", None)):
                    obj.cache_clear()
