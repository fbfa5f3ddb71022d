"""Taylor-based dense matrix exponential with explicit product counting.

The package provides the dense kernel (:mod:`expmkit.matrix`), the
polynomial evaluators (:mod:`expmkit.poly`), dynamic order/scale
selection (:mod:`expmkit.select`), the exponential drivers
(:mod:`expmkit.engine`), an extended-precision reference
(:mod:`expmkit.oracle`) and the benchmark harness
(:mod:`expmkit.bench`).  Each module's ``__all__`` is the public API,
and all of it is re-exported here.
"""

from . import matrix, poly, select, engine, oracle, bench
from .matrix import *  # noqa: F403
from .poly import *  # noqa: F403
from .select import *  # noqa: F403
from .engine import *  # noqa: F403
from .oracle import *  # noqa: F403
from .bench import *  # noqa: F403

__all__ = [name for module in (matrix, poly, select, engine, oracle, bench)
           for name in module.__all__]

__version__ = "0.1.0"
