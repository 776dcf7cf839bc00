"""forestmaps: exact series, combinatorial oracles and singularity numerics
for regular planar maps equipped with spanning forests.

The generating function F(z, u) of p-valent planar maps carrying a spanning
forest (weight z per face, u per non-root tree) is determined by an
implicit pair of tree-weighted series.  This package computes it exactly,
checks it against brute-force map enumeration and against the nonlinear
differential equations it satisfies, and analyzes its singularities: radii,
the phase transition at u = 0, and the logarithmic regime on u in [-1, 0).
"""

__version__ = "0.1.0"

from .exact import Q, rat_from_str, rat_to_str
from .series import ZSeries
from .upoly import UPoly

__all__ = [
    "Q",
    "UPoly",
    "ZSeries",
    "rat_from_str",
    "rat_to_str",
    "__version__",
]
