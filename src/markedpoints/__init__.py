"""Marked point pattern statistics on planar windows and linear networks.

Estimators (cross/dot K, nearest-neighbour H, empty-space F, their ratio J,
mark-weighted K, mark correlation functions), kernel intensity estimation
with bandwidth rules, pattern simulators (Poisson, log-Gaussian Cox on
networks, linked/balanced bivariate Cox, three mark mechanisms), and a
rank-based Monte Carlo envelope protocol.
"""

__version__ = "0.1.0"

# each library module's __all__ is the package's public surface
from .curves import *
from .envelope import *
from .errors import *
from .geometry import *
from .intensity import *
from .markcorr import *
from .pattern import *
from .simulate import *
from .summaries import *
