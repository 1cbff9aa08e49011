"""Solvers and benchmarks for split feasibility problems with l1-l2 regularization.

Find a sparse ``x`` in a closed convex set ``C`` whose image ``Ax`` lies in
(or near) a closed convex set ``Q`` by minimizing

    0.5*||Ax - P_Q(Ax)||^2 + gamma*(||x||_1 - ||x||_2)   over  x in C.

Three solvers attack the regularized objective (a difference-of-convex outer
loop, forward-backward splitting with the closed-form prox of the
regularizer, and a direction/line-search method); two projection baselines
solve the unregularized feasibility problem for comparison.
"""

from . import baselines, dca, fbsplit, harness, inner, linops, minefuku, problem, prox, sets
from .baselines import *
from .dca import *
from .fbsplit import *
from .harness import *
from .inner import *
from .linops import *
from .minefuku import *
from .problem import *
from .prox import *
from .sets import *

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.
__all__ = []
__all__ += linops.__all__
__all__ += sets.__all__
__all__ += prox.__all__
__all__ += problem.__all__
__all__ += inner.__all__
__all__ += dca.__all__
__all__ += fbsplit.__all__
__all__ += minefuku.__all__
__all__ += baselines.__all__
__all__ += harness.__all__
