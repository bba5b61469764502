"""Reference implementations the production paths are checked against.

Each production fast path in ``src/`` has one implementation; the path
it replaced lives here, outside the product, as a test oracle:

* ``fdd`` -- :class:`ReferenceFDDBuilder`, the FDD algebra without its
  caches: the mask/union ITE route instead of the ordered insert, no
  id-keyed AST memos, and every knowledge predicate compiled afresh.
* ``ets`` -- :class:`PerStateWalk`, an ETS instantiation source that runs
  one Figure 6 ``extract`` and one ``project`` walk per state, plugged
  into ``build_ets(symbolic=...)``; :func:`reference_compiled` builds a
  whole artifact from both oracles.
* ``switch`` -- :class:`ReferenceLogic`, Figure 7's IN/SWITCH rules on
  frozensets, driven frame by frame through ``SimNetwork.inject``
  (:func:`inject_per_frame`).
* ``checker`` -- :class:`ReferenceChecker`, the Definition 6 event
  search on frozensets.
"""

from .checker import ReferenceChecker
from .ets import PerStateWalk, per_state_ets, reference_compiled
from .fdd import ReferenceFDDBuilder
from .switch import ReferenceLogic, inject_per_frame

__all__ = [
    "PerStateWalk",
    "ReferenceChecker",
    "ReferenceFDDBuilder",
    "ReferenceLogic",
    "inject_per_frame",
    "per_state_ets",
    "reference_compiled",
]
