"""The two tree families and the role table that is all the simulator knows
of their shape.

``cayley``: the infinite homogeneous tree where every vertex has degree d+1.
``hub_path``: hubs of degree d+1; each free hub neighbor independently starts
an h-edge path of degree-k vertices leading to the next hub (probability
alpha) or is a leaf (probability 1 - alpha).  With alpha = 1 and h = 1 the
construction collapses to the Cayley tree.

A topology is a parameter set.  ``role_table`` turns it into one row per
depth modulo h, which the simulator in ``ctmc`` reads for each spreader it
explores; it draws whether a hub's child is a leaf from its replica stream.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

from .errors import _check_d, check_at_least, check_unit_interval


@dataclass(frozen=True)
class TreeTopology:
    """Parameters of a Cayley or hub-path tree."""

    kind: str
    d: int
    k: int | None = None
    alpha: float | None = None
    h: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("cayley", "hub_path"):
            raise ValueError(f"kind must be 'cayley' or 'hub_path', got {self.kind!r}")
        _check_d(self.d)
        if self.kind == "hub_path":
            if self.k is None or self.alpha is None or self.h is None:
                raise ValueError("hub_path trees require k, alpha, and h")
            check_at_least("k", self.k, 2)
            check_unit_interval("alpha", self.alpha, open_low=True)
            check_at_least("h", self.h, 1)
            if self.k >= self.d:
                warnings.warn(
                    f"hub_path analysis assumes k < d; got k={self.k}, d={self.d}",
                    stacklevel=3,  # past the generated __init__, to its caller
                )
        elif self.k is not None or self.alpha is not None or self.h is not None:
            raise ValueError("cayley trees take no k/alpha/h parameters")

    def role_table(self) -> tuple[tuple[float, float, float, bool, bool], ...]:
        """One row ``(degree, onward, onward_after, role_draw, hub_children)``
        per depth modulo h; a spreader at ``depth`` has row ``depth % h``,
        hubs first, and only the last row's child spreaders are hubs.

        A contact lands on a slot in [0, degree).  A fresh slot below
        ``onward`` holds a vertex that can become a child spreader, and after
        the first contact there the bound is ``onward_after``; any other
        fresh slot holds a leaf.  With ``role_draw`` an alpha draw decides
        whether a hub's child is a spreader or a leaf.  A path vertex's one
        onward neighbor, toward the next hub, is slot [0, 1).  The counts are
        floats: exact, and faster than ints in the simulator's comparisons.
        """
        hub_deg = float(self.d + 1)
        if self.kind == "cayley":
            return ((hub_deg, hub_deg, hub_deg, False, True),)
        rows = ((hub_deg, hub_deg, hub_deg, True),) + ((float(self.k), 1.0, 0.0, False),) * (self.h - 1)
        return tuple((*row, depth == self.h - 1) for depth, row in enumerate(rows))


#: ``cayley(d)`` and ``hub_path(d, k, alpha, h)``; as partials they add no
#: frame, so the k >= d warning names their caller's line
cayley = functools.partial(TreeTopology, "cayley")
hub_path = functools.partial(TreeTopology, "hub_path")
