"""The two tree families.

``cayley``: the infinite homogeneous tree where every vertex has degree d+1.
``hub_path``: hubs of degree d+1; each free hub neighbor independently starts
an h-edge path of degree-k vertices leading to the next hub (probability
alpha) or is a leaf (probability 1 - alpha).  With alpha = 1 and h = 1 the
construction collapses to the Cayley tree.

A topology is only a parameter set: the simulator in ``ctmc`` draws the role
of each vertex it informs (hub, path or leaf) from its replica stream.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .errors import check_at_least, check_unit_interval
from .laws import _check_d


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
                    stacklevel=2,
                )
        elif self.k is not None or self.alpha is not None or self.h is not None:
            raise ValueError("cayley trees take no k/alpha/h parameters")


def cayley(d: int) -> TreeTopology:
    return TreeTopology("cayley", d)


def hub_path(d: int, k: int, alpha: float, h: int) -> TreeTopology:
    return TreeTopology("hub_path", d, k=k, alpha=alpha, h=h)
