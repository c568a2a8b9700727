"""Cyclic (lattice) declustering with chosen skip values.

A direct descendant of the methods the paper evaluates: DM assigns
``(i + j) mod M``, i.e. it walks the disks with *skip 1* per column.  The
cyclic family generalizes the skip,

    disk(<i, j>) = (i + H * j) mod M,      gcd(H, M) = 1,

which tilts DM's diagonal stripes into a 2-d lattice.  A good ``H``
spreads any small rectangle over many distinct disks — the strictly
optimal M = 5 allocation is exactly ``H = 2`` — and fixes DM's small-square
pathology while keeping its optimal row/column behaviour.

Skip-selection policies (named after the post-paper literature on cyclic
allocation — Prabhakar, Agrawal & El Abbadi — which grew out of exactly
the gap this paper exposed):

* **RPHM** (relatively-prime H to M): ``H`` closest to the golden-section
  point ``M / phi`` among values coprime to ``M`` — a fixed, cheap choice
  that avoids the degenerate skips 1 and M-1.
* **GFIB** (generalized Fibonacci): ``H`` = the largest Fibonacci number
  < M made coprime to ``M`` by decrement — Fibonacci skips give
  near-uniform lattices for the same reason Fibonacci hashing works.
* **EXH** (exhaustive): evaluate every coprime skip on a target workload
  (small squares by default) and keep the best — the most expensive and
  the strongest, and exactly the "use query information" advice the
  paper's conclusion gives.

Only the 2-d case is defined (as in the literature); the schemes raise
for other dimensionalities.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.core.allocation import DiskAllocation
from repro.core.exceptions import SchemeError, SchemeNotApplicableError
from repro.core.grid import Grid
from repro.obs.trace import trace
from repro.schemes.base import DeclusteringScheme

__all__ = [
    "CyclicScheme",
    "GOLDEN_RATIO",
    "coprime_skips",
    "exhaustive_skip",
    "gfib_skip",
    "rphm_skip",
]

#: The golden ratio, used by the RPHM default skip.
GOLDEN_RATIO = (1 + math.sqrt(5)) / 2


def coprime_skips(num_disks: int) -> List[int]:
    """All valid skips ``H`` in ``[1, M)`` with ``gcd(H, M) = 1``.

    For ``M = 1`` the only (degenerate) skip is 0.
    """
    if num_disks <= 0:
        raise SchemeError(f"disk count must be positive, got {num_disks}")
    if num_disks == 1:
        return [0]
    return [
        h for h in range(1, num_disks) if math.gcd(h, num_disks) == 1
    ]


def rphm_skip(num_disks: int) -> int:
    """The relatively-prime skip nearest the golden-section point."""
    candidates = coprime_skips(num_disks)
    target = num_disks / GOLDEN_RATIO
    return min(candidates, key=lambda h: (abs(h - target), h))


def gfib_skip(num_disks: int) -> int:
    """The largest Fibonacci number below M, decremented until coprime."""
    if num_disks <= 2:
        return coprime_skips(num_disks)[-1]
    a, b = 1, 1
    while b < num_disks:
        a, b = b, a + b
    skip = a  # largest Fibonacci < M (a < num_disks <= b)
    while skip > 1 and math.gcd(skip, num_disks) != 1:
        skip -= 1
    return skip


def exhaustive_skip(
    num_disks: int,
    grid: Grid,
    shapes: Optional[Sequence[Sequence[int]]] = None,
) -> int:
    """The coprime skip with the lowest mean RT on the target shapes.

    Default target: the small squares (2x2 and 3x3) where skip choice
    matters most; ties break towards the smaller skip for determinism.
    """
    from repro.core.cost import sliding_response_times

    if grid.ndim != 2:
        raise SchemeNotApplicableError(
            f"cyclic declustering is 2-d only, got {grid.ndim}-d grid"
        )
    if shapes is None:
        shapes = [
            tuple(min(s, d) for d in grid.dims)
            for s in (2, 3)
        ]
    best_skip = None
    best_cost = None
    with trace("schemes.cyclic.exhaustive_skip"):
        for skip in coprime_skips(num_disks):
            table = _cyclic_table(grid, num_disks, skip)
            allocation = DiskAllocation(grid, num_disks, table)
            cost = 0.0
            for shape in shapes:
                cost += float(
                    sliding_response_times(allocation, shape).mean()
                )
            if best_cost is None or cost < best_cost - 1e-12:
                best_cost = cost
                best_skip = skip
    return best_skip


def _cyclic_table(grid: Grid, num_disks: int, skip: int) -> np.ndarray:
    rows, cols = grid.coordinate_arrays()
    return (rows + skip * cols) % num_disks


class CyclicScheme(DeclusteringScheme):
    """Cyclic declustering: disk = (i + H*j) mod M with a policy-chosen H.

    Parameters
    ----------
    policy:
        ``"rphm"`` (default), ``"gfib"``, or ``"exh"``.
    skip:
        Explicit skip overriding the policy (must be coprime to ``M``).
    """

    name = "cyclic"

    _POLICIES = ("rphm", "gfib", "exh")

    def __init__(self, policy: str = "rphm", skip: Optional[int] = None):
        if policy not in self._POLICIES:
            raise SchemeError(
                f"unknown cyclic policy {policy!r}; "
                f"choose from {self._POLICIES}"
            )
        self._policy = policy
        self._skip = None if skip is None else int(skip)

    @property
    def policy(self) -> str:
        """The skip-selection policy in force."""
        return self._policy

    def check_applicable(self, grid: Grid, num_disks: int) -> None:
        super().check_applicable(grid, num_disks)
        if grid.ndim != 2:
            raise SchemeNotApplicableError(
                f"cyclic declustering is 2-d only, got {grid.ndim}-d grid"
            )

    def skip_for(self, grid: Grid, num_disks: int) -> int:
        """The skip this scheme would use for the configuration."""
        self.check_applicable(grid, num_disks)
        if self._skip is not None:
            if num_disks > 1 and math.gcd(self._skip, num_disks) != 1:
                raise SchemeError(
                    f"explicit skip {self._skip} is not coprime to "
                    f"M={num_disks}"
                )
            return self._skip % max(num_disks, 1)
        if self._policy == "rphm":
            return rphm_skip(num_disks)
        if self._policy == "gfib":
            return gfib_skip(num_disks)
        return exhaustive_skip(num_disks, grid)

    def disk_of(self, coords: Sequence[int], grid: Grid, num_disks: int) -> int:
        skip = self.skip_for(grid, num_disks)
        return (int(coords[0]) + skip * int(coords[1])) % num_disks

    def disk_array(self, grid: Grid, num_disks: int) -> np.ndarray:
        skip = self.skip_for(grid, num_disks)
        return _cyclic_table(grid, num_disks, skip)

    def __repr__(self) -> str:
        return (
            f"CyclicScheme(policy={self._policy!r}, skip={self._skip})"
        )
