"""Unbalanced-tree node expansion rules (UTS GEO and BIN trees).

A node's child count is a deterministic function of its SHA-1 state and
depth, so the tree is identical no matter which PE expands which node:

* **GEO** (geometric): the child count is geometrically distributed with
  mean ``b(d)``, where the branching factor ``b(d)`` follows a *shape*
  law — ``FIXED`` keeps ``b0`` at every level (depth-limited by
  ``gen_mx``), ``LINEAR`` tapers ``b0`` linearly to zero at ``gen_mx``.
  This is the family the paper's 270 B-node T1WL tree belongs to.
* **BIN** (binomial): the root has exactly ``b0`` children; every other
  node has ``m`` children with probability ``q`` and none otherwise.
  Near-critical ``q*m ≈ 1`` produces the wild subtree-size variance that
  makes UTS hard to balance.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable

from .sha1_rng import _TWO31, STATE_BYTES, root_state

_CHILD_PACK = struct.Struct(">I").pack
_SHA1 = hashlib.sha1


class TreeType(Enum):
    """UTS tree families."""

    GEO = "geo"
    BIN = "bin"


class GeoShape(Enum):
    """Branching-factor laws for GEO trees (the UTS reference set)."""

    FIXED = "fixed"    #: b(d) = b0 for d < gen_mx
    LINEAR = "linear"  #: b(d) = b0 * (1 - d / gen_mx)
    EXPDEC = "expdec"  #: b(d) = b0 * d^(-ln(b0)/ln(gen_mx)) — poly decay
    CYCLIC = "cyclic"  #: b(d) = b0^sin(2*pi*d/gen_mx), cut at 5*gen_mx


@dataclass(frozen=True)
class UtsParams:
    """Complete specification of one UTS tree."""

    tree_type: TreeType = TreeType.GEO
    b0: float = 4.0          # root/branching factor
    gen_mx: int = 6          # GEO depth horizon
    shape: GeoShape = GeoShape.LINEAR
    q: float = 15.0 / 121.0  # BIN: child-burst probability
    m: int = 8               # BIN: children per burst
    root_seed: int = 19

    def __post_init__(self) -> None:
        if self.b0 <= 0:
            raise ValueError(f"b0 must be positive, got {self.b0}")
        if self.gen_mx < 1:
            raise ValueError(f"gen_mx must be >= 1, got {self.gen_mx}")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q must be in [0,1], got {self.q}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.tree_type is TreeType.BIN and self.q * self.m > 1.0:
            raise ValueError(
                f"supercritical BIN tree (q*m = {self.q * self.m:.4f} > 1) "
                f"has infinite expected size"
            )

    def root(self) -> bytes:
        """State of the tree root."""
        return root_state(self.root_seed)


def branching_factor(params: UtsParams, depth: int) -> float:
    """Expected child count of a GEO node at ``depth``.

    Follows the UTS reference implementation's shape functions; CYCLIC
    trees cut off at ``5 * gen_mx`` instead of ``gen_mx``.
    """
    if params.shape is GeoShape.CYCLIC:
        if depth > 5 * params.gen_mx:
            return 0.0
        return params.b0 ** math.sin(2.0 * math.pi * depth / params.gen_mx)
    if depth >= params.gen_mx:
        return 0.0
    if params.shape is GeoShape.FIXED:
        return params.b0
    if params.shape is GeoShape.EXPDEC:
        if depth == 0:
            return params.b0
        return params.b0 * depth ** (-math.log(params.b0) / math.log(params.gen_mx))
    return params.b0 * (1.0 - depth / params.gen_mx)


def _geo_log1mp(params: UtsParams, depth: int) -> float:
    """``log(1 - p)`` of the geometric draw at ``depth``; 0.0 = no children."""
    b = branching_factor(params, depth)
    if b <= 0.0:
        return 0.0
    return math.log(1.0 - 1.0 / (1.0 + b))


@lru_cache(maxsize=64)
def expander(params: UtsParams) -> Callable[[bytes, int, bool], list[bytes]]:
    """The tree's expansion rule as ``children(state, depth, is_root)``.

    Built once per tree, so everything that is a pure function of
    ``params`` is computed here rather than per node:

    * **GEO**: ``log(1 - p)`` of the geometric draw, tabled by depth up
      to the horizon (deeper nodes are leaves by construction).
    * **BIN**: the float test ``rand31 / 2^31 < q`` as the integer test
      ``rand31 < ceil(q * 2^31)`` (exact: scaling by a power of two
      loses no bits), and the packed child-index suffixes of a burst
      and of the root.

    ``state`` must be a 20-byte digest and ``depth`` non-negative;
    :func:`expand` checks both, every other caller holds them by
    construction.
    """
    sha1 = _SHA1
    if params.tree_type is TreeType.BIN:
        threshold = math.ceil(params.q * _TWO31)
        burst = tuple(_CHILD_PACK(i) for i in range(params.m))
        root = tuple(_CHILD_PACK(i) for i in range(int(params.b0)))

        def children(state: bytes, depth: int, is_root: bool) -> list[bytes]:
            if is_root:
                suffixes = root
            elif int.from_bytes(state[:4], "big") & 0x7FFFFFFF < threshold:
                suffixes = burst
            else:
                return []
            return [sha1(state + s).digest() for s in suffixes]

        return children

    horizon = 5 * params.gen_mx if params.shape is GeoShape.CYCLIC else params.gen_mx
    table = tuple(_geo_log1mp(params, d) for d in range(horizon + 1))
    ntable = len(table)
    log = math.log
    pack = _CHILD_PACK

    def children(state: bytes, depth: int, is_root: bool) -> list[bytes]:
        log1mp = table[depth] if depth < ntable else 0.0
        if log1mp == 0.0:
            return []
        # Geometric draw with mean b (reference implementation formula);
        # the draw is < 1 by construction, so log(1 - u) is finite.
        u = (int.from_bytes(state[:4], "big") & 0x7FFFFFFF) / _TWO31
        return [sha1(state + pack(i)).digest()
                for i in range(int(log(1.0 - u) / log1mp))]

    return children


def expand(params: UtsParams, state: bytes, depth: int, is_root: bool = False) -> list[bytes]:
    """Child states of one node (see :func:`expander`)."""
    if len(state) != STATE_BYTES:
        raise ValueError(f"state must be {STATE_BYTES} bytes, got {len(state)}")
    if depth < 0:
        raise ValueError(f"depth must be non-negative, got {depth}")
    return expander(params)(state, depth, is_root)


def num_children(params: UtsParams, state: bytes, depth: int, is_root: bool) -> int:
    """Deterministic child count of one node (the UTS expansion rule)."""
    return len(expand(params, state, depth, is_root))
