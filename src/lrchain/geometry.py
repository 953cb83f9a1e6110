"""Chain geometry and site-interval bookkeeping.

Sites live on the integer segment [-L, L]; every operator carries a closed
interval of sites as its declared support.  Distances between supports are
gap distances: adjacent intervals have distance 1, overlapping ones 0.
"""

from __future__ import annotations

from dataclasses import dataclass


class SupportError(ValueError):
    """Operator supports or site ranges are inconsistent."""


@dataclass(frozen=True, order=True)
class SiteSupport:
    """Closed interval [lo, hi] of chain sites."""

    lo: int
    hi: int

    def __post_init__(self):
        if not isinstance(self.lo, int) or not isinstance(self.hi, int):
            raise SupportError("support endpoints must be integers")
        if self.lo > self.hi:
            raise SupportError(f"empty support [{self.lo}, {self.hi}]")

    @classmethod
    def single(cls, site: int) -> SiteSupport:
        return cls(site, site)

    @property
    def n_sites(self) -> int:
        return self.hi - self.lo + 1

    @property
    def diam(self) -> int:
        return self.hi - self.lo

    def contains(self, other: SiteSupport) -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def distance(self, other: SiteSupport) -> int:
        return max(0, other.lo - self.hi, self.lo - other.hi)

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def site_distance(site: int, support: SiteSupport) -> int:
    """Gap distance from a single site to an interval."""
    return max(0, support.lo - site, site - support.hi)


@dataclass(frozen=True)
class ChainGeometry:
    """Finite chain [-L, L] with a D-dimensional space on every site."""

    half_length: int
    local_dim: int

    def __post_init__(self):
        if not isinstance(self.half_length, int) or self.half_length < 1:
            raise ValueError(f"half_length must be a positive integer, got {self.half_length}")
        if not isinstance(self.local_dim, int) or self.local_dim < 2:
            raise ValueError(f"local_dim must be an integer >= 2, got {self.local_dim}")

    @property
    def n_sites(self) -> int:
        return 2 * self.half_length + 1

    @property
    def total_dim(self) -> int:
        return self.local_dim ** self.n_sites

    @property
    def full_support(self) -> SiteSupport:
        return SiteSupport(-self.half_length, self.half_length)

    def dim_of(self, support: SiteSupport) -> int:
        return self.local_dim ** support.n_sites

    def check_site(self, site: int) -> None:
        if not (-self.half_length <= site <= self.half_length):
            raise SupportError(f"site {site} outside chain [{-self.half_length}, {self.half_length}]")

    def check_support(self, support: SiteSupport) -> None:
        if not self.full_support.contains(support):
            raise SupportError(f"support {support} not contained in chain {self.full_support}")
