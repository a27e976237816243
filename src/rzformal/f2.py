"""Linear algebra over F2 and subgroups of the elementary abelian 2-group.

Vectors over F2 are plain Python ints read as bitmasks: bit k-1 is the
k-th coordinate. A matrix is a list of such ints, one per row, so bit c
of a row is the entry in column c; row reduction XORs whole rows at once
on Python's arbitrary-precision ints. All routines are deterministic.
"""

from __future__ import annotations

from typing import Iterable

from .simplicial import json_m, mask_vertices


def rank(rows: list[int], ncols: int) -> int:
    """Rank over F2. ``ncols`` is accepted for signature parity with ``rref``."""
    pivots: dict[int, int] = {}
    r = 0
    for row in rows:
        while row:
            p = (row & -row).bit_length() - 1
            e = pivots.get(p)
            if e is None:
                pivots[p] = row
                r += 1
                break
            row ^= e
    return r


def rref(rows: list[int], ncols: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form.

    Returns (echelon rows, pivot columns), both ordered by ascending
    pivot column. The output is the canonical RREF of the row space.
    """
    ech: dict[int, int] = {}
    for row in rows:
        for p, e in ech.items():
            if (row >> p) & 1:
                row ^= e
        if not row:
            continue
        p = (row & -row).bit_length() - 1
        for q, e in ech.items():
            if (e >> p) & 1:
                ech[q] = e ^ row
        ech[p] = row
    pivots = sorted(ech)
    return [ech[p] for p in pivots], pivots


def kernel_basis(rows: list[int], ncols: int) -> list[int]:
    """Basis of the right kernel, one vector per free column, ascending."""
    ech, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for c in range(ncols):
        if c in pivot_set:
            continue
        v = 1 << c
        for r, p in zip(ech, pivots):
            if (r >> c) & 1:
                v |= 1 << p
        basis.append(v)
    return basis


def reduce_batch(vecs: list[int], ech: list[int], pivots: list[int]) -> list[int]:
    """Canonical remainders of ``vecs`` modulo an RREF row space."""
    out = []
    for v in vecs:
        for r, p in zip(ech, pivots):
            if (v >> p) & 1:
                v ^= r
        out.append(v)
    return out


def vector_from_string(s: str) -> int:
    """Parse a vector like "0110": character k is coordinate k, so bit k-1."""
    v = 0
    for i, ch in enumerate(s):
        if ch == "1":
            v |= 1 << i
        elif ch != "0":
            raise ValueError(f"invalid F2 vector string {s!r}")
    return v


def vector_to_string(v: int, m: int) -> str:
    if v < 0 or v >> m:
        raise ValueError(f"vector {v:#x} does not fit in {m} coordinates")
    return "".join("1" if (v >> i) & 1 else "0" for i in range(m))


class Subgroup:
    """A subgroup of (Z/2)^m given by generators, canonicalized to RREF.

    Attributes:
        m: number of coordinates.
        basis: RREF basis rows, ascending pivot order. Two Subgroup
            instances are equal iff they describe the same subgroup.
    """

    __slots__ = ("m", "basis")

    def __init__(self, m: int, generators: Iterable[int | str]):
        if m < 0:
            raise ValueError("m must be nonnegative")
        gens = []
        for g in generators:
            v = vector_from_string(g) if isinstance(g, str) else g
            if v < 0 or v >> m:
                raise ValueError(f"generator {g!r} does not fit in {m} coordinates")
            gens.append(v)
        self.m = m
        self.basis = tuple(rref(gens, m)[0])

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def corank(self) -> int:
        return self.m - self.rank

    @property
    def hull_mask(self) -> int:
        """Bitmask of coordinates where some element is nonzero."""
        mask = 0
        for b in self.basis:
            mask |= b
        return mask

    def hull(self) -> tuple[int, ...]:
        """Support of the smallest coordinate subgroup containing this one."""
        return mask_vertices(self.hull_mask)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Subgroup":
        m = json_m(obj, "generators", "subgroup")
        gens = obj["generators"]
        if not isinstance(gens, list):
            raise ValueError("subgroup field 'generators' must be a list")
        for g in gens:
            if not isinstance(g, str) or len(g) != m:
                raise ValueError(f"generator {g!r} must be a string of {m} bits")
        return cls(m, gens)

    def to_json_obj(self) -> dict:
        return {
            "m": self.m,
            "generators": [vector_to_string(b, self.m) for b in self.basis],
        }

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.m == other.m
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.m, self.basis))

    def __repr__(self) -> str:
        gens = ", ".join(vector_to_string(b, self.m) for b in self.basis)
        return f"Subgroup(m={self.m}, [{gens}])"
