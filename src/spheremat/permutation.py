"""Permutations of {1, .., n} with sign and matrix form."""

from __future__ import annotations

from typing import Iterable, Sequence

from ._record import _delattr, _setattr
from .intmat import IntMatrix, _int_tuple


class Permutation:
    """Bijection of {1, .., n}; images[i-1] is the image of i.

    Immutable, as `@record` classes are: assignment and deletion raise
    AttributeError once `__init__` has set `images`.
    """

    __slots__ = ("images",)
    __setattr__ = _setattr
    __delattr__ = _delattr

    def __init__(self, images: Sequence[int]):
        imgs = _int_tuple(images, "permutation image")
        n = len(imgs)
        if n == 0:
            raise ValueError("permutation of the empty set is not supported")
        if sorted(imgs) != list(range(1, n + 1)):
            raise ValueError(f"{imgs} is not a bijection of 1..{n}")
        object.__setattr__(self, "images", imgs)

    def __reduce__(self):
        return self.__class__, (self.images,)

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def transposition(cls, n: int, a: int, b: int) -> "Permutation":
        if not (1 <= a <= n and 1 <= b <= n) or a == b:
            raise ValueError("transposition needs two distinct points in range")
        imgs = list(range(1, n + 1))
        imgs[a - 1], imgs[b - 1] = b, a
        return cls(imgs)

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        imgs = list(range(1, n + 1))
        for cyc in cycles:
            cyc = _int_tuple(cyc, "cycle point")
            if len(set(cyc)) != len(cyc):
                raise ValueError(f"repeated point in cycle {list(cyc)}")
            for a in cyc:
                if not 1 <= a <= n:
                    raise ValueError(f"cycle point {a} out of range 1..{n}")
            for pos, a in enumerate(cyc):
                imgs[a - 1] = cyc[(pos + 1) % len(cyc)]
        return cls(imgs)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError(f"point {i} out of range 1..{self.n}")
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition (self * other)(i) = self(other(i))."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Permutation(tuple(self.images[x - 1] for x in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, x in enumerate(self.images, start=1):
            inv[x - 1] = i
        return Permutation(inv)

    def sign(self) -> int:
        inversions = sum(
            1
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if self.images[i] > self.images[j]
        )
        return -1 if inversions % 2 else 1

    @property
    def is_even(self) -> bool:
        return self.sign() == 1

    def matrix(self) -> IntMatrix:
        """Permutation matrix with row i carrying a 1 in column self(i)."""
        n = self.n
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][self.images[i] - 1] = 1
        return IntMatrix._trusted(tuple(map(tuple, rows)))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles, fixed points omitted, each cycle led by its minimum."""
        seen = [False] * self.n
        out = []
        for start in range(1, self.n + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            nxt = self(start)
            while nxt != start:
                cyc.append(nxt)
                seen[nxt - 1] = True
                nxt = self(nxt)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"
