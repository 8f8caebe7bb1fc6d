"""Coefficient systems: exact rationals, integers, prime fields, real vectors.

Every system is an abelian group with an integer action, so integer-valued
weight families act on cochains over any system.  Exact systems compare
values with equality, the real-vector system with a max-norm tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .errors import CoefficientError

DEFAULT_VECTOR_TOL = 1e-12


def _is_prime(p: int) -> bool:
    """Miller-Rabin on the prime bases 2..37, exact below 3.18e23, the least
    strong pseudoprime to all of them (Jiang and Deng 2014)."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if p < 2 or any(p % a == 0 for a in bases):
        return p in bases
    s = ((p - 1) & (1 - p)).bit_length() - 1   # p - 1 = d * 2^s with d odd
    d = (p - 1) >> s
    return all(pow(a, d, p) == 1 or p - 1 in [pow(a, d << r, p) for r in range(s)]
               for a in bases)


class CoefficientSystem:
    """Common interface; concrete systems fill in the value arithmetic."""

    name: str = ""
    is_field: bool = False
    is_exact: bool = True

    # -- arithmetic ----------------------------------------------------------

    def zero(self):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def scale(self, r, v):
        """Action of an integer (any system) or native scalar on a value."""
        raise NotImplementedError

    def is_zero(self, v) -> bool:
        return v == self.zero()

    def approx_equal(self, a, b, tol: Optional[float] = None) -> bool:
        return a == b

    # -- validation / io -----------------------------------------------------

    def check_value(self, v):
        """Return the canonical form of a value, or raise CoefficientError."""
        raise NotImplementedError

    def value_to_json(self, v):
        raise NotImplementedError

    def value_from_json(self, obj):
        raise NotImplementedError

    def random_value(self, rng):
        raise NotImplementedError

    def __repr__(self):
        return f"<coefficients {self.name}>"

    def __eq__(self, other):
        return isinstance(other, CoefficientSystem) and self.name == other.name

    def __hash__(self):
        return hash(self.name)


class Rationals(CoefficientSystem):
    name = "Q"
    is_field = True

    def zero(self):
        return Fraction(0)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def scale(self, r, v):
        if isinstance(r, float):
            raise CoefficientError("rational values take integer or rational scalars")
        return Fraction(r) * v

    def check_value(self, v):
        if isinstance(v, float):
            raise CoefficientError(f"float {v!r} is not an exact rational")
        try:
            return Fraction(v)
        except (TypeError, ValueError) as exc:
            raise CoefficientError(f"cannot read {v!r} as a rational") from exc

    def value_to_json(self, v):
        if v.denominator == 1:
            return int(v)
        return f"{v.numerator}/{v.denominator}"

    def value_from_json(self, obj):
        if isinstance(obj, bool):
            raise CoefficientError("booleans are not rationals")
        if isinstance(obj, int):
            return Fraction(obj)
        if isinstance(obj, str):
            try:
                return Fraction(obj)
            except ValueError as exc:
                raise CoefficientError(f"malformed rational string {obj!r}") from exc
        raise CoefficientError(f"cannot read {obj!r} as a rational")

    def random_value(self, rng):
        num = rng.randrange(-9, 10)
        den = rng.randrange(1, 10)
        return Fraction(num, den)


class Integers(CoefficientSystem):
    name = "Z"

    def zero(self):
        return 0

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def scale(self, r, v):
        if not isinstance(r, int):
            raise CoefficientError("integer values take integer scalars only")
        return r * v

    def check_value(self, v):
        if isinstance(v, bool) or not isinstance(v, int):
            raise CoefficientError(f"{v!r} is not an integer")
        return v

    def value_to_json(self, v):
        return v

    def value_from_json(self, obj):
        if isinstance(obj, bool) or not isinstance(obj, int):
            raise CoefficientError(f"cannot read {obj!r} as an integer")
        return obj

    def random_value(self, rng):
        return rng.randrange(-9, 10)


class PrimeField(CoefficientSystem):
    is_field = True

    def __init__(self, p: int):
        if p >= 1 << 63:   # the int64 entries of a matrix are reduced mod p
            raise CoefficientError(f"prime fields need p < 2^63, got {p}")
        if not _is_prime(p):
            raise CoefficientError(f"{p} is not prime")
        self.p = p
        self.name = f"Zp:{p}"

    def zero(self):
        return 0

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def scale(self, r, v):
        if not isinstance(r, int):
            raise CoefficientError("prime-field values take integer scalars")
        return (r * v) % self.p

    def check_value(self, v):
        if isinstance(v, bool) or not isinstance(v, int):
            raise CoefficientError(f"{v!r} is not a prime-field element")
        return v % self.p

    def value_to_json(self, v):
        return v % self.p

    def value_from_json(self, obj):
        if isinstance(obj, bool) or not isinstance(obj, int):
            raise CoefficientError(f"cannot read {obj!r} mod {self.p}")
        return obj % self.p

    def random_value(self, rng):
        return rng.randrange(self.p)


class RealVectors(CoefficientSystem):
    is_exact = False

    def __init__(self, d: int, tol: float = DEFAULT_VECTOR_TOL):
        if d < 1:
            raise CoefficientError(f"vector dimension must be positive, got {d}")
        self.d = d
        self.tol = float(tol)
        self.name = f"Rd:{d}"

    def zero(self):
        return (0.0,) * self.d

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def scale(self, r, v):
        return tuple(float(r) * x for x in v)

    def is_zero(self, v) -> bool:
        return all(x == 0.0 for x in v)

    def approx_equal(self, a, b, tol: Optional[float] = None) -> bool:
        eps = self.tol if tol is None else tol
        return max(abs(x - y) for x, y in zip(a, b)) <= eps

    def check_value(self, v):
        try:
            vec = tuple(float(x) for x in v)
        except (TypeError, ValueError) as exc:
            raise CoefficientError(f"cannot read {v!r} as a real vector") from exc
        if len(vec) != self.d:
            raise CoefficientError(f"expected dimension {self.d}, got {len(vec)}")
        return vec

    def value_to_json(self, v):
        return list(v)

    def value_from_json(self, obj):
        if not isinstance(obj, list):
            raise CoefficientError(f"cannot read {obj!r} as a real vector")
        return self.check_value(obj)

    def random_value(self, rng):
        return tuple(rng.uniform(-1.0, 1.0) for _ in range(self.d))


def parse_system(spec: str) -> CoefficientSystem:
    """Parse a selection string: Q, Z, Zp:<p> or Rd:<d>."""
    spec = spec.strip()
    if spec == "Q":
        return Rationals()
    if spec == "Z":
        return Integers()
    if spec.startswith("Zp:"):
        try:
            p = int(spec[3:])
        except ValueError as exc:
            raise CoefficientError(f"malformed prime-field selector {spec!r}") from exc
        return PrimeField(p)
    if spec.startswith("Rd:"):
        try:
            d = int(spec[3:])
        except ValueError as exc:
            raise CoefficientError(f"malformed vector selector {spec!r}") from exc
        return RealVectors(d)
    raise CoefficientError(f"unknown coefficient selector {spec!r}")
