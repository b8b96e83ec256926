"""Exact scalar arithmetic: half-integers and monomials in sqrt(2), pi, i.

Every normalization constant handled by this library is a rational multiple
of 2^(h/2) * pi^q * i^r with integer h, q, r, so it can be stored and
multiplied without any rounding.  Rationals themselves are plain
``fractions.Fraction`` values (re-exported as ``Rat``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod

__all__ = [
    "Rat",
    "HalfInt",
    "SymScalar",
    "factorial",
    "rising",
    "superfactorial",
    "det",
]

Rat = Fraction


def rising(a, k: int):
    """Rising factorial a(a+1)...(a+k-1) of an int or Fraction a; the empty
    product (k = 0) is 1."""
    if k < 0:
        raise ValueError("rising factorial needs k >= 0")
    out = 1
    for i in range(k):
        out *= a + i
    return out


def superfactorial(n: int) -> int:
    """0! 1! ... (n-1)!; the empty product (n = 0) is 1."""
    return prod(map(factorial, range(n)))


def det(rows) -> Fraction:
    """Exact determinant of a square matrix of ints or Fractions.

    Fraction-free (Bareiss 1968) elimination: after step k every entry of
    the trailing block is a (k+1)-minor, so each division is exact.  A zero
    pivot is replaced by swapping in a lower row.  The empty matrix has
    determinant 1.
    """
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    sign, prev = 1, Fraction(1)
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return Fraction(0)
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) / prev
        prev = pivot
    return sign * a[-1][-1] if n else Fraction(1)


@dataclass(frozen=True, order=True)
class HalfInt:
    """A half-integer stored as its doubled value, so 3/2 has doubled = 3.

    Addition and subtraction stay inside the half-integers, and integrality
    is just a parity test on ``doubled``.
    """

    doubled: int

    @classmethod
    def from_int(cls, n: int) -> "HalfInt":
        return cls(2 * n)

    @classmethod
    def parse(cls, text: str) -> "HalfInt":
        """Parse "3/2", "-5/2", "1.5" or "2" into a half-integer."""
        try:
            f = Fraction(text.strip())
        except ZeroDivisionError:
            raise ValueError(f"not a half-integer: {text!r}") from None
        if f.denominator not in (1, 2):
            raise ValueError(f"not a half-integer: {text!r}")
        return cls(f.numerator * (2 // f.denominator))

    def is_integer(self) -> bool:
        return self.doubled % 2 == 0

    def to_int(self) -> int:
        if not self.is_integer():
            raise ValueError(f"{self} is not an integer")
        return self.doubled // 2

    def as_fraction(self) -> Fraction:
        return Fraction(self.doubled, 2)

    def _coerce(self, other) -> "HalfInt":
        if isinstance(other, HalfInt):
            return other
        if isinstance(other, int):
            return HalfInt(2 * other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return HalfInt(self.doubled + o.doubled)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return HalfInt(self.doubled - o.doubled)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return HalfInt(o.doubled - self.doubled)

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.doubled)

    def __mul__(self, other):
        if isinstance(other, int):
            return HalfInt(self.doubled * other)
        return NotImplemented

    __rmul__ = __mul__

    def __abs__(self) -> "HalfInt":
        return HalfInt(abs(self.doubled))

    def __str__(self) -> str:
        if self.is_integer():
            return str(self.doubled // 2)
        return f"{self.doubled}/2"

    def __repr__(self) -> str:
        return f"HalfInt({self})"


def _odd_part(fr: Fraction) -> tuple[Fraction, int]:
    """Split a nonzero rational as (odd part) * 2^v with odd num and den."""
    n, d = fr.numerator, fr.denominator
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    while d % 2 == 0:
        d //= 2
        v -= 1
    return Fraction(n, d), v


@dataclass(frozen=True)
class SymScalar:
    """An exact scalar rat * 2^(sqrt2_pow/2) * pi^pi_pow * i^i_pow.

    The stored form is canonical: the rational part has odd numerator and
    denominator (all powers of two live in ``sqrt2_pow``) and ``i_pow`` is
    reduced to 0 or 1 by folding i^2 = -1 into the sign of ``rat``.  The
    zero scalar is rat = 0 with all exponents 0.
    """

    rat: Fraction
    sqrt2_pow: int = 0
    pi_pow: int = 0
    i_pow: int = 0

    def __post_init__(self):
        rat = Fraction(self.rat)
        if rat == 0:
            object.__setattr__(self, "rat", Fraction(0))
            object.__setattr__(self, "sqrt2_pow", 0)
            object.__setattr__(self, "pi_pow", 0)
            object.__setattr__(self, "i_pow", 0)
            return
        odd, v = _odd_part(rat)
        ip = self.i_pow % 4
        if ip >= 2:
            odd = -odd
            ip -= 2
        object.__setattr__(self, "rat", odd)
        object.__setattr__(self, "sqrt2_pow", self.sqrt2_pow + 2 * v)
        object.__setattr__(self, "i_pow", ip)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "SymScalar":
        return cls(Fraction(0))

    @classmethod
    def one(cls) -> "SymScalar":
        return cls(Fraction(1))

    @classmethod
    def two_pi_power(cls, k: int) -> "SymScalar":
        """(2*pi)^k."""
        return cls(Fraction(1), 2 * k, k, 0)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.rat == 0

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, SymScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return SymScalar(Fraction(other))
        return NotImplemented

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if self.is_zero() or o.is_zero():
            return SymScalar.zero()
        return SymScalar(
            self.rat * o.rat,
            self.sqrt2_pow + o.sqrt2_pow,
            self.pi_pow + o.pi_pow,
            self.i_pow + o.i_pow,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if o.is_zero():
            raise ZeroDivisionError("division by the zero scalar")
        if self.is_zero():
            return SymScalar.zero()
        # i^-1 = i^3
        return SymScalar(
            self.rat / o.rat,
            self.sqrt2_pow - o.sqrt2_pow,
            self.pi_pow - o.pi_pow,
            self.i_pow + 3 * o.i_pow,
        )

    def __pow__(self, k: int) -> "SymScalar":
        if self.is_zero():
            if k <= 0:
                raise ZeroDivisionError("0 cannot be raised to a nonpositive power")
            return SymScalar.zero()
        if k >= 0:
            return SymScalar(self.rat**k, self.sqrt2_pow * k, self.pi_pow * k, self.i_pow * k)
        return SymScalar.one() / self ** (-k)

    def __neg__(self) -> "SymScalar":
        return SymScalar(-self.rat, self.sqrt2_pow, self.pi_pow, self.i_pow)

    def __abs__(self) -> "SymScalar":
        """Modulus: drops the i-power and the sign of the rational part."""
        return SymScalar(abs(self.rat), self.sqrt2_pow, self.pi_pow, 0)

    # -- numeric views ------------------------------------------------------

    def to_float(self) -> float:
        if self.i_pow != 0:
            raise ValueError("scalar is not real")
        from math import pi

        return float(self.rat) * 2.0 ** (self.sqrt2_pow / 2.0) * pi**self.pi_pow

    def __float__(self) -> float:
        return self.to_float()

    def to_complex(self) -> complex:
        from math import pi

        mag = float(self.rat) * 2.0 ** (self.sqrt2_pow / 2.0) * pi**self.pi_pow
        return mag * (1j**self.i_pow)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "rat": str(self.rat),
            "sqrt2_pow": self.sqrt2_pow,
            "pi_pow": self.pi_pow,
            "i_pow": self.i_pow,
        }

    @classmethod
    def from_json(cls, data: dict) -> "SymScalar":
        return cls(
            Fraction(data["rat"]),
            int(data["sqrt2_pow"]),
            int(data["pi_pow"]),
            int(data["i_pow"]),
        )

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = [str(self.rat)]
        if self.sqrt2_pow:
            parts.append(f"2^({self.sqrt2_pow}/2)")
        if self.pi_pow:
            parts.append(f"pi^{self.pi_pow}")
        if self.i_pow:
            parts.append("i")
        return " * ".join(parts)

