"""Exact arithmetic: monomials in sqrt(2), pi, i, and polynomials.

Every normalization constant handled by this library is a rational multiple
of 2^(h/2) * pi^q * i^r with integer h, q, r, so it can be stored and
multiplied without any rounding.  Rationals themselves are plain
``fractions.Fraction`` values.  ``MultiPoly`` is the one exact polynomial
type: sparse, in any number of variables, stored as integer numerators
over one denominator in lowest terms (the family P_{a,b,2} is a
one-variable MultiPoly).  Its Fraction coefficients and its float form
are views built on first use.

The module also sizes exact numbers before they are built: logs of
factorial products taken from exact integers, and ``check_digits``, the
one refusal of a number past the print limit: the interpreter's
integer-string limit, or 4300 digits where it has none.  A half-integer
is its doubled value, an int, read from text by ``parse_doubled``; an
integer is read by ``parse_int``.
"""

from __future__ import annotations

import sys
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, fsum, gcd, inf, isfinite, lcm, lgamma, log, log1p, log10, perm, pi, prod
from operator import add, mul
from types import MappingProxyType

__all__ = [
    "SymScalar",
    "MultiPoly",
    "rising",
    "superfactorial",
    "det",
    "log_factorial",
    "log_falling",
    "log_superfactorial",
    "superfactorial_valuation2",
    "check_digits",
    "check_printable",
    "print_limit_log",
    "parse_doubled",
    "parse_int",
    "format_doubled",
]


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


# ---------------------------------------------------------------------------
# Sizing: the natural log of an exact number, to refuse it before it is built
# ---------------------------------------------------------------------------


def log_factorial(n: int) -> float:
    """log n!, to a few ulps; inf past the float range."""
    try:
        return lgamma(n + 1)
    except OverflowError:
        return inf


def _stirling_tail(z: int) -> float:
    # log z! - (z + 1/2) log z + z - log(2 pi)/2, to 1e-16 from z = 64 on
    return 1 / (12 * z) - 1 / (360 * z**3) + 1 / (1260 * z**5)


def log_falling(n: int, k: int) -> float:
    """log(n (n-1) ... (n-k+1)) = log(n! / (n-k)!) for ints 0 <= k <= n.

    Not the difference of two lgammas, which loses about n log(n) ulps
    when k is small against n: a product of at most 64 factors is taken
    exactly (``math.log`` takes an int of any size), and a longer one from
    the Stirling series of both factorials, with log(n / (n-k)) taken as
    log1p(k / (n-k)) so that their large leading terms cancel exactly.
    """
    m = n - k
    if k <= 64:
        return log(perm(n, k))
    if m < 64:
        return log_factorial(n) - lgamma(m + 1)
    if m >> 53 > k:  # every factor is n to within an ulp
        return k * log(n)
    return (m + 0.5) * log1p(k / m) + k * (log(n) - 1) + _stirling_tail(n) - _stirling_tail(m)


# zeta'(-1), the constant term of the Barnes G expansion
_ZETA_PRIME_MINUS_1 = -0.16542114370045092


def log_superfactorial(n: int) -> float:
    """log(0! 1! ... (n-1)!) = log G(n+1), in O(1); inf past the float range.

    Exact below n = 64; above, the Barnes G expansion z^2 (log z / 2 - 3/4)
    + z/2 log(2 pi) - log(z)/12 + zeta'(-1) - 1/(240 z^2) at z = n, whose
    next term, 1/(1008 z^4), is below 1e-10.
    """
    if n < 64:
        return log(superfactorial(n))
    try:
        z = float(n)
    except OverflowError:
        return inf
    lz = log(z)
    return z * z * (lz / 2 - 0.75) + z / 2 * log(2 * pi) - lz / 12 + _ZETA_PRIME_MINUS_1 - 1 / (240 * z * z)


def superfactorial_valuation2(n: int) -> int:
    """The 2-adic valuation sum_{k<n} (k - popcount k) of 0! 1! ... (n-1)!.

    Bit i is set in 2^i of every 2^(i+1) consecutive integers, so the
    popcounts are summed bit by bit in O(log n).
    """
    ones = sum((n >> (i + 1) << i) + max(0, n % (2 << i) - (1 << i)) for i in range(n.bit_length()))
    return n * (n - 1) // 2 - ones


def _print_limit() -> int:
    """The interpreter's integer-string limit, or Python's default of 4300
    where it has none (a limit of 0, or Python before 3.10.7)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def print_limit_log() -> float:
    """The natural log of 10^(L + 1) for the print limit L of
    ``_print_limit``.  ``check_digits`` refuses a log past it at any scale
    below 10^12, so a sum of nonnegative logs may stop there."""
    return (_print_limit() + 1) * log(10)


def check_digits(what: str, log_size: float, scale: float = 0.0, at_least: bool = False):
    """Refuse, with ValueError, a number of natural log ``log_size`` that
    would not print under the print limit of ``_print_limit``.

    ``log_size`` is a float sum, off by a few ulps of ``scale``, the sum of
    the magnitudes of its terms (``|log_size|`` when that is larger).  Only
    a number past the limit by more than 1e-12 of the scale plus 1e-9 (in
    log10) is refused, so one nearer the limit is built and the caller
    decides on the built number (``check_printable`` holds an integer to
    the limit exactly).  The count in the message is floor(log10) + 1,
    which can be one off for a number within that error of a power of ten;
    ``at_least`` says that ``log_size`` is only a lower bound, and so is
    the count.
    """
    limit = _print_limit()
    log10_size = log_size / log(10)
    error = 1e-9 + 1e-12 * max(scale, abs(log_size)) / log(10)
    if log10_size >= limit + error:  # inf >= inf refuses a size past the float range
        digits = int(log10_size) + 1 if isfinite(log10_size) else "more than 10^307"
        bound = "at least " if at_least else ""
        raise ValueError(f"{what} would have {bound}{digits} digits, past the print limit of {limit}")


def check_printable(what: str, n: int):
    """Refuse, with ValueError in ``check_digits``'s wording, an integer
    past the print limit of ``_print_limit``.  Exact, and cheap below
    2^2000, which no limit (at least 640 digits) refuses."""
    if n.bit_length() > 2000:
        limit = _print_limit()
        if abs(n) >= 10**limit:
            raise ValueError(f"{what} would have {int(log10(abs(n))) + 1} digits, past the print limit of {limit}")


def format_doubled(d: int) -> str:
    """The half-integer d/2 as text: "3/2" for d = 3, "-2" for d = -4.
    ValueError (``check_printable``) where ``str`` could not print it."""
    n = d if d % 2 else d // 2
    check_printable("entry", n)
    return f"{d}/2" if d % 2 else str(n)


def parse_doubled(text: str) -> int:
    """Twice the half-integer ``text`` writes in a form ``Fraction`` reads:
    3 for "3/2" or "1.5", -5 for "-5/2", 4 for "2".

    ValueError for text that is not a half-integer, and for one that
    ``format_doubled`` could not print back, told from the text before the
    number is built: neither a run of digits that ``int`` would refuse nor
    an exponent such as "1e10000000" costs more than reading it.
    """
    s = text.strip()
    limit = _print_limit()
    if len(s) > limit:
        runs = "".join(c if c.isdecimal() else " " for c in s.replace("_", "")).split()
        longest = max(map(len, runs), default=0)
        if longest > limit:
            raise ValueError(f"entry would have {longest} digits, past the print limit of {limit}")
    mantissa, sep, exp = s.lower().rpartition("e")
    try:  # a misplaced sign or underscore is left for Fraction to refuse
        e = float(exp) if sep and exp.lstrip("+-").replace("_", "").isdecimal() else 0.0
    except ValueError:
        e = 0.0
    try:
        if abs(e) <= 4 * limit:
            f = Fraction(s)
        else:  # 10^|e| is not built: the value is 0, past the limit, or below 10^-limit
            try:
                f = Fraction(mantissa + "e0")
            except ValueError:
                f = Fraction(s)  # the same error, raised before the exponent is read
            if f:
                check_digits("entry", log(abs(f.numerator)) - log(f.denominator) + e * log(10))
                f = None
    except ZeroDivisionError:
        f = None
    if f is None or f.denominator not in (1, 2):
        raise ValueError(f"not a half-integer: {text!r}")
    d = f.numerator * (2 // f.denominator)
    check_printable("entry", d if d % 2 else d // 2)
    return d


def parse_int(text: str) -> int:
    """The integer ``text`` writes in a form ``int`` reads: 12 for " 12",
    -3 for "-3", 1000 for "1_000".

    ValueError for text that is not an integer, and for one with more
    digits than the print limit, told by counting them before ``int`` runs,
    so the interpreter's own limit never decides.  The message quotes the
    text only when it is short.
    """
    s = text.strip()
    limit = _print_limit()
    if len(s) > limit:
        digits = sum(map(str.isdecimal, s))
        if digits > limit:
            raise ValueError(f"integer would have {digits} digits, past the print limit of {limit}")
    try:
        return int(s)
    except ValueError:
        shown = repr(text) if len(text) <= 80 else f"a text of {len(text)} characters"
        raise ValueError(f"invalid int value: {shown}") from None


def det(rows) -> Fraction:
    """Exact determinant of a square matrix of ints or Fractions.

    Each row is scaled once by the lcm of its denominators, so the
    elimination runs on ints and the determinant is that of the int matrix
    over the product of the scales.  Fraction-free (Bareiss 1968)
    elimination: after step k every entry of the trailing block is a
    (k+1)-minor, so each division is exact and ``//`` loses nothing.  A
    zero pivot is replaced by swapping in a lower row.  The empty matrix
    has determinant 1.
    """
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    scales = [lcm(*(x.denominator for x in row)) for row in a]
    m = [[x.numerator * (s // x.denominator) for x in row] for s, row in zip(scales, a)]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return Fraction(0)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
        prev = pivot
    return Fraction(sign * m[-1][-1], prod(scales)) if n else Fraction(1)


def _odd_part(fr: Fraction) -> tuple[Fraction, int]:
    """Split a nonzero rational as (odd part) * 2^v with odd num and den."""
    n, d = fr.numerator, fr.denominator
    vn, vd = (n & -n).bit_length() - 1, (d & -d).bit_length() - 1  # lowest set bits
    return Fraction(n >> vn, d >> vd), vn - vd


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

    def __abs__(self) -> "SymScalar":
        """Modulus: drops the i-power and the sign of the rational part."""
        return SymScalar(abs(self.rat), self.sqrt2_pow, self.pi_pow, 0)

    # -- numeric views ------------------------------------------------------

    def to_float(self) -> float:
        if self.i_pow != 0:
            raise ValueError("scalar is not real")
        return float(self.rat) * 2.0 ** (self.sqrt2_pow / 2.0) * pi**self.pi_pow

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "rat": str(self.rat),
            "sqrt2_pow": self.sqrt2_pow,
            "pi_pow": self.pi_pow,
            "i_pow": self.i_pow,
        }


class MultiPoly:
    """Sparse multivariate polynomial with exact rational coefficients.

    Stored as one positive denominator ``den`` and a dict ``nums`` from
    exponent tuples (one slot per variable) to nonzero int numerators, in
    lowest terms: gcd(den, every numerator) = 1.  So the coefficient of e
    is nums[e] / den, and ``==`` and ``hash`` compare integers.  ``terms``,
    the dict of Fraction coefficients, is a read-only view built on first
    read and cached; so is the float form ``eval_float`` runs on.  Both
    caches are safe because a MultiPoly is never mutated.
    """

    __slots__ = ("nvars", "den", "nums", "_terms", "_floats")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        coeffs = {}
        for e, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                coeffs[tuple(e)] = c
        # the lcm of reduced denominators leaves every prime of den out of some numerator
        den = lcm(*{c.denominator for c in coeffs.values()})
        self._set(den, {e: c.numerator * (den // c.denominator) for e, c in coeffs.items()})

    def _set(self, den: int, nums: dict):
        self.den = den
        self.nums = nums
        self._terms = None
        self._floats = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def from_numerators(cls, nvars: int, den: int, nums: dict) -> "MultiPoly":
        """The polynomial sum_e nums[e] / den z^e, adopting ``nums``: its int
        values must be nonzero and den positive.  Brought to lowest terms
        by one gcd."""
        g = gcd(den, *nums.values())
        if g > 1:
            den //= g
            nums = {e: n // g for e, n in nums.items()}
        return cls._wrap(nvars, den, nums)

    @classmethod
    def _wrap(cls, nvars: int, den: int, nums: dict) -> "MultiPoly":
        """Adopt numerators already in lowest terms, without the gcd pass."""
        out = cls.__new__(cls)
        out.nvars = nvars
        out._set(den, nums)
        return out

    # -- structure ----------------------------------------------------------

    @property
    def terms(self) -> Mapping[tuple[int, ...], Fraction]:
        """Read-only {exponent: nonzero Fraction}, in the order of ``nums``."""
        if self._terms is None:
            den = self.den
            self._terms = MappingProxyType({e: Fraction(n, den) for e, n in self.nums.items()})
        return self._terms

    def is_zero(self) -> bool:
        return not self.nums

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiPoly):
            return self.nvars == other.nvars and self.den == other.den and self.nums == other.nums
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, self.den, frozenset(self.nums.items())))

    def coefficient(self, e) -> Fraction:
        return Fraction(self.nums.get(tuple(e), 0), self.den)

    # -- algebra ------------------------------------------------------------

    def _check(self, other: "MultiPoly"):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        den = lcm(self.den, other.den)
        ms, mo = den // self.den, den // other.den
        nums = {e: n * ms for e, n in self.nums.items()}
        for e, n in other.nums.items():
            nums[e] = nums.get(e, 0) + n * mo
        return MultiPoly.from_numerators(self.nvars, den, {e: n for e, n in nums.items() if n})

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._wrap(self.nvars, self.den, {e: -n for e, n in self.nums.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            self._check(other)
            nums: dict[tuple[int, ...], int] = {}
            for e1, n1 in self.nums.items():
                for e2, n2 in other.nums.items():
                    e = tuple(map(add, e1, e2))
                    nums[e] = nums.get(e, 0) + n1 * n2
            den = self.den * other.den
            return MultiPoly.from_numerators(self.nvars, den, {e: n for e, n in nums.items() if n})
        if isinstance(other, (int, Fraction)):
            if not other:
                return MultiPoly(self.nvars)
            f = Fraction(other)
            num = f.numerator
            return MultiPoly.from_numerators(
                self.nvars, self.den * f.denominator, {e: n * num for e, n in self.nums.items()}
            )
        return NotImplemented

    __rmul__ = __mul__

    def _float_form(self):
        """(float coefficients, one exponent column per variable, the largest
        exponent of each column), built on first use.  n / den is the
        correctly rounded quotient, the float of the Fraction; it raises
        OverflowError past the float range, and nothing is cached then."""
        if self._floats is None:
            den = self.den
            coeffs = [n / den for n in self.nums.values()]
            columns = list(zip(*self.nums))
            self._floats = (coeffs, columns, list(map(max, columns)))
        return self._floats

    def eval_float(self, point) -> float:
        """Value at a point: ``math.fsum`` of the float terms, exactly rounded and
        so independent of term order; OverflowError or ValueError on overflow.

        Each term is its float coefficient times z_1^e_1, ..., z_l^e_l, in that
        order, with each power v**d read from a table of one variable's
        powers; the float form is cached on first use.
        """
        z = [float(v) for v in point]
        coeffs, columns, tops = self._float_form()
        terms = coeffs
        for v, col, top in zip(z, columns, tops):
            powers = [v**d for d in range(top + 1)]
            terms = list(map(mul, terms, map(powers.__getitem__, col)))
        return fsum(terms)

    # -- presentation -------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: item[0], reverse=True)

    def to_json(self) -> list[dict]:
        return [{"exp": list(e), "coeff": str(c)} for e, c in self.sorted_terms()]

    def to_latex(self) -> str:
        if self.is_zero():
            return "0"
        pieces = []
        for e, c in self.sorted_terms():
            mono = " ".join(
                f"z_{{{i + 1}}}" if d == 1 else f"z_{{{i + 1}}}^{{{d}}}"
                for i, d in enumerate(e)
                if d
            )
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)} {mono}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        if self.is_zero():
            return "MultiPoly(0)"
        return "MultiPoly(" + " + ".join(f"{c}*z^{e}" for e, c in self.sorted_terms()) + ")"
