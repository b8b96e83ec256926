"""Weights and parameters for the dual pair (U_l, U_l').

Highest weights, Harish-Chandra parameters, the occurrence tests for both
members, the aligning Weyl element s0, the correspondence map and its
inverse, and two independent formulas for a dimension, Weyl's and the
dim Pi' bracket.  Entries are all integers or all half-integers (those of
an occurring parameter lie in delta + Z, delta = (l' - l + 1)/2), so a
parameter holds them doubled, ints of one parity checked at construction,
and all of this works on those ints.  ``DualPair`` enforces l <= l' at
construction, so no operation checks it again.  The numbers of the
second member are written, as in the paper, in the entries of the partner
mu = ``correspond_back(mu')``: the dim Pi' bracket has one home,
``dim_partner(mu)``; ``mysterious_factor`` and the two logs take mu, and
``dim_piprime(mu')`` reads it through ``correspond_back``.  Only
``s0_apply`` and ``correspond_back`` take mu' apart.  A second-member
parameter has l' entries, so an l' past ``MAX_RANK`` is refused before
any such tuple is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, fsum, inf, log, perm, prod
from operator import add, ge, gt

from .exact import SymScalar, format_doubled, log_factorial, log_falling, parse_doubled

__all__ = [
    "DualPair",
    "MAX_RANK",
    "HCParam",
    "HighestWeight",
    "delta_of",
    "rho",
    "rho_pp",
    "is_genuine",
    "hc_param",
    "occurs_G",
    "occurs_G_reason",
    "s0_apply",
    "occurs_Gprime",
    "correspond",
    "correspond_back",
    "dim_weyl",
    "dim_weyl_log",
    "dim_partner",
    "dim_piprime",
    "dim_partner_log",
    "ab_params",
    "mysterious_factor",
    "mysterious_factor_log",
]


@dataclass(frozen=True)
class DualPair:
    """The pair (U_l, U_l') with 1 <= l <= l'."""

    l: int
    lp: int

    def __post_init__(self):
        if self.l < 1 or self.lp < 1:
            raise ValueError("both ranks must be positive")
        if self.l > self.lp:
            raise ValueError(
                f"operation needs l <= l' (got l={self.l}, l'={self.lp}); "
                "swap the pair for reversed-role computations"
            )


# The most entries a second-member parameter may have: l'-sized tuples (the
# rho-string, s0 mu', the partner) past it are refused before they are built.
MAX_RANK = 1_000_000

_NO_PARTNER = "parameter does not occur; no partner exists"


def _check_rank(pair: DualPair) -> None:
    """Refuse, with ValueError, an l' past ``MAX_RANK``."""
    if pair.lp > MAX_RANK:
        raise ValueError(f"l' is past {MAX_RANK}, the most entries a second-member parameter may have")


def _doubled(v) -> int:
    if isinstance(v, int):
        return 2 * v
    if isinstance(v, str):
        return parse_doubled(v)
    if isinstance(v, Fraction):
        if v.denominator not in (1, 2):
            raise ValueError(f"not a half-integer: {v}")
        return v.numerator * (2 // v.denominator)
    raise TypeError(f"cannot interpret {v!r} as a half-integer")


class _DoubledTuple:
    """Shared behaviour of the weight-like tuples, held as ``doubled``: twice
    each entry, an int of one parity.  ``_set`` is the one check."""

    __slots__ = ("doubled",)
    _in_order = gt
    _order = "strictly"

    def __init__(self, entries):
        """Entries given as ints, Fractions or text such as "3/2"."""
        self._set(tuple(map(_doubled, entries)))

    @classmethod
    def from_doubled(cls, doubled):
        self = object.__new__(cls)
        self._set(tuple(doubled))
        return self

    def _set(self, xs: tuple[int, ...]):
        if not xs:
            raise ValueError("parameter needs at least one entry")
        if not all(map(self._in_order, xs, xs[1:])):
            raise ValueError(f"entries must be {self._order} decreasing: {[format_doubled(x) for x in xs]}")
        if len({x & 1 for x in xs}) > 1:
            raise ValueError(f"entries must all be integers or all half-integers: {[format_doubled(x) for x in xs]}")
        self.doubled = xs

    @classmethod
    def parse(cls, text: str):
        return cls.from_doubled(map(parse_doubled, text.split(",")))

    def __len__(self) -> int:
        return len(self.doubled)

    def __eq__(self, other) -> bool:
        if isinstance(other, type(self)):
            return self.doubled == other.doubled
        return NotImplemented

    def __hash__(self):
        return hash((type(self).__name__, self.doubled))

    def to_json(self) -> list[str]:
        return list(map(format_doubled, self.doubled))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(self.to_json())})"


class HCParam(_DoubledTuple):
    """A strictly decreasing tuple of integers or of half-integers (a
    Harish-Chandra parameter).

    Both are enforced at construction; Weyl-orbit inputs should be sorted
    (with sign tracking) before entry.
    """


class HighestWeight(_DoubledTuple):
    """A weakly decreasing tuple of integers or of half-integers (a highest weight)."""

    _in_order = ge
    _order = "weakly"


def _delta2(pair: DualPair) -> int:
    """2 delta = l' - l + 1."""
    return pair.lp - pair.l + 1


def delta_of(pair: DualPair) -> Fraction:
    """delta = (l' - l + 1)/2."""
    return Fraction(_delta2(pair), 2)


def rho(n: int) -> HCParam:
    """Half-sum of positive roots for U_n: ((n+1)/2 - j) for j = 1..n."""
    if n < 1:
        raise ValueError("rho needs n >= 1")
    return HCParam.from_doubled(range(n - 1, -n, -2))


def rho_pp(pair: DualPair) -> tuple[int, ...]:
    """Twice the rho-string (delta - j) for j = 1..l'-l of the group U_{l'-l}:
    l'-l-1, l'-l-3, ..., l-l'+1; empty for l = l'.  ValueError for l' past ``MAX_RANK``."""
    _check_rank(pair)
    return tuple(range(pair.lp - pair.l - 1, pair.l - pair.lp, -2))


def is_genuine(hw: HighestWeight, pair: DualPair) -> bool:
    """Genuineness for the first member: every entry minus l'/2 is an integer."""
    return (hw.doubled[0] - pair.lp) % 2 == 0


def hc_param(hw: HighestWeight, pair: DualPair) -> HCParam:
    """Harish-Chandra parameter mu = lambda + rho of a genuine highest weight."""
    if len(hw) != pair.l:
        raise ValueError(f"highest weight must have {pair.l} entries")
    if not is_genuine(hw, pair):
        raise ValueError("highest weight is not genuine: entries - l'/2 must be integers")
    return HCParam.from_doubled(map(add, hw.doubled, rho(pair.l).doubled))


def _delta_reason(doubled, pair: DualPair) -> str | None:
    """Why not every 2x in ``doubled`` (of one class) has x in delta + Z_{>=0}:
    ``"parity"`` when they are not in delta + Z, ``"not-occurring"`` when one
    of them lies below delta; None when all of them lie there."""
    d2 = _delta2(pair)
    if (doubled[0] - d2) % 2:
        return "parity"
    if any(x < d2 for x in doubled):
        return "not-occurring"
    return None


def occurs_G_reason(mu: HCParam, pair: DualPair) -> tuple[bool, str | None]:
    """Occurrence test for the first member, with a failure reason.

    mu occurs iff every entry lies in delta + Z_{>=0} (``_delta_reason``).
    """
    if len(mu) != pair.l:
        raise ValueError(f"parameter must have {pair.l} entries, got {len(mu)}")
    reason = _delta_reason(mu.doubled, pair)
    return reason is None, reason


def occurs_G(mu: HCParam, pair: DualPair) -> bool:
    return occurs_G_reason(mu, pair)[0]


def s0_apply(mup: HCParam, pair: DualPair) -> tuple[int, ...]:
    """The aligning Weyl element on twice the entries, mu' rotated by l'-l
    places: entry j is mu'_{l'-l+j} for j <= l and mu'_{j-l} for j > l.
    The length is checked first, then l' against ``MAX_RANK``."""
    if len(mup) != pair.lp:
        raise ValueError(f"parameter must have {pair.lp} entries, got {len(mup)}")
    _check_rank(pair)
    k = pair.lp - pair.l
    return mup.doubled[k:] + mup.doubled[:k]


def occurs_Gprime_reason(mup: HCParam, pair: DualPair) -> tuple[bool, str | None]:
    """Occurrence test for the second member, with a failure reason.

    -(s0 mu') restricted to the first l slots must pass the first member's
    rule and the tail must equal the rho-string of U_{l'-l}, which is empty
    at l = l'.
    """
    s = s0_apply(mup, pair)
    reason = _delta_reason([-x for x in s[: pair.l]], pair)
    if reason:
        return False, reason
    if s[pair.l :] != rho_pp(pair):
        return False, "tail"
    return True, None


def occurs_Gprime(mup: HCParam, pair: DualPair) -> bool:
    return occurs_Gprime_reason(mup, pair)[0]


def correspond(mu: HCParam, pair: DualPair) -> HCParam:
    """The parameter of the partner representation on the second member.

    The first l'-l entries are the rho-string of U_{l'-l} and the rest is
    the negated reversal of mu, so mu'_{l'+1-j} = -mu_j.  Occurrence is
    checked first, then l' against ``MAX_RANK`` (in ``rho_pp``).
    """
    if not occurs_G(mu, pair):
        raise ValueError(_NO_PARTNER)
    return HCParam.from_doubled(rho_pp(pair) + tuple(-x for x in reversed(mu.doubled)))


def correspond_back(mup: HCParam, pair: DualPair) -> HCParam:
    """Inverse of ``correspond``: mu_j = -mu'_{l'+1-j}.  ``occurs_Gprime``
    checks l' against ``MAX_RANK`` (in ``s0_apply``)."""
    if not occurs_Gprime(mup, pair):
        raise ValueError(_NO_PARTNER)
    return HCParam.from_doubled(-x for x in reversed(mup.doubled[pair.lp - pair.l :]))


def _run_ratios(xs):
    """(D, i - j, n) for each maximal run j..k-1 of consecutive entries
    (doubled entries ``xs`` two apart) and each later entry i, where
    D = xs[j] - xs[i] and n = k - j: the ratios of ``dim_weyl``."""
    starts = [j for j in range(len(xs)) if j == 0 or xs[j - 1] - xs[j] != 2]
    for j, k in zip(starts, starts[1:] + [len(xs)]):
        for i in range(k, len(xs)):
            yield xs[j] - xs[i], i - j, k - j


def dim_weyl(mu: HCParam) -> int:
    """Weyl dimension formula: prod_{j<k} (mu_j - mu_k) / (k - j).

    Inside a run of consecutive entries (mu_{j+1} = mu_j - 1) every factor
    is 1, so each maximal run j..k-1 is taken against each later entry i as
    one ratio perm(mu_j - mu_i, n) / perm(i - j, n), with n = k - j.  The
    entries are of one class, so mu_j - mu_i = D/2 is an integer and the
    product a positive one.
    """
    num = den = 1
    for d, gap, n in _run_ratios(mu.doubled):
        num *= perm(d // 2, n)
        den *= perm(gap, n)
    return num // den


def dim_weyl_log(mu: HCParam, stop: float = inf) -> tuple[float, float]:
    """log ``dim_weyl(mu)`` from the same run ratios, each falling(D/2, n) /
    falling(i-j, n) from ``log_falling``, and the sum of the magnitudes of
    the terms it is summed from.

    The entries are of one class, so mu_j - mu_i >= i - j: every ratio is
    at least 1 and every partial sum a lower bound, and the sum is returned
    as soon as it passes ``stop``.
    """
    total = scale = 0.0
    for d, gap, n in _run_ratios(mu.doubled):
        num, den = log_falling(d // 2, n), log_falling(gap, n)
        total += num - den
        scale += num + den
        if total > stop:
            break
    return total, scale


def dim_partner(mu: HCParam, pair: DualPair) -> int:
    """Dimension of the partner representation on the second member, from mu.

    The bracket prod_j (mu_j+delta-1)!/(mu_j-delta)! * prod_{j<k} (mu_j - mu_k)
    / prod_{j<=l} (l'-j)!, in integers from the doubled entries, as
    prod_j comb(mu_j+delta-1, l'-l) * prod_{j<k} (mu_j - mu_k) over
    prod_{j<l} perm(l'-1-j, l-1-j): 2 delta - 1 = l' - l, so (l'-l)!^l
    cancels and the cost follows the size of the answer, not l'.  This is
    the one place the bracket is computed.  Agrees with ``dim_weyl`` of
    ``correspond(mu, pair)``.  ValueError, in ``correspond``'s words, when
    mu does not occur, then for l' past ``MAX_RANK``.
    """
    if not occurs_G(mu, pair):
        raise ValueError(_NO_PARTNER)
    _check_rank(pair)
    l, k = pair.l, pair.lp - pair.l
    num = prod(comb((x + k - 1) // 2, k) for x in mu.doubled) * prod(x - y for x, y in combinations(mu.doubled, 2))
    dim, rem = divmod(num, prod(perm(k + j, j) for j in range(l)) << (l * (l - 1) // 2))
    if rem:
        raise ValueError("dimension formula did not produce an integer")
    return dim


def dim_piprime(mup: HCParam, pair: DualPair) -> int:
    """``dim_partner`` of ``correspond_back(mup, pair)``: the dimension of
    the second-member representation from its occurrence data."""
    return dim_partner(correspond_back(mup, pair), pair)


def dim_partner_log(mu: HCParam, pair: DualPair) -> tuple[float, float]:
    """log ``dim_partner(mu, pair)``, and the sum of the magnitudes of the
    terms it is summed from (its float error is a few ulps of that).

    The three factors of the bracket in logs, each term from exact
    integers: ``log_falling`` for each factorial ratio, log(2mu_j - 2mu_k)
    - log 2 for each root difference and ``log_factorial`` for each
    (l'-j)!.  So an entry of any size is taken without overflow or
    cancellation, in O(l^2) float operations, and none of the partner's l'
    entries is built.  ValueError, in ``correspond``'s words, when mu does
    not occur.
    """
    if not occurs_G(mu, pair):
        raise ValueError(_NO_PARTNER)
    d2 = _delta2(pair)
    ratios = fsum(log_falling((x + d2) // 2 - 1, d2 - 1) for x in mu.doubled)
    roots = [log(x - y) - log(2) for x, y in combinations(mu.doubled, 2)]
    facts = fsum(map(log_factorial, range(pair.lp - pair.l, pair.lp)))
    return ratios + fsum(roots) - facts, ratios + fsum(map(abs, roots)) + facts


def ab_params(mu: HCParam, pair: DualPair) -> tuple[tuple[int, int], ...]:
    """The integer pairs a_j = -mu_j - delta + 1, b_j = mu_j - delta + 1 of l entries mu_j."""
    if len(mu) != pair.l:
        raise ValueError(f"parameter must have {pair.l} entries")
    d2 = _delta2(pair)
    x = mu.doubled[0]
    if (x + d2) % 2:
        raise ValueError(f"entry {format_doubled(x)} has the wrong parity class for delta = {format_doubled(d2)}")
    return tuple([((2 - d2 - x) // 2, (2 - d2 + x) // 2) for x in mu.doubled])


def mysterious_factor(mu: HCParam, pair: DualPair) -> SymScalar:
    """The factorial ratios of the dim Pi' bracket,
    prod_j perm(mu_j + delta - 1, 2 delta - 1), on the entries of an
    occurring first-member parameter mu, the partner of mu' =
    ``correspond(mu, pair)``.

    This equals (dim Pi' / dim Pi) * prod_{j<=l} (l'-j)!/(l-j)!, a positive
    rational.  ValueError, in ``correspond``'s words, when mu does not occur.
    """
    if not occurs_G(mu, pair):
        raise ValueError(_NO_PARTNER)
    k = pair.lp - pair.l
    return SymScalar(prod(perm((x + k - 1) // 2, k) for x in mu.doubled))


def mysterious_factor_log(mu: HCParam, pair: DualPair) -> tuple[float, float]:
    """log of the odd part of ``mysterious_factor(mu, pair)``, the rational
    it carries, and the sum of the magnitudes of its terms: each perm(n, k)
    from ``log_falling``, less log 2 times its 2-adic valuation
    k - s(n) + s(n - k), s the binary digit sum.  ValueError, in
    ``correspond``'s words, when mu does not occur."""
    if not occurs_G(mu, pair):
        raise ValueError(_NO_PARTNER)
    k = pair.lp - pair.l
    ns = [(x + k - 1) // 2 for x in mu.doubled]
    ratios = fsum(log_falling(n, k) for n in ns)
    return ratios - log(2) * sum(k - n.bit_count() + (n - k).bit_count() for n in ns), ratios
