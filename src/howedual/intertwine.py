"""Intertwining distributions as exact Gaussian-times-polynomial data.

The distribution attached to an occurring parameter mu is, on the Cartan
slice with coordinates z_j = 2*pi*y_j (y_j the eigenvalues of w w*),

    prefactor * exp(-sum_j z_j) * Q(z),

where Q is the symmetric polynomial obtained by skew-symmetrizing
prod_j P_{a_j,b_j,2}(z_j) and dividing exactly by the Vandermonde
prod_{j<k} (z_j - z_k), a composition of l(l-1)/2 elementary divided
differences (p - s_i p) / (z_i - z_{i+1}).  All pi-, i- and sqrt(2)-powers
(including the beta = 2*pi change of variable and the i-powers of the root
product) live in the SymScalar prefactor, so the polynomial side stays
rational.

Every polynomial here, the one-variable factors P_{a,b,2} from ``pab``
included, is an ``exact.MultiPoly``: integer numerators over one
denominator.  The product, the skew sum and the division read and write
those numerators and never build a Fraction: the product's denominator is
the product of the factors' denominators, the skew sum collects each term
on the strictly decreasing representative of its orbit and expands every
representative once, and the divided differences act on the integer
coefficient dict.  A product or skew sum past MAX_TERMS terms, or a
coefficient or second-member prefactor too long for ``str`` to print,
raises ValueError before it is expanded.  Q is exact data; only its value
at a point is floating point, an exactly rounded sum of the float terms
that does not depend on their order, taken from the float form that the
polynomial builds once.  numpy is imported inside ``eval_distribution``
and ``eigvalsh_jacobi``, the two functions that need it, so importing this
module does not load it.

The second member runs the same pipeline on the first l entries of s0 mu'
with the index pair (a, b) of ``ab_params`` exchanged.  That is the
paper's own second computation, kept so that a fault in it (say, a and b
not exchanged) shows; only its factorial-ratio factor reads the partner mu.

The module also carries the normalization-constant chain, built from
vol(U_n), and the multiplicity-one identity |T(0)| = 2 * vol(U_l) * dim Pi'
as three independent formulas: the closed form of |T(0)| (the dim Pi'
bracket of ``reps.dim_partner``, read from mu), the l x l minor of
derivative values at 0, and Weyl's formula for dim Pi'.  Distributions
and values at zero take their prefactors from the part of the chain that
``constants`` extends by vol(U_l') and vol(S^h1), memoized per pair, so
they never build 0! 1! ... (l'-1)!; ``constants`` refuses a vol(U_l') too
long for ``str``, sized in O(log l') from the Barnes G expansion of
log(0! 1! ... (l'-1)!).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, permutations
from math import exp, factorial, fsum, gcd, isfinite, log, pi, prod
from operator import gt, itemgetter, ne
from types import MappingProxyType
from typing import TYPE_CHECKING

from .exact import (
    MultiPoly,
    SymScalar,
    check_digits,
    check_printable,
    det,
    log_factorial,
    log_superfactorial,
    superfactorial,
    superfactorial_valuation2,
)
from .pab import pab2
from .reps import (
    DualPair,
    HCParam,
    ab_params,
    correspond,
    correspond_back,
    dim_partner,
    dim_weyl,
    mysterious_factor,
    mysterious_factor_log,
    occurs_G,
    occurs_Gprime,
    s0_apply,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DistributionData",
    "p_mu_product",
    "skew_symmetrize",
    "divide_by_vandermonde",
    "vol_unitary",
    "constants",
    "distribution_G",
    "distribution_Gprime",
    "proportionality",
    "value_at_zero_closed",
    "value_at_zero_oracle",
    "multiplicity_one_check",
    "eval_distribution",
    "eval_on_W",
    "eigvalsh_jacobi",
]

# Largest product or skew sum the exact core expands: admits l = 6 at
# mu_j = delta + 2(l-1-j) + 3 (322,560 product and 1,441,440 skew terms)
# and refuses l = 7 there (5,160,960 product terms) before expanding it.
MAX_TERMS = 4_000_000


def perm_sign(perm) -> int:
    """Sign of a permutation given as a tuple of images of 0..n-1: the
    parity of its inversions."""
    return (-1) ** sum(a > b for a, b in combinations(perm, 2))


# ---------------------------------------------------------------------------
# Skew-symmetrization and exact Vandermonde division
# ---------------------------------------------------------------------------


def _product(factors: list[MultiPoly], l: int) -> MultiPoly:
    """prod_j factors[j](z_j) of one-variable factors in l variables, multiplied
    out on integer numerators over the product of their denominators."""
    den, nums = 1, {(): 1}
    for p in factors:
        den *= p.den
        nums = {e + k: n * m for e, n in nums.items() for k, m in p.nums.items()}
    return MultiPoly.from_numerators(l, den, nums)


def p_mu_product(mu: HCParam, pair: DualPair) -> MultiPoly:
    """prod_j P_{a_j,b_j,2}(z_j); the zero polynomial when some b_j <= 0."""
    return _product([pab2(a, b) for a, b in ab_params(mu, pair)], pair.l)


def _check_size(terms: int, what: str):
    if terms > MAX_TERMS:
        check_printable(f"the term count of {what}", terms)
        raise ValueError(f"{what} would have {terms} terms, past the limit of {MAX_TERMS}")


@lru_cache
def _relabelings(l: int) -> Mapping[tuple[int, ...], tuple]:
    """Read-only {s: (sgn(s), e -> s e)} over the permutations s of l
    variables, in lexicographic order, where (s e)_k = e_(s(k))."""
    return MappingProxyType({
        perm: (perm_sign(perm), itemgetter(*perm) if l > 1 else tuple)
        for perm in permutations(range(l))
    })


def _orbit(plus: dict, l: int):
    """For each permutation s of l variables, in lexicographic order: the
    exponents of ``plus`` relabeled by s and its values times sgn(s).  Over
    all s these are the terms of the skew sum of ``plus``."""
    values = {1: list(plus.values())}
    values[-1] = [-n for n in values[1]]
    for sign, relabel in _relabelings(l).values():
        yield map(relabel, plus), values[sign]


def skew_symmetrize(p: MultiPoly) -> MultiPoly:
    """sum over permutations s of sgn(s) * (p with variables relabeled by s).

    Each term is moved onto the strictly decreasing representative of its
    orbit with the sign of the sorting permutation (terms with a repeated
    exponent cancel), and each surviving representative's orbit is expanded
    once.
    """
    l = p.nvars
    relabelings = _relabelings(l)
    plus: dict[tuple[int, ...], int] = {}
    for e, n in p.nums.items():
        if len(set(e)) == l:
            sign, relabel = relabelings[tuple(sorted(range(l), key=e.__getitem__, reverse=True))]
            f = relabel(e)
            plus[f] = plus.get(f, 0) + sign * n
    plus = {f: n for f, n in plus.items() if n}
    _check_size(factorial(l) * len(plus), "the skew sum")
    # relabeling only moves and negates coefficients, so the gcd of q+ is that of the sum
    g = gcd(p.den, *plus.values())
    nums: dict[tuple[int, ...], int] = {}
    for exponents, values in _orbit({f: n // g for f, n in plus.items()}, l):
        nums.update(zip(exponents, values))
    return MultiPoly._wrap(l, p.den // g, nums)


def _divided_difference(terms: dict, i: int) -> dict:
    """(p - s_i p) / (z_i - z_{i+1}) on a coefficient dict, where s_i swaps
    z_i and z_{i+1}; zero coefficients are dropped.

    Termwise: z_i^a z_{i+1}^b goes to sum_{k<a-b} z_i^(a-1-k) z_{i+1}^(b+k)
    for a > b, to minus the same sum with a and b exchanged for a < b, and
    to 0 for a = b.
    """
    out: dict = {}
    for e, c in terms.items():
        a, b = e[i], e[i + 1]
        if a < b:
            a, b, c = b, a, -c
        head, tail = e[:i], e[i + 2 :]
        for k in range(a - b):
            f = head + (a - 1 - k, b + k) + tail
            out[f] = out.get(f, 0) + c
    return {f: c for f, c in out.items() if c}


def divide_by_vandermonde(q: MultiPoly) -> MultiPoly:
    """Exact quotient of a skew-symmetric q by prod_{j<k} (z_j - z_k).

    Raises ValueError unless q changes sign under every swap of adjacent
    variables, even where the quotient would exist (z_1 (z_1 - z_2) is
    refused).  A skew-symmetric q is the skew sum of q+, its terms with
    strictly decreasing exponents, so q / V is the top divided difference
    of q+ (Bernstein-Gelfand-Gelfand), applied as l(l-1)/2 elementary
    divided differences along a reduced word of the longest permutation.
    """
    l = q.nvars
    nums = q.nums
    out = {e: n for e, n in nums.items() if all(map(gt, e, e[1:]))}
    # q is skew-symmetric exactly when it is the skew sum of q+
    if factorial(l) * len(out) != len(nums) or any(
        any(map(ne, map(nums.get, exponents), values)) for exponents, values in _orbit(out, l)
    ):
        raise ValueError("input is not skew-symmetric")
    for j in range(l - 1, 0, -1):
        for i in range(j):
            out = _divided_difference(out, i)
    return MultiPoly.from_numerators(l, q.den, out)


# ---------------------------------------------------------------------------
# The normalization-constant chain
# ---------------------------------------------------------------------------


def vol_unitary(n: int) -> SymScalar:
    """vol(U_n) = (2 pi)^(n(n+1)/2) / prod_{j<n} j!; 1 for n = 0."""
    m = n * (n + 1) // 2
    return SymScalar(Fraction(1, superfactorial(n)), 2 * m, m)


@lru_cache
def _chain(pair: DualPair) -> Mapping[str, SymScalar]:
    """All constants but vol(U_l') and vol(S^h1): the ones that need no
    factorial past (l-1)!, so building them costs the same at every l'.
    Memoized per pair, so the mapping is read-only."""
    l, lp = pair.l, pair.lp
    half = l * (l - 1) // 2

    vol_g = vol_unitary(l)
    vol_h = SymScalar.two_pi_power(l)
    c_weyl = vol_g / vol_h
    c_w = SymScalar(Fraction(1), l * (2 * lp + 1))
    c_z = SymScalar(Fraction(1), 2 * l, l, -half % 4)
    c_1 = SymScalar(Fraction(1, superfactorial(l)), 2 * l * (l - lp), half, (l * lp) % 4)
    c_2 = c_w / c_weyl
    c_h1 = SymScalar(Fraction((-1) ** (l * (lp - l))), 0, 0, (l * (lp - 1)) % 4)
    # 2 vol(H) C_1 C_2 / C_W
    c_bullet = SymScalar(Fraction(2), 2 * l, l) * c_1 / c_weyl
    return MappingProxyType({
        "vol_G": vol_g,
        "vol_H": vol_h,
        "c_weyl": c_weyl,
        "C_W": c_w,
        "C_z": c_z,
        "C_1": c_1,
        "C_2": c_2,
        "C_h1": c_h1,
        "C_bullet": c_bullet,
    })


def constants(pair: DualPair) -> dict[str, SymScalar]:
    """All normalization constants of the pair, as exact symbolic scalars.

    The sign of C_2 and the i-power conventions are fixed choices; every
    downstream identity is checked on moduli, where they drop out.  Refuses,
    before building it, a vol(U_l') whose rational, the odd part of
    1 / prod_{k<l'} k!, is too long for ``str``; sizing it costs O(log l').
    """
    l, lp = pair.l, pair.lp
    log_size = log_superfactorial(lp)
    if isfinite(log_size):  # an inf size stays inf; its valuation would overflow a float
        log_size -= superfactorial_valuation2(lp) * log(2)
    check_digits("vol(U_l')", log_size)
    chain = _chain(pair)
    # centralizer of the Cartan slice: 2^(l/2) vol(H) vol(U_{l'-l})
    vol_s_h1 = chain["vol_H"] * vol_unitary(lp - l) * SymScalar(Fraction(1), l)
    return {**chain, "vol_Gprime": vol_unitary(lp), "vol_S_h1": vol_s_h1}


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistributionData:
    """Exact data of an intertwining distribution on the Cartan slice.

    The function is prefactor * exp(-sum_j z_j) * poly(z) with
    z_j = 2*pi*y_j; the zero distribution has zero prefactor and zero
    polynomial and marks a non-occurring parameter.
    """

    prefactor: SymScalar
    poly: MultiPoly

    @cached_property
    def modulus(self) -> float:
        """|prefactor| as a float, built on first use."""
        return abs(self.prefactor).to_float()

    def is_zero(self) -> bool:
        return self.prefactor.is_zero() or self.poly.is_zero()

    def to_json(self) -> dict:
        if self.is_zero():
            return {"zero": True}
        return {
            "prefactor": self.prefactor.to_json(),
            "poly": self.poly.to_json(),
            "gaussian": "exp(-sum z_j)",
            "variables": "z_j = 2*pi*y_j",
        }


def _pipeline(ab, l: int) -> MultiPoly:
    """Q for the factors P_{a_j,b_j,2}, all b_j >= 1.  Refuses, before building
    them, prod_j b_j product terms past MAX_TERMS and a top coefficient
    prod_j 2^(-a_j) / (b_j - 1)! (the longest) too long for ``str``."""
    _check_size(prod(b for _, b in ab), "the product")
    two = -sum(a for a, _ in ab)  # the top coefficient is 2^two / prod_j (b_j - 1)!
    v = sum(b - 1 - bin(b - 1).count("1") for _, b in ab)  # 2-adic valuation of prod_j (b_j - 1)!
    log_num = max(two - v, 0) * log(2)
    log_den = fsum(log_factorial(b - 1) for _, b in ab) - min(two, v) * log(2)
    check_digits("a coefficient", max(log_num, log_den))
    return divide_by_vandermonde(skew_symmetrize(_product([pab2(a, b) for a, b in ab], l)))


@lru_cache
def _prefactor(pair: DualPair, turns: int) -> SymScalar:
    """C_bullet * i^turns * i^(l(l-1)/2) (2 pi)^(l(l-1)/2), memoized per pair
    and central character.

    i^turns is the central character at the base point of the Cayley lift
    under the fixed "+" convention, i^(2 sum mu_j) (``_central_turns``).
    The last factor collects the i-powers of the root product and the
    beta-powers from rewriting the Vandermonde in z = 2*pi*y.
    """
    half = pair.l * (pair.l - 1) // 2
    central = SymScalar(Fraction(1), 0, 0, turns)
    return _chain(pair)["C_bullet"] * central * SymScalar(Fraction(1), 2 * half, half, half % 4)


def _central_turns(mu: HCParam) -> int:
    # 2 sum mu_j mod 4: the central character is (-1)^(sum mu_j) for
    # integral entry sums, and +-i for the half-integral sums of some
    # genuine parameters of odd length.
    return sum(mu.doubled) % 4


def distribution_G(mu: HCParam, pair: DualPair) -> DistributionData:
    """Distribution data for a first-member parameter; zero iff mu does not occur."""
    ab = ab_params(mu, pair)  # rejects wrong parity
    l = pair.l
    if any(b <= 0 for _, b in ab):
        return DistributionData(SymScalar.zero(), MultiPoly.zero(l))
    inv = _pipeline(ab, l)
    return DistributionData(_prefactor(pair, _central_turns(mu)), inv)


def distribution_Gprime(mup: HCParam, pair: DualPair) -> DistributionData:
    """Distribution data for a second-member parameter; zero iff it does not occur.

    Same pipeline on the first l entries of s0 mu' with the index pair
    exchanged, P_{b_j, a_j, 2}, and the factorial-ratio factor of
    ``mysterious_factor`` of the partner mu = ``correspond_back(mu')`` in
    the prefactor, whose rational is +- the odd part of that factor
    (C_bullet's is +-1): one too long for ``str`` is refused from
    ``mysterious_factor_log`` before anything is built.
    """
    l = pair.l
    if not occurs_Gprime(mup, pair):
        return DistributionData(SymScalar.zero(), MultiPoly.zero(l))
    mu = correspond_back(mup, pair)
    check_digits("the prefactor", *mysterious_factor_log(mu, pair))
    head = HCParam.from_doubled(s0_apply(mup, pair)[:l])  # mu'_{l'-l+1} > ... > mu'_{l'}
    inv = _pipeline([(b, a) for a, b in ab_params(head, pair)], l)
    factor = mysterious_factor(mu, pair)
    check_printable("the prefactor", factor.rat.numerator)
    return DistributionData(_prefactor(pair, _central_turns(mup)) * factor, inv)


def proportionality(mu: HCParam, mup: HCParam, pair: DualPair) -> SymScalar:
    """Exact ratio distribution_G / distribution_Gprime.

    Defined only when both distributions are nonzero and their invariant
    polynomials are exactly proportional, which happens precisely when
    mu' is the partner of mu.
    """
    dg = distribution_G(mu, pair)
    dgp = distribution_Gprime(mup, pair)
    if dg.is_zero() or dgp.is_zero():
        raise ValueError("one of the distributions vanishes")
    lead = max(dgp.poly.nums)
    if lead not in dg.poly.nums:
        raise ValueError("invariant polynomials are not proportional")
    ratio = dg.poly.coefficient(lead) / dgp.poly.coefficient(lead)
    if dg.poly != dgp.poly * ratio:
        raise ValueError("invariant polynomials are not proportional")
    return dg.prefactor * ratio / dgp.prefactor


# ---------------------------------------------------------------------------
# Value at zero and multiplicity one
# ---------------------------------------------------------------------------


def _value_prefactor(pair: DualPair) -> SymScalar:
    """|C_bullet| c_weyl = |C_bullet| (2 pi)^(l(l-1)/2) / prod_{k<l} k!."""
    chain = _chain(pair)
    return abs(chain["C_bullet"]) * chain["c_weyl"]


def value_at_zero_closed(mu: HCParam, pair: DualPair) -> SymScalar:
    """|T(0)| from the closed factorial form.

    The bracket 2^(l l' - l(l+1)/2) * prod_j (mu_j+delta-1)! /
    ((l'-j)! (mu_j-delta)!) * prod_{j<k} (mu_j-mu_k) is
    2^(l l' - l(l+1)/2) * dim Pi', taken from ``dim_partner`` of mu;
    constants of modulus one are normalized away.
    """
    two_pow = pair.l * pair.lp - pair.l * (pair.l + 1) // 2
    bracket = SymScalar(dim_partner(mu, pair), 2 * two_pow)
    return abs(_value_prefactor(pair) * bracket)


def value_at_zero_oracle(mu: HCParam, pair: DualPair) -> SymScalar:
    """|T(0)| from the minor det[(d^k P_j)(0)], j = 1..l, k = 0..l-1.

    Applying the operator dual to the root product to the skew sum and
    evaluating at 0 gives l! times this minor, so it is the value at zero
    of the invariant polynomial without building it: O(l^3) through
    ``exact.det``.
    """
    if not occurs_G(mu, pair):
        raise ValueError("parameter does not occur")
    # d^k P_{a,b,2} = P_{a,b-k,2}, so the derivative value at 0 is the
    # constant term of the lowered-index polynomial.
    ab = ab_params(mu, pair)
    minor = det([[pab2(a, b - k).coefficient((0,)) for k in range(pair.l)] for a, b in ab])
    return _value_prefactor(pair) * abs(minor)


def multiplicity_one_check(mu: HCParam, pair: DualPair) -> bool:
    """|T(0)| = 2 vol(U_l) dim Pi' computed three ways.

    The closed form (the ``dim_partner`` bracket), the minor of derivative
    values at 0 and 2 vol(U_l) dim Pi' with dim Pi' from Weyl's formula on
    the partner must agree exactly as symbolic scalars.
    """
    if not occurs_G(mu, pair):
        raise ValueError("parameter does not occur")
    closed = value_at_zero_closed(mu, pair)
    oracle = value_at_zero_oracle(mu, pair)
    target = abs(SymScalar(2) * vol_unitary(pair.l) * dim_weyl(correspond(mu, pair)))
    return closed == oracle == target


# ---------------------------------------------------------------------------
# Numeric evaluation on the full matrix space
# ---------------------------------------------------------------------------


def eigvalsh_jacobi(h) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix by cyclic Jacobi rotations.

    Returns the eigenvalues in decreasing order.  This is the independent
    reference the LAPACK path of ``eval_distribution`` is tested against;
    raises RuntimeError if the off-diagonal mass does not fall below
    1e-12 (relative) within 100 sweeps.
    """
    import numpy as np

    a = np.array(h, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    if n == 1:
        return np.array([a[0, 0].real])
    scale = max(1.0, float(np.linalg.norm(a)))
    for _ in range(100):
        off = np.sqrt(sum(abs(a[p, q]) ** 2 for p in range(n) for q in range(n) if p != q))
        if off <= 1e-12 * scale:
            return np.sort(np.diag(a).real)[::-1]
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                phase = apq / abs(apq)
                tau = (a[q, q].real - a[p, p].real) / (2.0 * abs(apq))
                if tau >= 0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                g = np.eye(n, dtype=complex)
                g[p, p] = c
                g[q, q] = c
                g[p, q] = s * phase
                g[q, p] = -s * np.conj(phase)
                a = g.conj().T @ a @ g
    raise RuntimeError("Jacobi eigenvalue iteration did not converge")


def eval_distribution(data: DistributionData, pair: DualPair, w) -> float:
    """Numeric value of given distribution data at a point of the matrix space.

    ``w`` is an l x l' complex matrix; the eigenvalues y_j >= 0 of
    w w^dagger give z_j = 2*pi*y_j and the value is
    |prefactor| * exp(-sum z_j) * poly(z).  Raises ValueError when w w^dagger
    or the value is not finite.
    """
    import numpy as np

    w = np.asarray(w, dtype=complex)
    if w.shape != (pair.l, pair.lp):
        raise ValueError(f"matrix must be {pair.l} x {pair.lp}, got {w.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        m = w @ w.conj().T
    if not np.isfinite(m).all():
        raise ValueError("w w^dagger is not finite")
    if data.is_zero():
        return 0.0
    with np.errstate(over="ignore"):
        z = 2.0 * pi * np.clip(np.linalg.eigvalsh(m)[::-1], 0.0, None)
    try:
        value = data.modulus * exp(-float(z.sum())) * data.poly.eval_float(z)
    except (OverflowError, ValueError):  # the terms or their sum overflow
        value = float("inf")
    if not isfinite(value):
        raise ValueError("the value at w is not finite (w is too large)")
    return value


def eval_on_W(mu: HCParam, pair: DualPair, w) -> float:
    """Numeric value of the first-member distribution at an l x l' matrix."""
    if not occurs_G(mu, pair):
        raise ValueError("parameter does not occur")
    return eval_distribution(distribution_G(mu, pair), pair, w)
