from fractions import Fraction
from itertools import combinations

from howedual import DualPair, HCParam, MultiPoly, delta_of


def derivative(p: MultiPoly) -> MultiPoly:
    """d/dxi of a one-variable polynomial."""
    return MultiPoly(1, {(d - 1,): d * c for (d,), c in p.terms.items() if d})


def permuted(p: MultiPoly, perm) -> MultiPoly:
    """Relabel variables: variable i becomes variable perm[i]."""
    terms = {}
    for e, c in p.terms.items():
        f = [0] * p.nvars
        for i, d in enumerate(e):
            f[perm[i]] = d
        terms[tuple(f)] = c
    return MultiPoly(p.nvars, terms)


def is_symmetric(p: MultiPoly) -> bool:
    """Invariance under every transposition of adjacent variables."""
    for i in range(p.nvars - 1):
        perm = list(range(p.nvars))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        if permuted(p, perm) != p:
            return False
    return True


def value_at(p: MultiPoly, x: Fraction) -> Fraction:
    """Exact value of a one-variable polynomial at a rational point."""
    return sum((c * x**d for (d,), c in p.terms.items()), Fraction(0))


def occurring_params(pair: DualPair, max_doubled: int = 13) -> list[HCParam]:
    """All occurring parameters with entries bounded by max_doubled/2.

    Occurrence forces entries into delta + Z_{>=0}, so the candidates are
    the strictly decreasing tuples drawn from that lattice slice.
    """
    d = delta_of(pair)
    vals = []
    v = d
    while v.doubled <= max_doubled:
        vals.append(v)
        v = v + 1
    return [
        HCParam(combo)
        for combo in combinations(sorted(vals, reverse=True), pair.l)
    ]


def all_pairs(max_l: int = 3, max_lp: int = 5) -> list[DualPair]:
    return [
        DualPair(l, lp) for l in range(1, max_l + 1) for lp in range(l, max_lp + 1)
    ]
