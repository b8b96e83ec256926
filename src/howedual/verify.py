"""Independent numeric and combinatorial oracles.

Everything downstream of the symbolic constants depends on a handful of
matrix integrals (volumes of unitary groups through the Cayley transform,
a Cauchy-ensemble integral, a Gaussian-Vandermonde moment) and two
determinant identities.  This module checks each one by brute force:
quadrature or Monte Carlo on the analytic side, exact rational arithmetic
on the combinatorial side.

Randomness is counter-based (Philox): a draw depends only on
(seed, counter), so sharded, threaded and sequential runs produce
bit-identical estimates; per-block partial sums are reduced with ``math.fsum``, which is
exactly rounded and hence order-independent.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import factorial, fsum, pi

import numpy as np

from .exact import SymScalar, det, rising
from .intertwine import DualPair, constants, distribution_G, eval_distribution, perm_sign
from .reps import HCParam, occurs_G

__all__ = [
    "RngStream",
    "McReport",
    "CAYLEY_JACOBIAN_EXPONENT",
    "haar_unitary",
    "cayley_volume_check",
    "forrester_warnaar_check",
    "gaussian_vandermonde",
    "gaussian_vandermonde_exact",
    "gaussian_vandermonde_double_sum",
    "vandermonde_identity",
    "dan_determinant",
    "cayley_invariance_check",
    "distribution_invariance",
    "cw_identity_check",
    "run_suite",
]

# Exponent r in the Cayley-transform Jacobian |det((y-1)(x+y)^-1)|^(2r) for
# the three families of compact classical groups, stored as r(n) = n + offset.
# Only the unitary family has an executable path here.
CAYLEY_JACOBIAN_EXPONENT = {
    "O_n": Fraction(-1),
    "U_n": Fraction(0),
    "Sp_n": Fraction(1, 2),
}

_BLOCK = 1 << 17
# rows per chunk inside a block: bounds the working set of a block in flight
_CHUNK = 8192


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream: (seed, counter) pins every draw."""

    seed: int
    counter: int = 0

    def generator(self) -> np.random.Generator:
        bg = np.random.Philox(key=self.seed)
        if self.counter:
            bg.advance(self.counter)
        return np.random.Generator(bg)

    def shard(self, index: int, stride: int = 1 << 40) -> "RngStream":
        return RngStream(self.seed, self.counter + index * stride)


@dataclass(frozen=True)
class McReport:
    """Outcome of one numeric check against a known target."""

    estimate: float
    target: float
    rel_error: float
    samples: int
    seed: int

    @classmethod
    def build(cls, estimate: float, target: float, samples: int, seed: int) -> "McReport":
        return cls(estimate, target, abs(estimate - target) / abs(target), samples, seed)

    def to_json(self) -> dict:
        return {
            "estimate": self.estimate,
            "target": self.target,
            "rel_error": self.rel_error,
            "samples": self.samples,
            "seed": self.seed,
        }


def block_layout(samples: int, block: int = _BLOCK) -> list[tuple[int, int]]:
    """The (index, size) blocks a sample budget is split into."""
    out = []
    done = 0
    i = 0
    while done < samples:
        m = min(block, samples - done)
        out.append((i, m))
        done += m
        i += 1
    return out


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def blocked_sums(rng: RngStream, samples: int, partial_sum, block: int = _BLOCK) -> list[float]:
    """Per-block partial sums of ``samples`` draws, in block order.

    ``partial_sum(generator, m)`` must return the sum of m draws.  Block i
    uses the generator of ``rng.shard(i)``, so each block depends only on
    (seed, block index): workers may split the blocks arbitrarily and merge
    by concatenating their lists.  Blocks run on a thread pool of up to one
    thread per available CPU, so ``partial_sum`` must be thread-safe: no
    shared mutable state, and no randomness but the generator it is given.
    The list does not depend on the number of threads.
    """
    from concurrent.futures import ThreadPoolExecutor  # local: ~8 ms on every CLI start

    def block_sum(index_size: tuple[int, int]) -> float:
        i, m = index_size
        return partial_sum(rng.shard(i).generator(), m)

    layout = block_layout(samples, block)
    with ThreadPoolExecutor(max_workers=max(1, min(_available_cpus(), len(layout)))) as pool:
        return list(pool.map(block_sum, layout))


def blocked_mean(rng: RngStream, samples: int, partial_sum, block: int = _BLOCK) -> float:
    """Mean over blocked draws; ``fsum`` of the block sums is exactly
    rounded, so the result is independent of the merge order."""
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    return fsum(blocked_sums(rng, samples, partial_sum, block)) / samples


def haar_unitary(n: int, rng: RngStream, count: int | None = None) -> np.ndarray:
    """Haar-distributed unitaries via complex-Gaussian QR with phase fix.

    Returns an (n, n) matrix, or a stack of shape (count, n, n).
    """
    return _haar(rng.generator(), n, count)


def _haar(g: np.random.Generator, n: int, count: int | None = None) -> np.ndarray:
    """The body of ``haar_unitary``, drawing from a generator the caller holds."""
    if n < 1:
        raise ValueError("n must be positive")
    shape = (n, n) if count is None else (count, n, n)
    z = (g.standard_normal(shape) + 1j * g.standard_normal(shape)) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


# ---------------------------------------------------------------------------
# Cayley volume: integral of 2^(n^2) ch^(-2n) over the Lie algebra = vol(U_n)
# ---------------------------------------------------------------------------


def _gauss_legendre(npts: int, lo: float, hi: float):
    x, w = np.polynomial.legendre.leggauss(npts)
    mid, rad = (hi + lo) / 2.0, (hi - lo) / 2.0
    return mid + rad * x, rad * w


def cayley_volume_check(n: int, samples: int, rng: RngStream) -> McReport:
    """Check integral of 2^(n^2) ch^(-2n)(x) dx over u_n against vol(U_n).

    n = 1 is a one-dimensional tan-substituted quadrature.  For n = 2 the
    tan substitution is applied spectrally: writing the integration
    variable as tan(H) with H Hermitian and ||H|| < pi/2 turns the domain
    compact, and the divided-difference Jacobian of the matrix tangent
    cancels the heavy tails, leaving the bounded integrand
    16 sin^2(gap)/gap^2 (gap = eigenvalue gap of H).  Plain Monte Carlo on
    the bounding box of the spectral ball then has weights bounded by
    2^(n^2) vol(box).
    """
    if n == 1:
        theta, w = _gauss_legendre(201, -pi / 2, pi / 2)
        y = np.tan(theta)
        vals = 2.0 / (1.0 + y**2) / np.cos(theta) ** 2
        est = float(np.sum(vals * w))
        return McReport.build(est, 2 * pi, 201, rng.seed)
    if n != 2:
        raise ValueError("cayley_volume_check supports n in {1, 2}")

    # box bounds for (h11, h22, offdiag coords): eigenvalues in (-pi/2, pi/2)
    # force |h_jj| < pi/2 and h3^2 + h4^2 < pi^2/2
    box_volume = pi**2 * (2.0 * pi / np.sqrt(2.0)) ** 2

    def part(g: np.random.Generator, m: int) -> float:
        # all h12 draws precede all h34 draws in the stream; h34 and the
        # integrand go chunk by chunk, and one np.sum over the block keeps
        # the rounding of the one-shot sum
        h12 = g.uniform(-pi / 2, pi / 2, size=(m, 2))
        vals = np.empty(m)
        for s in range(0, m, _CHUNK):
            e = min(s + _CHUNK, m)
            h34 = g.uniform(-pi / np.sqrt(2.0), pi / np.sqrt(2.0), size=(e - s, 2))
            a, b = h12[s:e, 0], h12[s:e, 1]
            mean = (a + b) / 2.0
            half_gap = np.sqrt(((a - b) / 2.0) ** 2 + (h34[:, 0] ** 2 + h34[:, 1] ** 2) / 2.0)
            inside = (np.abs(mean) + half_gap) < pi / 2
            gap = 2.0 * half_gap
            vals[s:e] = np.where(inside, 16.0 * np.sinc(gap / pi) ** 2, 0.0)
        return float(np.sum(vals) * box_volume)

    est = blocked_mean(rng, samples, part)
    return McReport.build(est, 8 * pi**3, samples, rng.seed)


def forrester_warnaar_check(n: int) -> McReport:
    """Cauchy-ensemble integral: int prod (1+y_j^2)^-n prod (y_j-y_k)^2 dy
    = (2 pi)^n 2^(-n^2) n!, checked by tan-substituted quadrature."""
    if n == 1:
        theta, w = _gauss_legendre(101, -pi / 2, pi / 2)
        est = float(np.sum(w))  # integrand is identically 1 after substitution
        return McReport.build(est, pi, 101, 0)
    if n != 2:
        raise ValueError("forrester_warnaar_check supports n in {1, 2}")
    theta, w = _gauss_legendre(64, -pi / 2, pi / 2)
    # after y_j = tan(theta_j) the integrand collapses to sin^2(theta_1 - theta_2)
    t1 = theta[:, None]
    t2 = theta[None, :]
    vals = np.sin(t1 - t2) ** 2
    est = float(w @ vals @ w)
    return McReport.build(est, pi**2 / 2, 64 * 64, 0)


# ---------------------------------------------------------------------------
# Gaussian-Vandermonde moment
# ---------------------------------------------------------------------------


def gaussian_vandermonde_exact(l: int, c: int) -> int:
    """l! * det[(k + j + c - 2)!]_{j,k=1..l}, by exact determinant."""
    return int(factorial(l) * det([[factorial(j + k + c) for k in range(l)] for j in range(l)]))


def gaussian_vandermonde_double_sum(l: int, c: int) -> int:
    """The same moment by the factorial double sum over permutation pairs."""
    out = 0
    for s in permutations(range(l)):
        for t in permutations(range(l)):
            term = perm_sign(s) * perm_sign(t)
            for j in range(l):
                term *= factorial(s[j] + t[j] + c)
            out += term
    return out


def gaussian_vandermonde(
    l: int, c: int, rng: RngStream | None = None, samples: int = 8_000_000
) -> tuple[int, McReport]:
    """int_{(R+)^l} prod_{j<k}(y_j-y_k)^2 prod_j y_j^c e^(-sum y) dy.

    Exact value by the determinant reduction (cross-checked against the
    double sum); numeric value by Monte Carlo with Gamma(c+1, 1) proposals
    per coordinate, which absorb the y^c factor and keep the weight
    variance finite.
    """
    if l > 4:
        raise ValueError("exact determinant path is sized for l <= 4")
    if c < 0:
        raise ValueError("c must be nonnegative")
    exact = gaussian_vandermonde_exact(l, c)
    assert exact == gaussian_vandermonde_double_sum(l, c)
    if rng is None:
        rng = RngStream(0)
    gamma_norm = float(factorial(c)) ** l

    def part(g: np.random.Generator, m: int) -> float:
        # draws chunk by chunk (numpy fills sequentially, so the stream is
        # the one-shot one); one np.sum over the block keeps its rounding
        v = np.ones(m)
        for s in range(0, m, _CHUNK):
            e = min(s + _CHUNK, m)
            y = g.gamma(shape=c + 1, scale=1.0, size=(e - s, l))
            for j in range(l):
                for k in range(j + 1, l):
                    v[s:e] *= (y[:, j] - y[:, k]) ** 2
        return float(np.sum(v) * gamma_norm)

    est = blocked_mean(rng, samples, part)
    return exact, McReport.build(est, float(exact), samples, rng.seed)


# ---------------------------------------------------------------------------
# Determinant identities
# ---------------------------------------------------------------------------


def vandermonde_identity(zs) -> tuple[Fraction, Fraction]:
    """lhs = sum_s sgn(s) prod_j prod_{k<s(j)} (z_j - k); rhs = prod_{j<k}(z_j - z_k).

    The two sides agree up to the global sign (-1)^(m(m-1)/2):
    lhs = (-1)^(m(m-1)/2) * rhs, so in particular |lhs| = |rhs|.
    """
    z = [Fraction(v) for v in zs]
    m = len(z)
    # prod_{k<=i} (z_j - k) = rising(z_j - i, i)
    lhs = det([[rising(z[j] - i, i) for i in range(m)] for j in range(m)])
    rhs = Fraction(1)
    for j in range(m):
        for k in range(j + 1, m):
            rhs *= z[j] - z[k]
    return lhs, rhs


def dan_determinant(a, n: int) -> Fraction:
    """det of the rising-factorial matrix [rising(a+j-1, k-1)]_{j,k=1..n}.

    Equals prod_{k=1}^{n-1} k! for every a, so it is independent of a.
    """
    if n < 2:
        raise ValueError("needs n >= 2")
    a = Fraction(a)
    return det([[rising(a + j, k) for k in range(n)] for j in range(n)])


# ---------------------------------------------------------------------------
# Cayley transform identities on u_n (unitary case, r = n)
# ---------------------------------------------------------------------------


def _cayley(x: np.ndarray) -> np.ndarray:
    n = x.shape[0]
    return (x + np.eye(n)) @ np.linalg.inv(x - np.eye(n))


def cayley_invariance_check(n: int, rng: RngStream, pairs: int = 50) -> dict[str, float]:
    """Residuals of the Cayley-transform identities on u_n over random pairs.

    Checks c(c(x)) = x, c(-x) = c(x)^(-1), and the Haar-measure identity
    ch^(-2r)(c(c(x)c(y))) * j_y(x) = ch^(-2r)(x) with r = n and
    j_y(x) = |det((y-1)(x+y)^(-1))|^(2r); returns the max residual of each.
    """
    if n > 3:
        raise ValueError("sized for n <= 3")
    g = rng.generator()
    eye = np.eye(n)
    res_identity = 0.0
    res_involution = 0.0
    res_inverse = 0.0
    r = n
    for _ in range(pairs):
        a = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
        b = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
        x = (a - a.conj().T) / 2.0
        y = (b - b.conj().T) / 2.0
        # skew-hermitian matrices have imaginary spectrum, so x - 1 is invertible
        cx = _cayley(x)
        cy = _cayley(y)
        res_involution = max(res_involution, float(np.max(np.abs(_cayley(cx) - x))))
        res_inverse = max(
            res_inverse, float(np.max(np.abs(_cayley(-x) - np.linalg.inv(cx))))
        )
        z = _cayley(cx @ cy)
        ch_z = abs(np.linalg.det(eye - z))
        ch_x = abs(np.linalg.det(eye - x))
        jac = abs(np.linalg.det((y - eye) @ np.linalg.inv(x + y))) ** (2 * r)
        lhs = ch_z ** (-2 * r) * jac
        rhs = ch_x ** (-2 * r)
        res_identity = max(res_identity, abs(lhs - rhs) / abs(rhs))
    return {
        "identity": res_identity,
        "involution": res_involution,
        "inverse": res_inverse,
    }


# ---------------------------------------------------------------------------
# Invariance of the distributions and the integration-formula identity
# ---------------------------------------------------------------------------


def distribution_invariance(
    mu: HCParam, pair: DualPair, trials: int, rng: RngStream
) -> float:
    """Max relative deviation of the distribution under w -> g w g'^(-1)."""
    if not occurs_G(mu, pair):
        raise ValueError("parameter does not occur")
    data = distribution_G(mu, pair)
    g = rng.generator()
    worst = 0.0
    for _ in range(trials):
        w = (
            g.standard_normal((pair.l, pair.lp))
            + 1j * g.standard_normal((pair.l, pair.lp))
        ) / np.sqrt(2.0)
        u = _haar(g, pair.l)
        v = _haar(g, pair.lp)
        base = eval_distribution(data, pair, w)
        moved = eval_distribution(data, pair, u @ w @ np.linalg.inv(v))
        worst = max(worst, abs(moved - base) / abs(base))
    return worst


def cw_identity_check(pair: DualPair) -> bool:
    """Gaussian plug-in check of the integration formula on the matrix space.

    Both sides are exact symbolic scalars: the Gaussian integral over W is
    (4 pi)^(l l'), and the slice side is C_W vol(U_l) vol(U_l') /
    (vol(S^h1) l!) times the Gaussian-Vandermonde moment.  Compared in
    modulus (the phase factor C_h1 has modulus one).
    """
    pair.require_ordered()
    l, lp = pair.l, pair.lp
    lhs = SymScalar(Fraction(1), 4 * l * lp, l * lp)
    cons = constants(pair)
    moment = gaussian_vandermonde_exact(l, lp - l)
    rhs = (
        cons["C_W"]
        * cons["vol_G"]
        * cons["vol_Gprime"]
        / cons["vol_S_h1"]
        * Fraction(moment, factorial(l))
    )
    return abs(lhs) == abs(rhs)


# ---------------------------------------------------------------------------
# Suite runner
# ---------------------------------------------------------------------------

SUITES = (
    "cayley_volume",
    "forrester_warnaar",
    "gaussian_vandermonde",
    "vandermonde_identity",
    "dan_determinant",
    "cayley_invariance",
    "cw_identity",
    "distribution_invariance",
)


def _random_fraction(g: np.random.Generator) -> Fraction:
    return Fraction(int(g.integers(-24, 25)), int(g.integers(1, 13)))


def run_suite(names, seed: int, samples: int) -> dict:
    """Run the requested verification suites and collect a JSON-able summary."""
    wanted = list(SUITES) if "all" in names else list(names)
    unknown = [n for n in wanted if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s): {', '.join(unknown)}")
    checks = []

    def add(name: str, ok: bool, detail: dict):
        checks.append({"name": name, "pass": bool(ok), **detail})

    for name in wanted:
        if name == "cayley_volume":
            r1 = cayley_volume_check(1, samples, RngStream(seed))
            add("cayley_volume_n1", r1.rel_error < 1e-6, r1.to_json())
            r2 = cayley_volume_check(2, samples, RngStream(seed).shard(1 << 20))
            add("cayley_volume_n2", r2.rel_error < 0.02, r2.to_json())
        elif name == "forrester_warnaar":
            r1 = forrester_warnaar_check(1)
            add("forrester_warnaar_n1", r1.rel_error < 1e-12, r1.to_json())
            r2 = forrester_warnaar_check(2)
            add("forrester_warnaar_n2", r2.rel_error < 1e-4, r2.to_json())
        elif name == "gaussian_vandermonde":
            # the weight variance grows quickly with l (worst case l=3, c=0
            # has per-sample relative std near 19), so scale the budget
            budget = {1: 1, 2: 4, 3: 40}
            for l in (1, 2, 3):
                for c in (0, 1, 2, 3):
                    _, rep = gaussian_vandermonde(
                        l, c, RngStream(seed).shard(100 + 10 * l + c), samples * budget[l]
                    )
                    add(f"gaussian_vandermonde_l{l}_c{c}", rep.rel_error < 0.01, rep.to_json())
        elif name == "vandermonde_identity":
            g = RngStream(seed).shard(2).generator()
            ok = True
            for m in range(1, 6):
                for _ in range(100):
                    z = [_random_fraction(g) for _ in range(m)]
                    lhs, rhs = vandermonde_identity(z)
                    ok = ok and lhs == (-1) ** (m * (m - 1) // 2) * rhs
            add("vandermonde_identity", ok, {"cases": 500, "seed": seed})
        elif name == "dan_determinant":
            g = RngStream(seed).shard(3).generator()
            ok = True
            for n in range(2, 7):
                expect = 1
                for k in range(1, n):
                    expect *= factorial(k)
                for _ in range(20):
                    ok = ok and dan_determinant(_random_fraction(g), n) == expect
            add("dan_determinant", ok, {"cases": 100, "seed": seed})
        elif name == "cayley_invariance":
            for ncase in (1, 2, 3):
                res = cayley_invariance_check(ncase, RngStream(seed).shard(4 + ncase))
                ok = (
                    res["identity"] < 1e-10
                    and res["involution"] < 1e-12
                    and res["inverse"] < 1e-12
                )
                add(f"cayley_invariance_n{ncase}", ok, {**res, "pairs": 50, "seed": seed})
        elif name == "cw_identity":
            for l, lp in ((1, 1), (1, 2), (2, 2)):
                add(f"cw_identity_{l}_{lp}", cw_identity_check(DualPair(l, lp)), {})
        elif name == "distribution_invariance":
            cases = [
                (HCParam([2]), DualPair(1, 2)),
                (HCParam(["3/2", "1/2"]), DualPair(2, 2)),
            ]
            for i, (mu, pr) in enumerate(cases):
                dev = distribution_invariance(mu, pr, 100, RngStream(seed).shard(8 + i))
                add(
                    f"distribution_invariance_{pr.l}_{pr.lp}",
                    dev < 1e-9,
                    {"max_rel_deviation": dev, "trials": 100, "seed": seed},
                )
    return {"checks": checks, "pass": all(c["pass"] for c in checks), "seed": seed}
