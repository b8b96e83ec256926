"""Independent numeric and combinatorial oracles.

Everything downstream of the symbolic constants depends on a handful of
matrix integrals (volumes of unitary groups through the Cayley transform,
a Cauchy-ensemble integral, a Gaussian-Vandermonde moment) and two
determinant identities.  This module checks each one by brute force:
quadrature or Monte Carlo on the analytic side, exact rational arithmetic
on the combinatorial side.

Randomness is keyed: a draw depends only on (seed, stream path, block
index).  Each (seed, counter) pair keys its own SFC64 stream through
numpy's ``SeedSequence``, and ``RngStream.shard`` nests, so the blocks of
one check never share a key with the blocks of another, and sharded,
threaded and sequential runs produce bit-identical estimates.
``blocked_sums`` is the one place that lays draws out in blocks and
chunks; per-block sums are reduced with ``math.fsum``, which is exactly
rounded and hence order-independent.  Each numpy call on a chunk releases
and retakes the GIL, so the cost of a sample is mostly the number of calls
per chunk: chunks are as large as the L2 cache allows, and the
Gaussian-Vandermonde kernel draws and evaluates in as few calls as its
exact arithmetic allows.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial, fsum, pi, prod

import numpy as np

from .exact import MultiPoly, SymScalar, det, rising, superfactorial
from .intertwine import constants, distribution_G, eval_distribution, perm_sign
from .reps import DualPair, HCParam, occurs_G

__all__ = [
    "RngStream",
    "McReport",
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
    "MAX_SAMPLES",
    "check_suite_names",
    "run_suite",
]

_BLOCK = 1 << 17
# counter distance between shards: the counters of nested shards never meet
_SHARD_STRIDE = 1 << 40
# rows per chunk inside a block (read only by ``blocked_sums``).  Every numpy
# call on a chunk releases and retakes the GIL, so with one block per CPU a
# smaller chunk spends its time in handoffs between the pool threads; a
# larger one outgrows the L2 cache: the widest draw, 32768 rows of c + 1 = 4
# uniforms, is 1 MiB
_CHUNK = 32768


@dataclass(frozen=True)
class RngStream:
    """Keyed random stream: (seed, counter) pins every draw."""

    seed: int
    counter: int = 0

    def generator(self) -> np.random.Generator:
        """A fresh SFC64 generator keyed by (seed, counter)."""
        key = np.random.SeedSequence(self.seed, spawn_key=(self.counter,))
        return np.random.Generator(np.random.SFC64(key))

    def shard(self, index: int) -> "RngStream":
        """Substream ``index`` (0 <= index < _SHARD_STRIDE).

        Scaling the sum of counter and index makes shards nest: the shards
        of two different streams start at different multiples of the stride
        and stay a stride apart, at any depth.
        """
        return RngStream(self.seed, (self.counter + index) * _SHARD_STRIDE)


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
        return asdict(self)


def block_layout(samples: int) -> list[tuple[int, int]]:
    """The (index, size) blocks a sample budget is split into."""
    out = []
    done = 0
    i = 0
    while done < samples:
        m = min(_BLOCK, samples - done)
        out.append((i, m))
        done += m
        i += 1
    return out


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def blocked_sums(rng: RngStream, samples: int, values) -> list[float]:
    """Per-block sums of the integrand at ``samples`` draws, in block order.

    ``values(generator, m)`` must return the integrand at m draws taken
    from the generator in one go, as an array of length m.  Block i uses
    the generator of ``rng.shard(i)``, fills its values ``_CHUNK`` rows at
    a time and sums them once with ``np.sum``; numpy fills draws in order,
    so a chunked block equals a one-shot block.  Each block depends only on
    (seed, stream path, block index): workers may split the blocks
    arbitrarily and merge by concatenating their lists.  Blocks run on a
    thread pool of up to one thread per available CPU, so ``values`` must
    be thread-safe: no shared mutable state, and no randomness but the
    generator it is given.  The list does not depend on the number of
    threads.
    """
    from concurrent.futures import ThreadPoolExecutor  # local: ~8 ms on every CLI start

    def block_sum(index_size: tuple[int, int]) -> float:
        i, m = index_size
        g = rng.shard(i).generator()
        vals = np.empty(m)
        for s in range(0, m, _CHUNK):
            e = min(s + _CHUNK, m)
            vals[s:e] = values(g, e - s)
        return float(np.sum(vals))

    layout = block_layout(samples)
    with ThreadPoolExecutor(max_workers=max(1, min(_available_cpus(), len(layout)))) as pool:
        return list(pool.map(block_sum, layout))


def blocked_mean(rng: RngStream, samples: int, values) -> float:
    """Mean of the integrand over blocked draws; ``fsum`` of the block sums
    is exactly rounded, so the result is independent of the merge order."""
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    return fsum(blocked_sums(rng, samples, values)) / samples


def _haar(g: np.random.Generator, n: int, count: int | None = None) -> np.ndarray:
    """Haar-distributed unitaries via complex-Gaussian QR with phase fix.

    Returns an (n, n) matrix, or a stack of shape (count, n, n), drawn from
    a generator the caller holds.
    """
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

    # the box: |h_jj| < pi/2 and h3^2 + h4^2 < pi^2/2 hold on the spectral
    # ball; with (h11, h22, h3, h4) = pi (u1, u2, sqrt(2) u3, sqrt(2) u4) and
    # u uniform on [-1/2, 1/2)^4 it has volume 2 pi^4
    box_volume = 2.0 * pi**4

    def values(g: np.random.Generator, m: int) -> np.ndarray:
        u = g.random((m, 4)) - 0.5
        # mean and half gap of the eigenvalues of H, in units of pi
        mean = (u[:, 0] + u[:, 1]) / 2.0
        half_gap = np.sqrt(((u[:, 0] - u[:, 1]) / 2.0) ** 2 + u[:, 2] ** 2 + u[:, 3] ** 2)
        inside = (np.abs(mean) + half_gap) < 0.5
        return np.where(inside, 16.0 * np.sinc(2.0 * half_gap) ** 2, 0.0)

    est = blocked_mean(rng, samples, values) * box_volume
    return McReport.build(est, 8 * pi**3, samples, rng.seed)


def forrester_warnaar_check(n: int) -> McReport:
    """Cauchy-ensemble integral: int prod (1+y_j^2)^-n prod (y_j-y_k)^2 dy
    = (2 pi)^n 2^(-n^2) n!, checked by tan-substituted quadrature.

    After y_j = tan(theta_j) the n = 1 integrand is identically 1, so n = 1
    checks only that the 101 Gauss-Legendre weights sum to pi.  At n = 2 the
    integrand is sin^2(theta_1 - theta_2), a trigonometric polynomial of
    degree 2, which the 64-node rule integrates exactly up to rounding.
    """
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


def _vandermonde_given_one(l: int, c: int) -> list[int]:
    """Coefficients q_0..q_{2l-2} of q(y) = E[prod_{j<k}(y_j - y_k)^2 | y_1 = y].

    y_2..y_l are iid Gamma(c+1): the squared Vandermonde is expanded
    exactly in l variables and each power Y^k of y_2..y_l is replaced by
    E[Y^k] = (c+1)_k.  Its coefficients are integers, so its ``nums`` are
    its coefficients.
    """
    xs = [MultiPoly(l, {tuple(int(i == j) for i in range(l)): 1}) for j in range(l)]
    v = MultiPoly(l, {(0,) * l: 1})
    for a, b in combinations(xs, 2):
        v = v * (a - b) * (a - b)
    q = [0] * (2 * l - 1)
    for e, n in v.nums.items():
        q[e[0]] += n * prod(rising(c + 1, k) for k in e[1:])
    return q


def _log_uniform_product(g: np.random.Generator, c: int, m: int) -> np.ndarray:
    """m values t = log prod_{i<=c} (1 - U_i) of rows of c+1 uniforms: -t is
    a Gamma(c+1, 1) draw.

    The sum of c+1 Exp(1) variables is Gamma(c+1) (Devroye, Non-Uniform
    Random Variate Generation, 1986, IX.3).  The uniforms come as one
    (m, c+1) block, row by row, so m draws taken in pieces are the draws
    taken at once.  The sign is left to the caller (``_horner`` takes the
    coefficients of q(-t)), so no pass negates the draw.
    """
    u = g.random((m, c + 1))
    np.subtract(1.0, u, out=u)  # in (0, 1]: the log stays finite
    if c == 0:
        return np.log(u[:, 0])
    # column by column, left to right: the order of a row product, at a
    # fraction of the cost of reducing rows of length c+1
    t = np.multiply(u[:, 0], u[:, 1])
    for i in range(2, c + 1):
        t *= u[:, i]
    return np.log(t, out=t)


def _horner(q: list[float], t: np.ndarray) -> np.ndarray:
    """sum_k q[k] t^k row by row, by Horner in place on one output array.

    The first step, q[-1] t + q[-2], starts the output from ``t * q[-1]``,
    so a chunk of degree d costs 2d numpy calls.  Negation is exact: with
    q[k] replaced by (-1)^k q[k], the result at t is bit for bit the
    result at -t.
    """
    if len(q) == 1:
        return np.full(t.shape, q[0])
    out = t * q[-1]
    out += q[-2]
    for a in reversed(q[:-2]):
        out *= t
        out += a
    return out


def gaussian_vandermonde(l: int, c: int, rng: RngStream, samples: int) -> tuple[int, McReport]:
    """int_{(R+)^l} prod_{j<k}(y_j-y_k)^2 prod_j y_j^c e^(-sum y) dy.

    Exact value by the determinant reduction (the tests cross-check it
    against the double sum).  Numeric value by conditional Monte Carlo:
    the Gamma(c+1, 1) coordinates absorb their y^c factors, a sample draws
    one of them, y = -t, from c+1 uniforms (``_log_uniform_product``), and
    the other l - 1 are integrated out exactly: the sample's value is q(y),
    the polynomial of ``_vandermonde_given_one``, evaluated as the
    polynomial with coefficients (-1)^k q_k at t.
    The mean is unchanged and the per-sample variance is at most that of
    integrating out only one coordinate (relative std 6.33 instead of 11.09
    at (l, c) = (3, 0)); at l = 1, q = 1, nothing is drawn and the
    estimate is exact.
    """
    if l > 4:
        raise ValueError("exact determinant path is sized for l <= 4")
    if c < 0:
        raise ValueError("c must be nonnegative")
    exact = gaussian_vandermonde_exact(l, c)
    # the coefficients of q(-t): t = -y is what ``_log_uniform_product`` draws
    q_neg = [float(-a if k % 2 else a) for k, a in enumerate(_vandermonde_given_one(l, c))]

    def values(g: np.random.Generator, m: int) -> np.ndarray:
        if l == 1:
            return np.ones(m)
        # one row of uniforms per sample, so a chunked block draws what a one-shot block does
        return _horner(q_neg, _log_uniform_product(g, c, m))

    est = blocked_mean(rng, samples, values) * float(factorial(c)) ** l
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


# random pairs of ``cayley_invariance_check`` and trials of ``distribution_invariance``
_CAYLEY_PAIRS = 50
_INVARIANCE_TRIALS = 100


def cayley_invariance_check(n: int, rng: RngStream) -> dict[str, float]:
    """Residuals of the Cayley-transform identities on u_n over _CAYLEY_PAIRS random pairs.

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
    for _ in range(_CAYLEY_PAIRS):
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


def distribution_invariance(mu: HCParam, pair: DualPair, rng: RngStream) -> float:
    """Max relative deviation of the distribution under w -> g w g'^(-1),
    over _INVARIANCE_TRIALS random w, g and g'."""
    if not occurs_G(mu, pair):
        raise ValueError("parameter does not occur")
    data = distribution_G(mu, pair)
    g = rng.generator()
    worst = 0.0
    for _ in range(_INVARIANCE_TRIALS):
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

# the CLI's bound on --samples: 1,000 times its default, about 45 minutes of every suite on 2 CPUs
MAX_SAMPLES = 10**9

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


def check_suite_names(names) -> None:
    """Raise ValueError unless every name is 'all' or one of ``SUITES``."""
    unknown = [n for n in names if n != "all" and n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s): {', '.join(map(repr, unknown))}")


def run_suite(names, seed: int, samples: int) -> dict:
    """Run the requested verification suites and collect a JSON-able summary."""
    check_suite_names(names)
    wanted = list(SUITES) if "all" in names else list(names)
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
            add("forrester_warnaar_n2", r2.rel_error < 1e-12, r2.to_json())
        elif name == "gaussian_vandermonde":
            # the weight variance grows quickly with l (worst case l=3, c=0
            # has per-sample relative std 6.3 with all but one coordinate
            # integrated out), so scale the budget
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
                for _ in range(20):
                    ok = ok and dan_determinant(_random_fraction(g), n) == superfactorial(n)
            add("dan_determinant", ok, {"cases": 100, "seed": seed})
        elif name == "cayley_invariance":
            for ncase in (1, 2, 3):
                res = cayley_invariance_check(ncase, RngStream(seed).shard(4 + ncase))
                ok = (
                    res["identity"] < 1e-10
                    and res["involution"] < 1e-12
                    and res["inverse"] < 1e-12
                )
                add(f"cayley_invariance_n{ncase}", ok, {**res, "pairs": _CAYLEY_PAIRS, "seed": seed})
        elif name == "cw_identity":
            for l, lp in ((1, 1), (1, 2), (2, 2)):
                add(f"cw_identity_{l}_{lp}", cw_identity_check(DualPair(l, lp)), {})
        elif name == "distribution_invariance":
            cases = [
                (HCParam([2]), DualPair(1, 2)),
                (HCParam(["3/2", "1/2"]), DualPair(2, 2)),
            ]
            for i, (mu, pr) in enumerate(cases):
                dev = distribution_invariance(mu, pr, RngStream(seed).shard(8 + i))
                add(
                    f"distribution_invariance_{pr.l}_{pr.lp}",
                    dev < 1e-9,
                    {"max_rel_deviation": dev, "trials": _INVARIANCE_TRIALS, "seed": seed},
                )
    return {"checks": checks, "pass": all(c["pass"] for c in checks), "seed": seed}
