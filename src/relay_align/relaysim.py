"""End-to-end relay pipeline: channels, encoders, relay broadcast, decoding.

Encoders are designed so that the two symbols of every pair land on the same
relay-side basis vector, so the relay only ever observes pairwise sums.  A
strategy is valid iff its pair frame S = [B_01 | B_02 | ...] is a basis of
C^N: each B_ij lies in V_i & V_j, and a direct sum forces span B_ij =
V_i & V_j in both directions.  Its inverse P = S^-1 (Strategy.relay_map)
reads the coordinates of every pair sum, so receiver k undoes its channel,
takes the rows of P at its own pairs, F_k = P[slots_k] G_k^-1, subtracts its
own symbols, and decides by nearest constellation point per coordinate.

A Link binds a valid strategy to one channel draw and encoder set and
computes once what observation, decoding and SNR reuse, for one trial or a
block of T trials, as one operator with the K receivers stacked in user
order; receiver k reads its row block.  Receiver k's receive map F_k is its
only model: decoding applies it, and the SNR reads each stream's noise
variance off it.  The relay's model is P: secrecy_audit reads user i's
relay-side columns P H_i U_i, which must be the 0/1 selection of i's pair
slots to the rank rule.  ChannelSet decides all 2K channels invertible by
that rule once, at construction, so design_encoders only solves and Link
only inverts.  run_monte_carlo builds one Link per sweep, so every noise
level of a sweep runs over the same system, and decodes all K receivers of
a level together.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidInput,
    SecrecyViolation,
    SingularChannel,
)
from .feasibility import Strategy, StrategySpec, construct_strategy
from .subspace import numeric_rank, rank_threshold

__all__ = [
    "Constellation",
    "ChannelSet",
    "SimReport",
    "Link",
    "draw_channels",
    "design_encoders",
    "secrecy_audit",
    "relay_map_success",
    "run_monte_carlo",
]

MAX_REDRAWS = 100  # draw_channels raises SingularChannel after this many singular draws in one call
SUM_MATCH_TOL = 1e-9  # pair sums closer than this times the minimum point gap are one sum
# Entries (Σd rows times trials) per column block of run_monte_carlo's stacked
# decode: each temporary of a block holds about 8192 entries (128 kB complex),
# whatever K, d and the trial count.
DECODE_BLOCK = 8192


@dataclass(frozen=True)
class Constellation:
    """Finite zero-mean set of transmit points."""

    points: np.ndarray
    name: str = "custom"

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.complex128).ravel()
        if pts.size == 0:
            raise InvalidInput("constellation must be nonempty")
        if not np.isfinite(pts).all():
            raise InvalidInput("constellation points must be finite")
        if len(set(pts.tolist())) != pts.size:
            raise InvalidInput("constellation points must be distinct")
        if abs(pts.mean()) > 1e-12 * np.abs(pts).max():
            raise InvalidInput("constellation must be zero-mean")
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.points.size

    @classmethod
    def qpsk(cls) -> "Constellation":
        return cls(np.array([1, -1, 1j, -1j]), name="qpsk")

    @classmethod
    def bpsk(cls) -> "Constellation":
        return cls(np.array([1, -1]), name="bpsk")

    @classmethod
    def from_name(cls, name: str) -> "Constellation":
        table = {"qpsk": cls.qpsk, "bpsk": cls.bpsk}
        if name.lower() not in table:
            raise InvalidInput(f"unknown constellation {name!r}")
        return table[name.lower()]()

    def nearest_index(self, values: np.ndarray) -> np.ndarray:
        """Index of the closest point, elementwise.

        A running minimum over the points with strict <, so the first of tied
        points wins and a NaN or infinite value gets index 0, as argmin gives.
        """
        v = np.asarray(values, dtype=np.complex128)
        best = np.abs(v - self.points[0])
        index = np.zeros(v.shape, dtype=np.intp)
        for i in range(1, self.size):
            dist = np.abs(v - self.points[i])
            index += (dist < best) * (i - index)
            np.minimum(best, dist, out=best)
        return index

    def map_success_table(self) -> np.ndarray:
        """succ[a, b] = 1 if the relay's MAP guess for sum a+b is the pair (a, b).

        The MAP guess for each observable sum is its first preimage in row-major
        order; success probability per sum is 1 / (number of preimages).  Two
        sums are one when they differ by at most SUM_MATCH_TOL times the minimum
        distance between points, so the table does not depend on scale.
        """
        pts = self.points
        sums = (pts[:, None] + pts[None, :]).ravel()
        gaps = np.abs(pts[:, None] - pts[None, :])
        tol = SUM_MATCH_TOL * gaps[gaps > 0].min(initial=np.inf)
        first = [not np.any(np.abs(sums[:t] - s) <= tol) for t, s in enumerate(sums)]
        return np.reshape(first, (self.size, self.size)).astype(float)


def _complex_gaussian(
    rng: np.random.Generator,
    shape,
    variance: float,
    out: np.ndarray | None = None,
    normals: np.ndarray | None = None,
) -> np.ndarray:
    """scale * (a + 1j*b), a and b two consecutive standard_normal(shape) draws.

    One standard_normal call fills normals, a (2, *shape) float64 array, with a
    then b.  out (complex128, shape) and normals are allocated when not given,
    so a caller can reuse them between draws.
    """
    if out is None:
        out = np.empty(shape, dtype=np.complex128)
    if variance == 0:
        out.fill(0)
        return out
    if normals is None:
        normals = np.empty((2, *shape))
    rng.standard_normal(out=normals)
    return _scaled_complex(normals, np.sqrt(variance / 2), out)


def _scaled_complex(normals: np.ndarray, scale: float, out: np.ndarray) -> np.ndarray:
    """out = scale * (normals[0] + 1j * normals[1]), written in place.

    The values equal the complex expression bit for bit; a zero scale or
    normal makes it evaluate that expression, the only thing that gives its
    zeros' signs.  out must be contiguous along its last axis.
    """
    if scale == 0 or not normals.all():
        out[...] = scale * (normals[0] + 1j * normals[1])
        return out
    parts = out.view(np.float64)
    np.multiply(normals[0], scale, out=parts[..., 0::2])
    np.multiply(normals[1], scale, out=parts[..., 1::2])
    return out


def _receiver_noise(
    rng: np.random.Generator,
    d,
    trials: int,
    variance: float,
    out: np.ndarray | None = None,
    normals: np.ndarray | None = None,
) -> np.ndarray:
    """The K receivers' noise of one level: K successive _complex_gaussian(rng, (d_k, trials), variance) draws.

    One standard_normal call fills normals (2 Σd trials float64 entries) with
    user 0's (2, d_0, trials) normals, then user 1's, and so on, the stream
    of the K draws; out (complex128, (Σd, trials)) holds receiver k's draw in
    its d_k rows, in user order.  Both are allocated when not given.
    """
    rows = sum(d)
    if out is None:
        out = np.empty((rows, trials), dtype=np.complex128)
    if variance == 0:
        out.fill(0)
        return out
    if normals is None:
        normals = np.empty(2 * rows * trials)
    rng.standard_normal(out=normals)
    scale = np.sqrt(variance / 2)
    start = 0
    for d_k, run in itertools.groupby(d):  # one pass per run of users of equal d_k
        g = len(list(run))
        stop = start + g * d_k
        block = normals[2 * start * trials : 2 * stop * trials].reshape(g, 2, d_k, trials).swapaxes(0, 1)
        _scaled_complex(block, scale, out[start:stop].reshape(g, d_k, trials))
        start = stop
    return out


@dataclass(frozen=True)
class ChannelSet:
    """User-to-relay matrices H_i and relay-to-user matrices G_k, decided valid at construction.

    K >= 2 and N >= 1 (else InvalidInput); one N x N matrix per user and
    direction (else DimensionMismatch), with finite entries (else
    InvalidInput); each of full numeric rank by the rank rule, in one SVD of
    all 2K (else SingularChannel naming the first short H_i, then G_k).  H
    and G are kept as read-only (K, N, N) complex copies, so no later write
    can undo the check.
    """

    K: int
    N: int
    H: np.ndarray
    G: np.ndarray
    redraws: int = 0

    def __post_init__(self):
        k, n = self.K, self.N
        if k < 2 or n < 1:
            raise InvalidInput("need K >= 2 users and N >= 1 antennas")
        if len(self.H) != k or len(self.G) != k:
            raise DimensionMismatch("need one H and one G per user")
        for m in [*self.H, *self.G]:
            if np.shape(m) != (n, n):
                raise DimensionMismatch(f"channel matrix shape {np.shape(m)}, expected {(n, n)}")
        stack = np.array([*self.H, *self.G], dtype=np.complex128)
        if not np.isfinite(stack).all():
            raise InvalidInput("channel matrix has non-finite entries")
        short = numeric_rank(np.linalg.svd(stack, compute_uv=False), (n, n)) < n
        if short.any():
            first = int(np.argmax(short))
            raise SingularChannel(f"H_{first} is singular" if first < k else f"G_{first - k} is singular")
        stack.flags.writeable = False
        object.__setattr__(self, "H", stack[:k])
        object.__setattr__(self, "G", stack[k:])


def draw_channels(k: int, n: int, rng: np.random.Generator) -> ChannelSet:
    """i.i.d. standard complex Gaussian channels H_0..H_{K-1}, G_0..G_{K-1}.

    A draw is one standard_normal call holding each matrix's real then
    imaginary normals in turn, so its 2K matrices equal 2K successive
    _complex_gaussian(rng, (n, n), 1.0) draws.  A draw that ChannelSet finds
    singular (almost never) is discarded whole and counted in redraws;
    MAX_REDRAWS such draws raise SingularChannel.
    """
    for redraws in range(MAX_REDRAWS):
        parts = rng.standard_normal((2 * k, 2, n, n))
        mats = np.empty((2 * k, n, n), dtype=np.complex128)  # filled in place: no complex temporaries
        np.multiply(parts[:, 0], np.sqrt(0.5), out=mats.real)
        np.multiply(parts[:, 1], np.sqrt(0.5), out=mats.imag)
        try:
            return ChannelSet(K=k, N=n, H=mats[:k], G=mats[k:], redraws=redraws)
        except SingularChannel:
            continue
    raise SingularChannel(f"{MAX_REDRAWS} channel draws were singular")


def design_encoders(strategy: Strategy, channels: ChannelSet) -> list[np.ndarray]:
    """Encoding matrices U_i = H_i^{-1} [B_ij blocks, partners ascending].

    Column c of H_i U_i then equals the shared basis vector of the pair that
    column serves, for both members of the pair; ChannelSet has decided
    every H_i invertible.
    """
    if channels.N != strategy.spec.N or channels.K != strategy.spec.K:
        raise DimensionMismatch("channel set does not match strategy shape")
    return [np.linalg.solve(h, b) for h, b in zip(channels.H, strategy.user_bases)]


@dataclass(frozen=True)
class Link:
    """A strategy over one channel draw and set of encoders, precomputed once as one stacked operator.

    A strategy is valid iff its pair frame S is a basis of C^N: each B_ij
    lies in V_i & V_j, and a direct sum forces span B_ij = V_i & V_j in both
    directions.  Building a Link takes P = S^-1 from Strategy.relay_map
    (StrategyInvalid otherwise) and keeps it as relay_map; slots[i] are the
    columns of S holding user i's blocks B_i = user_bases[i], in order.

    Users and receivers are stacked in user order: rows[k] is receiver k's
    block of d_k rows, and user k's block of columns, of the Σd-wide arrays.
    effective_all = [H_0 U_0 | H_1 U_1 | ...] (N x Σd) is what observe
    applies.  folded_all (Σd x N) holds P[slots_k] in row block k, which
    decode applies to the relay's r; receive_all holds the receive map
    F_k = P[slots_k] G_k^-1, which sends G_k (B_k s + J_k u) to s, J_k the
    pair blocks not involving k.  own_all and noise_factor_all are Σd x Σd
    and block diagonal: block k of own_all is folded[k] H_k U_k, the part of
    folded[k] r carried by k's own symbols; block k of noise_factor_all is
    R_k^H (d_k x d_k), from the thin QR F_k^H = Q_k R_k, so that receiver
    noise w ~ CN(0, var I_N) reaches the decoder as F_k w, which has the law
    of R_k^H w' with w' ~ CN(0, var I_{d_k}).  noise_gain_all holds the
    squared row norms of folded_all plus those of receive_all (equal to
    those of R_k^H), so that with relay and receiver noise of variance var
    stream s of k has post-decoder noise variance var * noise_gain[k][s]
    (the diagonal of var * F_k (G_k G_k^H + I) F_k^H); worst_gain_db[k] is
    10 log10 of k's largest, +inf for a receiver with no streams.  The
    per-user attributes effective, receive, folded, own, noise_factor and
    noise_gain are views of block k of these arrays, not copies.  The G_k,
    which ChannelSet has decided invertible, are inverted in one stacked
    call.  An encoder that is not N x d_i raises DimensionMismatch, one with a
    non-finite entry InvalidInput.
    """

    strategy: Strategy
    channels: ChannelSet
    encoders: list[np.ndarray]
    relay_map: np.ndarray = field(init=False, repr=False)
    slots: list[np.ndarray] = field(init=False, repr=False)
    rows: list[slice] = field(init=False, repr=False)
    effective_all: np.ndarray = field(init=False, repr=False)
    folded_all: np.ndarray = field(init=False, repr=False)
    receive_all: np.ndarray = field(init=False, repr=False)
    own_all: np.ndarray = field(init=False, repr=False)
    noise_factor_all: np.ndarray = field(init=False, repr=False)
    noise_gain_all: np.ndarray = field(init=False, repr=False)
    worst_gain_db: list[float] = field(init=False, repr=False)

    def __post_init__(self):
        strategy, channels = self.strategy, self.channels
        if channels.N != strategy.spec.N or channels.K != strategy.spec.K:
            raise DimensionMismatch("channel set does not match strategy shape")
        if len(self.encoders) != strategy.spec.K:
            raise DimensionMismatch("need one encoder per user")
        if not all(np.isfinite(u).all() for u in self.encoders):
            raise InvalidInput("encoder has non-finite entries")
        relay_map = strategy.relay_map()
        for i, (u, d) in enumerate(zip(self.encoders, strategy.spec.d)):
            if np.shape(u) != (strategy.spec.N, d):  # user i's columns of effective_all are its d_i streams
                raise DimensionMismatch(f"encoder {i} has shape {np.shape(u)}, expected {(strategy.spec.N, d)}")
        g_inv = np.linalg.inv(channels.G)
        # the pair (i, j) of each column of S; the pairs holding k, in _pairs order, are k's partners ascending
        column_pairs = np.repeat(list(strategy.pair_bases), list(strategy.pair_dims().values()), axis=0)
        slots = [np.flatnonzero((column_pairs == k).any(axis=1)) for k in range(strategy.spec.K)]
        ends = np.cumsum(strategy.spec.d).tolist()
        rows = [slice(e - d, e) for d, e in zip(strategy.spec.d, ends)]
        folded = relay_map[np.concatenate(slots)]
        effective = np.hstack([h @ u for h, u in zip(channels.H, self.encoders)])
        receive = np.vstack([folded[r] @ gk_inv for r, gk_inv in zip(rows, g_inv)])
        gains = np.linalg.norm(folded, axis=1) ** 2 + np.linalg.norm(receive, axis=1) ** 2
        own = np.zeros((len(folded), len(folded)), dtype=np.complex128)
        noise_factor = np.zeros_like(own)
        for r in rows:  # the diagonal blocks; nothing couples two receivers
            own[r, r] = folded[r] @ effective[:, r]
            noise_factor[r, r] = np.linalg.qr(receive[r].conj().T, mode="r").conj().T
        object.__setattr__(self, "relay_map", relay_map)
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "effective_all", effective)
        object.__setattr__(self, "folded_all", folded)
        object.__setattr__(self, "receive_all", receive)
        object.__setattr__(self, "own_all", own)
        object.__setattr__(self, "noise_factor_all", noise_factor)
        object.__setattr__(self, "noise_gain_all", gains)
        # each gain >= 1, as F_k G_k B_k = I with B_k orthonormal; no streams: no signal
        worst = [10 * math.log10(float(gains[r].max())) if r.start < r.stop else math.inf for r in rows]
        object.__setattr__(self, "worst_gain_db", worst)

    @property
    def effective(self) -> list[np.ndarray]:
        return [self.effective_all[:, r] for r in self.rows]

    @property
    def folded(self) -> list[np.ndarray]:
        return [self.folded_all[r] for r in self.rows]

    @property
    def receive(self) -> list[np.ndarray]:
        return [self.receive_all[r] for r in self.rows]

    @property
    def own(self) -> list[np.ndarray]:
        return [self.own_all[r, r] for r in self.rows]

    @property
    def noise_factor(self) -> list[np.ndarray]:
        return [self.noise_factor_all[r, r] for r in self.rows]

    @property
    def noise_gain(self) -> list[np.ndarray]:
        return [self.noise_gain_all[r] for r in self.rows]

    def observe(self, symbols, z: np.ndarray | None = None) -> np.ndarray:
        """Relay observation r = sum_i H_i U_i x_i + z = effective_all x + z.

        symbols is one x_i per user, each a length-d_i vector or a (d_i, T)
        block of T trials, or all of them stacked in user order as one array
        x of Σd rows; z, when given, has the shape of r.
        """
        if isinstance(symbols, np.ndarray):
            x = symbols.astype(np.complex128, copy=False)
            if x.shape[:1] != self.effective_all.shape[1:]:
                raise DimensionMismatch("stacked symbol rows do not match the encoders")
        else:
            if len(symbols) != len(self.rows):
                raise DimensionMismatch("need one symbol block per user")
            xs = [np.asarray(x, dtype=np.complex128) for x in symbols]
            if any(x.shape[0] != r.stop - r.start for r, x in zip(self.rows, xs)):
                raise DimensionMismatch("symbol block width does not match encoder")
            x = np.concatenate(xs)
        r = self.effective_all @ x
        if z is not None:
            if np.shape(z) != r.shape:
                raise DimensionMismatch(f"noise shape {np.shape(z)} does not match the observation {r.shape}")
            r += z
        return r

    def decode(self, k: int | None, r: np.ndarray, x_k: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
        """Soft estimates folded[k] r + noise_factor[k] w - own[k] x_k of the symbols k's partners sent it.

        Rows are ordered as B_k.  Without w this is F_k G_k r - own[k] x_k,
        and receiver k's observation G_k r is never formed.  w is receiver
        k's noise where the decoder sees it: d_k entries per trial, which
        noise_factor[k] maps to noise of the law of F_k times N-entry receiver
        noise of the same variance.  r, x_k and w are vectors, or (N, T),
        (d_k, T) and (d_k, T) blocks of T trials; w, when given, has the shape
        of the estimate.  k = None decodes every receiver at once with the
        whole stacked arrays: x_k and w then have Σd rows, user k's in rows[k],
        and so does the estimate.
        """
        if k is None:
            rows = slice(None)
        else:
            self._check_receiver(k)
            rows = self.rows[k]
        est = self.folded_all[rows] @ np.asarray(r, dtype=np.complex128)
        if w is not None:
            if np.shape(w) != est.shape:
                raise DimensionMismatch(f"noise shape {np.shape(w)} does not match the estimate {est.shape}")
            est += self.noise_factor_all[rows, rows] @ np.asarray(w, dtype=np.complex128)  # in place: one temporary fewer
        est -= self.own_all[rows, rows] @ np.asarray(x_k, dtype=np.complex128)
        return est

    def snr_db(self, k: int, var: float) -> float:
        """SNR of receiver k's worst stream after the decoder, per unit symbol energy, in dB.

        With relay and receiver noise of variance var >= 0, decode returns each
        symbol plus noise of variance var * noise_gain[k][s] on stream s, so
        the SNR is 1 / (var * max noise_gain[k]).  It is computed as
        -10 log10(var) - worst_gain_db[k], so a var near the smallest float
        gives its dB figure and no overflow.  Returns +inf at var = 0, and
        -inf for a receiver with no streams at var > 0; a var that is not
        finite and >= 0 raises InvalidInput.
        """
        self._check_receiver(k)
        if not (math.isfinite(var) and var >= 0):
            raise InvalidInput("noise variance must be finite and >= 0")
        if var == 0:
            return math.inf
        return -10 * math.log10(var) - self.worst_gain_db[k]

    def _check_receiver(self, k: int) -> None:
        if not 0 <= k < len(self.rows):
            raise InvalidInput(f"user index {k} out of range")


def secrecy_audit(link: Link) -> float:
    """Check that the relay's noiseless view is a sum of masked pair blocks; return the worst residual.

    Read through the relay map P, user i's relay-side columns M_i =
    P H_i U_i must be the 0/1 selection of i's pair slots: each column's
    largest entry lies in a distinct slot of i, the columns cover all of
    them, in any order, and the residual R_i = M_i minus that selection has
    sigma_max(R_i) within the rank threshold of M_i.  Then every symbol
    reaches the relay only as one coordinate of a pair sum.  Returns the
    largest sigma_max(R_i) and raises SecrecyViolation naming the first user
    that fails; P itself is the Link's (StrategyInvalid when the pair sums
    do not determine the observation).
    """
    n = link.strategy.spec.N
    worst = 0.0
    for i, (e, slots) in enumerate(zip(link.effective, link.slots)):
        m = link.relay_map @ e
        rows = np.abs(m).argmax(axis=0)
        if not np.array_equal(np.sort(rows), slots):
            raise SecrecyViolation(f"user {i}: relay-side columns do not select its pair slots one to one")
        if not rows.size:  # no streams, nothing to leak
            continue
        r = m.copy()
        r[rows, np.arange(rows.size)] -= 1
        top, resid = np.linalg.svd(np.stack([m, r]), compute_uv=False)[:, 0]
        if resid > rank_threshold((n, rows.size), top):
            raise SecrecyViolation(f"user {i}: residual {resid:.3e} off its pair slots exceeds the rank threshold")
        worst = max(worst, float(resid))
    return worst


def relay_map_success(constellation: Constellation) -> Fraction:
    """Exact MAP probability of the relay guessing an ordered pair from its sum.

    Equals (number of distinct pairwise sums, as map_success_table counts them) / |X|^2.
    """
    return Fraction(int(constellation.map_success_table().sum()), constellation.size**2)


@dataclass(frozen=True)
class SimReport:
    """One noise level's outcome: SNR in dB, symbol-error and equivocation rates."""

    noise_var: float
    per_user_snr_db: list[float]
    per_user_ser: list[float]
    relay_map_success_rate: float
    trials: int
    seed: int
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        if not all(0 <= r <= 1 for r in self.per_user_ser):
            raise InvalidInput("symbol-error rates must lie in [0, 1]")


def run_monte_carlo(
    spec: StrategySpec,
    constellation: Constellation,
    noise_grid: list[float],
    trials: int,
    seed: int,
) -> list[SimReport]:
    """Full pipeline SER / equivocation sweep over a grid of noise variances.

    One system per sweep: a single generator seeded with seed draws the
    channels and so fixes the Link once, then every noise level draws from
    it, in turn, all users' symbols (one call), the relay noise (N entries
    per trial, one call) and the K receivers' noise (d_k entries per trial,
    drawn where the decoder sees it, which is exact in distribution: one
    call of Σd rows, _receiver_noise); the symbols and the receivers' noise
    are each the stream of K per-user draws.  The noise goes into buffers
    reused by every level.  All receivers are then decoded together, one
    pass per column block of about DECODE_BLOCK entries (Σd rows times the
    block's trials): the block's symbols, the relay's r through
    Link.observe, every receiver's estimate through Link.decode(None, ...),
    one nearest point decision over all Σd rows, and the error and
    relay-equivocation tallies against row indices found once per sweep.
    The relay-equivocation tally uses the noiseless sums, matching the
    exact counting argument, and is therefore a Monte Carlo estimate of
    relay_map_success.
    """
    if trials < 1:
        raise InvalidInput("trials must be >= 1")
    rows_total = sum(spec.d)
    if 16 * max(rows_total, spec.N) * trials > np.iinfo(np.intp).max:  # the largest noise buffer, in bytes
        raise InvalidInput(f"trials={trials} needs a buffer past numpy's largest array")
    if not all(math.isfinite(v) and v >= 0 for v in noise_grid):
        raise InvalidInput("noise variances must be finite and >= 0")
    strategy = construct_strategy(spec)
    succ_table = constellation.map_success_table()
    pts = constellation.points
    k_users, n = spec.K, spec.N
    config = {
        "K": k_users,
        "N": n,
        "d": list(spec.d),
        "constellation": constellation.name,
        "points": [[p.real, p.imag] for p in pts.tolist()],
        "noise_grid": [float(v) for v in noise_grid],
        "trials": trials,
    }
    rng = np.random.default_rng(seed)
    channels = draw_channels(k_users, n, rng)
    link = Link(strategy, channels, design_encoders(strategy, channels))

    def stacked(i, j):  # the stacked rows of user i's symbols that serve the pair {i, j}
        return np.arange(link.rows[i].start, link.rows[i].stop)[strategy.slices[i, j]]

    # sent[row] is the stacked row of the symbol that estimate row decides;
    # lower holds each pair's rows on its lower-numbered user, one per
    # relay-side sum, and upper the rows of the other user's symbols in them
    sent = np.empty(rows_total, dtype=np.intp)
    for i, j in strategy.slices:
        sent[stacked(i, j)] = stacked(j, i)
    lower = np.concatenate([stacked(i, j) for i, j in strategy.pair_bases])
    upper = sent[lower]
    width = max(1, DECODE_BLOCK // rows_total)
    relay_noise = np.empty((n, trials), dtype=np.complex128)
    relay_normals = np.empty((2, n, trials))
    receiver_noise = np.empty((rows_total, trials), dtype=np.complex128)
    receiver_normals = np.empty(2 * rows_total * trials)

    def level(var):
        """Errors per stacked row and relay MAP hits of one level; its symbols are freed on return."""
        # the stream of K per-user (d_i, trials) draws: the generator keeps the
        # unused half of a 64-bit draw between calls, so odd d_i * trials split nothing
        idx = rng.integers(0, pts.size, size=(rows_total, trials))
        z = _complex_gaussian(rng, (n, trials), var, relay_noise, relay_normals)
        w = _receiver_noise(rng, spec.d, trials, var, receiver_noise, receiver_normals)
        row_errors = np.zeros(rows_total, dtype=np.intp)
        relay_hits = 0.0
        for start in range(0, trials, width):
            cols = slice(start, start + width)
            ix = idx[:, cols]
            x = pts[ix]
            hard_idx = constellation.nearest_index(link.decode(None, link.observe(x, z[:, cols]), x, w[:, cols]))
            row_errors += np.count_nonzero(hard_idx != ix[sent], axis=1)
            relay_hits += succ_table[ix[lower], ix[upper]].sum()
        return row_errors, relay_hits

    reports = []
    for var in noise_grid:
        row_errors, relay_hits = level(var)
        ser = [int(row_errors[r].sum()) / (d_k * trials) if d_k else 0.0 for r, d_k in zip(link.rows, spec.d)]
        reports.append(
            SimReport(
                noise_var=float(var),
                per_user_snr_db=[link.snr_db(k, var) for k in range(k_users)],
                per_user_ser=ser,
                relay_map_success_rate=float(relay_hits / (lower.size * trials)),
                trials=trials,
                seed=seed,
                config=config,
            )
        )
    return reports
