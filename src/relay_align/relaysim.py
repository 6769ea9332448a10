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
block of T trials.  Receiver k's receive map F_k is its only model: decoding
applies it, and the SNR reads each stream's noise variance off it.  The
relay's model is P: secrecy_audit reads user i's relay-side columns
P H_i U_i, which must be the 0/1 selection of i's pair slots to the rank
rule.  ChannelSet decides all 2K channels invertible by that rule once, at
construction, so design_encoders only solves and Link only inverts.
run_monte_carlo builds one Link per sweep, so every noise level of a sweep
runs over the same system.
"""

from __future__ import annotations

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
# Trials per column block of run_monte_carlo's per-user decode.  A power of two,
# so every block starts on a column where BLAS's column tiling of the whole
# array starts a tile too, and each block's products keep the whole-array bits.
DECODE_BLOCK = 4096


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
    so a caller can reuse them between draws.  The values equal the complex
    expression bit for bit; a zero scale or normal makes it evaluate that
    expression, the only thing that gives its zeros' signs.
    """
    if out is None:
        out = np.empty(shape, dtype=np.complex128)
    if variance == 0:
        out.fill(0)
        return out
    if normals is None:
        normals = np.empty((2, *shape))
    rng.standard_normal(out=normals)
    scale = np.sqrt(variance / 2)
    if scale == 0 or not normals.all():
        out[...] = scale * (normals[0] + 1j * normals[1])
        return out
    parts = out.view(np.float64)
    np.multiply(normals[0], scale, out=parts[..., 0::2])
    np.multiply(normals[1], scale, out=parts[..., 1::2])
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
    """A strategy over one channel draw and set of encoders, precomputed once.

    A strategy is valid iff its pair frame S is a basis of C^N: each B_ij
    lies in V_i & V_j, and a direct sum forces span B_ij = V_i & V_j in both
    directions.  Building a Link takes P = S^-1 from Strategy.relay_map
    (StrategyInvalid otherwise) and keeps it as relay_map.  Per user i: the
    effective H_i U_i, and slots[i], the columns of S holding i's blocks
    B_i = user_bases[i], in order.  Per receiver k: folded[k] = P[slots_k],
    which decode applies to the relay's r; the receive map
    F_k = P[slots_k] G_k^-1, which sends G_k (B_k s + J_k u) to s, J_k the
    pair blocks not involving k; own[k] = folded[k] H_k U_k, the part of
    folded[k] r carried by k's own symbols; noise_factor[k] = R_k^H
    (d_k x d_k), from the thin QR F_k^H = Q_k R_k, so that receiver noise
    w ~ CN(0, var I_N) reaches the decoder as F_k w, which has the law of
    R_k^H w' with w' ~ CN(0, var I_{d_k}); and noise_gain[k], the squared
    row norms of folded[k] plus those of F_k (equal to those of R_k^H), so
    that with relay and receiver noise of variance var stream s of k has
    post-decoder noise variance var * noise_gain[k][s] (the diagonal of
    var * F_k (G_k G_k^H + I) F_k^H).  The G_k, which ChannelSet has
    decided invertible, are inverted in one stacked call.  An encoder with a
    non-finite entry raises InvalidInput.
    """

    strategy: Strategy
    channels: ChannelSet
    encoders: list[np.ndarray]
    relay_map: np.ndarray = field(init=False, repr=False)
    slots: list[np.ndarray] = field(init=False, repr=False)
    effective: list[np.ndarray] = field(init=False, repr=False)
    receive: list[np.ndarray] = field(init=False, repr=False)
    folded: list[np.ndarray] = field(init=False, repr=False)
    own: list[np.ndarray] = field(init=False, repr=False)
    noise_factor: list[np.ndarray] = field(init=False, repr=False)
    noise_gain: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        strategy, channels = self.strategy, self.channels
        if channels.N != strategy.spec.N or channels.K != strategy.spec.K:
            raise DimensionMismatch("channel set does not match strategy shape")
        if len(self.encoders) != strategy.spec.K:
            raise DimensionMismatch("need one encoder per user")
        if not all(np.isfinite(u).all() for u in self.encoders):
            raise InvalidInput("encoder has non-finite entries")
        relay_map = strategy.relay_map()
        g_inv = np.linalg.inv(channels.G)
        # the pair (i, j) of each column of S; the pairs holding k, in _pairs order, are k's partners ascending
        column_pairs = np.repeat(list(strategy.pair_bases), list(strategy.pair_dims().values()), axis=0)
        slots = [np.flatnonzero((column_pairs == k).any(axis=1)) for k in range(strategy.spec.K)]
        folded = [relay_map[s] for s in slots]
        effective = [h @ u for h, u in zip(channels.H, self.encoders)]
        receive = [f @ gk_inv for f, gk_inv in zip(folded, g_inv)]
        object.__setattr__(self, "relay_map", relay_map)
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "effective", effective)
        object.__setattr__(self, "receive", receive)
        object.__setattr__(self, "folded", folded)
        object.__setattr__(self, "own", [f @ e for f, e in zip(folded, effective)])
        object.__setattr__(self, "noise_factor", [np.linalg.qr(f.conj().T, mode="r").conj().T for f in receive])
        gains = [np.linalg.norm(fg, axis=1) ** 2 + np.linalg.norm(f, axis=1) ** 2 for fg, f in zip(folded, receive)]
        object.__setattr__(self, "noise_gain", gains)

    def observe(self, symbols: list[np.ndarray], z: np.ndarray | None = None) -> np.ndarray:
        """Relay observation r = sum_i H_i U_i x_i + z.

        Each x_i is a length-d_i vector or a (d_i, T) block of T trials; z, when
        given, has the shape of r.
        """
        if len(symbols) != len(self.effective):
            raise DimensionMismatch("need one symbol block per user")
        xs = [np.asarray(x, dtype=np.complex128) for x in symbols]
        if any(x.shape[0] != e.shape[1] for e, x in zip(self.effective, xs)):
            raise DimensionMismatch("symbol block width does not match encoder")
        r = sum(e @ x for e, x in zip(self.effective, xs))
        if z is not None and np.shape(z) != r.shape:
            raise DimensionMismatch(f"noise shape {np.shape(z)} does not match the observation {r.shape}")
        return r if z is None else r + z

    def decode(self, k: int, r: np.ndarray, x_k: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
        """Soft estimates folded[k] r + noise_factor[k] w - own[k] x_k of the symbols k's partners sent it.

        Rows are ordered as B_k.  Without w this is F_k G_k r - own[k] x_k,
        and receiver k's observation G_k r is never formed.  w is receiver
        k's noise where the decoder sees it: d_k entries per trial, which
        noise_factor[k] maps to noise of the law of F_k times N-entry receiver
        noise of the same variance.  r, x_k and w are vectors, or (N, T),
        (d_k, T) and (d_k, T) blocks of T trials; w, when given, has the shape
        of the estimate.
        """
        self._check_receiver(k)
        est = self.folded[k] @ np.asarray(r, dtype=np.complex128)
        if w is not None:
            if np.shape(w) != est.shape:
                raise DimensionMismatch(f"noise shape {np.shape(w)} does not match the estimate {est.shape}")
            est += self.noise_factor[k] @ np.asarray(w, dtype=np.complex128)  # in place, as below: one temporary fewer
        est -= self.own[k] @ np.asarray(x_k, dtype=np.complex128)
        return est

    def snr_db(self, k: int, var: float) -> float:
        """SNR of receiver k's worst stream after the decoder, per unit symbol energy, in dB.

        With relay and receiver noise of variance var >= 0, decode returns each
        symbol plus noise of variance var * noise_gain[k][s] on stream s, so
        the SNR is 1 / (var * max noise_gain[k]).  It is computed as
        -10 log10(var) - 10 log10(max noise_gain[k]), so a var near the
        smallest float gives its dB figure and no overflow.  Returns +inf at
        var = 0, and -inf for a receiver with no streams at var > 0; a var
        that is not finite and >= 0 raises InvalidInput.
        """
        self._check_receiver(k)
        if not (math.isfinite(var) and var >= 0):
            raise InvalidInput("noise variance must be finite and >= 0")
        if var == 0:
            return math.inf
        gain = self.noise_gain[k]  # each >= 1, as F_k G_k B_k = I with B_k orthonormal
        if not gain.size:  # no streams: no signal
            return -math.inf
        return -10 * math.log10(var) - 10 * math.log10(float(gain.max()))

    def _check_receiver(self, k: int) -> None:
        if not 0 <= k < len(self.receive):
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
    channels and so fixes the Link once, then every noise level draws its
    symbols, relay noise and per-user noise from it in turn.  The relay
    noise has N entries per trial; receiver k's has d_k, drawn where its
    decoder sees it (Link.decode), which is exact in distribution.  The
    relay-equivocation tally uses the noiseless sums, matching the exact
    counting argument, and is therefore a Monte Carlo estimate of
    relay_map_success.  Each noise draw is one call for all trials, into
    two (N, trials) buffers reused by every draw of the sweep, a receiver's
    into their leading d_k rows; each user then decodes in column blocks of
    DECODE_BLOCK trials, with the output of decoding all trials at once.  The
    symbol tallies visit only the pairs of nonzero width, found once per
    sweep.
    """
    if trials < 1:
        raise InvalidInput("trials must be >= 1")
    if 16 * spec.N * trials > np.iinfo(np.intp).max:  # the (N, trials) complex buffers, in bytes
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
    shared = [p for p, b in strategy.pair_bases.items() if b.shape[1]]
    partners = [[j for p in shared if k in p for j in p if j != k] for k in range(k_users)]
    noise_out = np.empty((n, trials), dtype=np.complex128)
    normals = np.empty((2, n, trials))
    reports = []
    for var in noise_grid:
        idx = [rng.integers(0, pts.size, size=(spec.d[i], trials)) for i in range(k_users)]
        x = [pts[ix] for ix in idx]
        r = link.observe(x, _complex_gaussian(rng, (n, trials), var, noise_out, normals))

        ser = []
        snrs = []
        for k in range(k_users):
            d_k = spec.d[k]
            errors = 0
            if partners[k]:  # d_k > 0
                # contiguous views of the buffers' first d_k rows: (d_k, trials) and (2, d_k, trials)
                normals_k = normals.reshape(-1)[: 2 * d_k * trials].reshape(2, d_k, trials)
                w = _complex_gaussian(rng, (d_k, trials), var, noise_out[:d_k], normals_k)
                sent_idx = np.vstack([idx[j][strategy.slices[j, k]] for j in partners[k]])
                for start in range(0, trials, DECODE_BLOCK):
                    cols = slice(start, start + DECODE_BLOCK)
                    hard_idx = constellation.nearest_index(link.decode(k, r[:, cols], x[k][:, cols], w[:, cols]))
                    errors += int(np.count_nonzero(hard_idx != sent_idx[:, cols]))
            ser.append(errors / (d_k * trials) if d_k else 0.0)
            snrs.append(link.snr_db(k, var))

        relay_hits = 0
        relay_slots = 0
        for i, j in shared:
            ai = idx[i][strategy.slices[i, j]]
            aj = idx[j][strategy.slices[j, i]]
            relay_hits += succ_table[ai, aj].sum()
            relay_slots += ai.size
        relay_rate = relay_hits / relay_slots if relay_slots else 0.0

        reports.append(
            SimReport(
                noise_var=float(var),
                per_user_snr_db=snrs,
                per_user_ser=ser,
                relay_map_success_rate=float(relay_rate),
                trials=trials,
                seed=seed,
                config=config,
            )
        )
    return reports
