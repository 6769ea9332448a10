"""End-to-end relay pipeline: channels, encoders, relay broadcast, decoding.

Encoders are designed so that the two symbols of every pair land on the same
relay-side basis vector, so the relay only ever observes pairwise sums.  A
strategy is valid iff its pair frame S = [B_01 | B_02 | ...]
(Strategy.frame) is a basis of C^N: each B_ij lies in V_i & V_j, and a
direct sum forces span B_ij = V_i & V_j in both directions.  Its inverse
P = S^-1 (Strategy.relay_map) reads the coordinates of every pair sum, so
receiver k undoes its channel, takes the rows of P at its own pair slots
(Strategy.slots), F_k = P[slots_k] G_k^-1, subtracts its own symbols, and
decides by nearest constellation point per coordinate.

A Link binds a valid strategy to one channel draw and encoder set and
computes once, as one operator over all K users stacked in user order, what
observation, decoding and SNR reuse: observe and snr_db each take or give
all K at once, observe for one trial or a block of T trials, and user k's
part is row block rows[k] of each.  Building a Link decides the alignment
claim: every user i's relay-side columns P H_i U_i must be the 0/1
selection of i's pair slots to the rank rule, so every symbol reaches the
relay only inside a pair sum, and a Link refuses other encoders with
SecrecyViolation.  The receive maps F_k are the receivers' only model; with
aligned encoders they send each receiver its partners' symbols exactly, so
every receiver's estimates are x[sent] + L w, one gather and one noise
factor, and the SNR reads each stream's noise variance off them.  The
decoders see the relay noise only through P, so all the noise of a trial,
relay and receivers', reaches them as one Gaussian of Σd entries, w.
run_monte_carlo is the one decoder: it sweeps the Link it is given, forming
that expression for a block of trials, L w once for all noise levels, and
each estimate's Voronoi margin m from it once (Constellation.margin_table),
so an estimate is wrong at level var iff sqrt(var) m exceeds the table's unit
(Constellation.margin_unit), and no level decides anything of its own.
It returns counts: errors per level and row, and the relay's MAP hits.  It
draws one set of trials per sweep from the generator it is given, so every
noise level runs over the same system and trials, its noise one unit draw
scaled; the caller builds the system (draw_channels, design_encoders, Link)
and forms the rates.  ChannelSet decides all 2K channels invertible by the
rank rule once, at construction, so design_encoders only solves and Link
only inverts.  The channels and all noise come from
subspace._complex_gaussian, the drawer of every complex Gaussian in the
package.
"""

from __future__ import annotations

import functools
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
from .feasibility import Strategy
from .subspace import _complex_gaussian, blocks, numeric_rank, rank_threshold

__all__ = [
    "Constellation",
    "ChannelSet",
    "Link",
    "draw_channels",
    "design_encoders",
    "relay_map_success",
    "run_monte_carlo",
]

SUM_MATCH_TOL = 1e-9  # pair sums closer than this times the minimum point gap are one sum


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
        """Index of the closest point, elementwise, by argmin over every distance.

        The first of tied points wins, and a NaN or infinite value gets index
        0.  No sweep calls it (run_monte_carlo reads margin_table); it holds an
        (..., M) array of distances, M times the size of values.
        """
        return np.abs(np.asarray(values, dtype=np.complex128)[..., None] - self.points).argmin(axis=-1)

    @property
    def margin_unit(self) -> float:
        """u, the largest power of two not above the largest |p|: the scale margin_table is measured in."""
        return math.ldexp(1.0, math.frexp(float(np.abs(self.points).max()))[1] - 1)

    @functools.cached_property
    def margin_table(self) -> np.ndarray:
        """c[s, j] = 2u / (p_j - p_s) = 2u conj(p_j - p_s) / |p_j - p_s|^2, c[s, s] = 0: the Voronoi margins.

        With u = margin_unit, an estimate p_s + n lies nearer p_j than p_s iff
        Re(n c[s, j]) > u (expand |n - (p_j - p_s)|^2 < |n|^2).  So it is
        decided wrong iff its margin m = max_j Re(n c[s, j]) > u, and p_s + a
        n, a >= 0, iff a m > u; the zero diagonal only adds m >= 0.  The gaps
        are divided by u, a power of two, exactly, so no entry overflows, not
        even for subnormal points; u is 1 for QPSK, BPSK and 8-PSK.
        Tie rule: an estimate exactly as near another point as p_s counts as
        decided right, whatever the points' order.  A tie has probability zero
        for Gaussian noise, and near one neither this rule nor a nearest-point
        search is exact to the last bit.  Built once per constellation,
        read-only.
        """
        # (p_s - p_j) / u, part by part: a complex division by a subnormal u would overflow
        gap = (np.subtract.outer(self.points, self.points).view(float) / self.margin_unit).view(complex)
        table = np.zeros_like(gap)
        np.divide(-2, gap, out=table, where=gap != 0)
        table.flags.writeable = False
        return table

    @functools.cached_property
    def map_success_table(self) -> np.ndarray:
        """succ[a, b] = 1 if the relay's MAP guess for sum a+b is the pair (a, b).

        The MAP guess for each observable sum is its first preimage in row-major
        order; success probability per sum is 1 / (number of preimages).  Two
        sums are one when they differ by at most SUM_MATCH_TOL times the minimum
        distance between points, so the table does not depend on scale; built
        once per constellation, read-only.

        Sum t counts iff no earlier sum lies within tol: distinct sums at their
        first index, compared in groups that any two within tol share, split at
        each step past tol in sorted real, then imaginary, parts.
        """
        sums = np.add.outer(self.points, self.points).ravel()
        gaps = np.abs(np.subtract.outer(self.points, self.points))
        tol = SUM_MATCH_TOL * gaps[gaps > 0].min(initial=np.inf)
        values, first = np.unique(sums, return_index=True)
        group = np.zeros(values.size, dtype=np.intp)
        for coord in (values.real, values.imag):
            order = np.lexsort((coord, group))
            group[order] = np.cumsum(np.r_[0, (np.diff(coord[order]) > tol) | (np.diff(group[order]) != 0)])
        order = np.lexsort((first, group))
        values, first, group = values[order], first[order], group[order]
        beaten = np.zeros(values.size, dtype=bool)
        for k in range(1, np.bincount(group).max()):  # each sum against the one k places before it in its group
            beaten[k:] |= (group[k:] == group[:-k]) & (np.abs(values[k:] - values[:-k]) <= tol)
        table = np.bincount(first[~beaten], minlength=sums.size).reshape(self.size, self.size).astype(float)
        table.flags.writeable = False
        return table


@dataclass(frozen=True)
class ChannelSet:
    """User-to-relay matrices H_i and relay-to-user matrices G_k, decided valid at construction.

    K >= 2 and N >= 1 (else InvalidInput); one N x N matrix per user and
    direction (else DimensionMismatch), with finite entries (else
    InvalidInput); each of full numeric rank by the rank rule, in one SVD of
    all 2K (else SingularChannel naming the first short H_i, then G_k,
    numbered from 1 as users are in every message).  H and G are kept as
    read-only (K, N, N) complex copies, so no later write can undo the
    check; h_norm is that SVD's sigma_max(H_i), for Link's audit.
    draw_channels builds one from each draw and draws nothing again, so a
    singular draw raises here.
    """

    K: int
    N: int
    H: np.ndarray
    G: np.ndarray
    h_norm: np.ndarray = field(init=False, repr=False)
    redraws = 0  # not a field, always 0: perfbench/tracer.py reads it off every draw_channels result

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
        sigma = np.linalg.svd(stack, compute_uv=False)
        short = numeric_rank(sigma, (n, n)) < n
        if short.any():
            first = int(np.argmax(short))
            raise SingularChannel(f"H_{first + 1} is singular" if first < k else f"G_{first - k + 1} is singular")
        stack.flags.writeable = False
        object.__setattr__(self, "H", stack[:k])
        object.__setattr__(self, "G", stack[k:])
        object.__setattr__(self, "h_norm", sigma[:k, 0])


def draw_channels(k: int, n: int, rng: np.random.Generator) -> ChannelSet:
    """i.i.d. standard complex Gaussian channels H_0..H_{K-1}, G_0..G_{K-1}.

    A draw is one subspace._complex_gaussian call of unit variance, 2K rows of
    n^2 values, one per matrix, and is used once: a Gaussian matrix is
    singular with probability zero, so a draw that ChannelSet finds singular
    raises its SingularChannel, naming the first short H_i or G_k.
    """
    mats = _complex_gaussian(rng, 2 * k, n * n, 1.0).reshape(2 * k, n, n)
    return ChannelSet(K=k, N=n, H=mats[:k], G=mats[k:])


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
    """A strategy over one channel draw and set of aligned encoders, precomputed once as one stacked operator.

    Building a Link takes P = S^-1 from Strategy.relay_map (StrategyInvalid
    unless the pair frame S = Strategy.frame is a basis of C^N) and keeps it
    as relay_map; slots_i = Strategy.slots[i] are the columns of S holding
    user i's blocks B_i = user_bases[i], in order.

    Users and receivers are stacked in user order: rows[k] is k's block of
    d_k rows, and of columns, of the Σd-wide arrays, and of every symbol,
    noise and estimate array over them.  effective_all =
    [H_0 U_0 | H_1 U_1 | ...] (N x Σd) is what observe applies.

    Alignment is decided here, once.  User i's relay-side columns M_i =
    P H_i U_i (block rows[i] of the columns of M = P effective_all) must be
    the 0/1 selection of i's pair slots: each column's largest entry lies in
    a distinct slot of i, the columns cover all of them, in any order, and
    the residual R_i = M_i minus that selection has sigma_max(R_i) within the
    rank threshold of sigma_max(P) sigma_max(H_i) sigma_max(U_i), the scale
    of the rounding in forming M_i.  Then every symbol reaches the relay
    only as one coordinate of a pair sum.  Other encoders raise
    SecrecyViolation naming the first user that fails, numbered from 1;
    secrecy_residual is the largest sigma_max(R_i).  summed[:, c] are the
    stacked rows of the two symbols summed at column c of S, the
    lower-numbered user's first, by M's column argmax, and sent[e] the one
    of them that estimate row e decides.

    Receiver k's receive map F_k = P[slots_k] G_k^-1 sends G_k (B_k s + J_k
    u) to s, J_k the pair blocks not involving k; the F_k G_k = P[slots_k],
    stacked, are the Σd x N folded map Fz.  Both are locals of
    construction, and Fz effective_all, less each receiver's own block, is
    the selection sent gathers.

    Relay noise z ~ CN(0, var I_N) and receiver noise w_k ~ CN(0, var I_N)
    reach the decoders only as Fz z plus F_k w_k in row block k: one
    Gaussian of Σd entries with covariance var C, C = Fz Fz^H + (+)_k F_k
    F_k^H, which couples receivers through the shared z.
    noise_factor_all is a Σd x Σd factor L with L L^H = C, so L w with
    w ~ CN(0, var I_Σd) has the law of all of it.  L is R^H from a thin QR
    of [Fz | (+)_k R_k^H]^H, with F_k^H = Q_k R_k, so every valid Link
    factors; a Cholesky of C would square its condition number.
    noise_gain_all is the diagonal of C, the squared row norms of Fz plus
    those of the F_k, so each stream has post-decoder noise variance var
    times its gain, which snr_db reads.  The G_k, which ChannelSet has
    decided invertible, are inverted in one stacked call.
    Every receiver's estimates of the symbols x with noise w are then
    x[sent] + noise_factor_all @ w, the expression run_monte_carlo decodes.
    An encoder that is not N x d_i raises DimensionMismatch naming its user
    from 1, one with a non-finite entry InvalidInput.
    """

    strategy: Strategy
    channels: ChannelSet
    encoders: list[np.ndarray]
    relay_map: np.ndarray = field(init=False, repr=False)
    rows: list[slice] = field(init=False, repr=False)
    effective_all: np.ndarray = field(init=False, repr=False)
    secrecy_residual: float = field(init=False, repr=False)
    summed: np.ndarray = field(init=False, repr=False)
    sent: np.ndarray = field(init=False, repr=False)
    noise_factor_all: np.ndarray = field(init=False, repr=False)
    noise_gain_all: np.ndarray = field(init=False, repr=False)

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
                raise DimensionMismatch(f"encoder {i + 1} has shape {np.shape(u)}, expected {(strategy.spec.N, d)}")
        ends = np.cumsum(strategy.spec.d).tolist()
        rows = [slice(e - d, e) for d, e in zip(strategy.spec.d, ends)]
        effective = np.hstack([h @ u for h, u in zip(channels.H, self.encoders)])
        resid = relay_map @ effective  # M, less its 0/1 selection below
        slot_of = np.abs(resid).argmax(axis=0)
        resid[slot_of, np.arange(slot_of.size)] -= 1
        p_norm = np.linalg.norm(relay_map, 2)
        # every sigma_max(R_i), then every sigma_max(U_i), of one SVD; zero columns pad each to max d_i
        padded = np.zeros((2, len(rows), channels.N, max(strategy.spec.d)), dtype=np.complex128)
        for i, (r, u) in enumerate(zip(rows, self.encoders)):
            padded[:, i, :, : r.stop - r.start] = resid[:, r], u
        tops, u_norms = np.linalg.svd(padded, compute_uv=False)[..., 0]
        for i, (r, s, top, u_norm) in enumerate(zip(rows, strategy.slots, tops, u_norms)):
            if not np.array_equal(np.sort(slot_of[r]), s):
                raise SecrecyViolation(f"user {i + 1}: relay-side columns do not select its pair slots one to one")
            if top > rank_threshold(resid[:, r].shape, p_norm * channels.h_norm[i] * u_norm):
                raise SecrecyViolation(f"user {i + 1}: residual {top:.3e} off its pair slots exceeds the rank threshold")
        # per column of S, the estimate rows deciding its two symbols and the symbols summed there,
        # the lower-numbered user's first (stable sorts); each row decides its partner's symbol
        stacked_slots = np.concatenate(strategy.slots)  # the column of S of each estimate row
        deciding = np.argsort(stacked_slots, kind="stable").reshape(-1, 2).T
        summed = np.argsort(slot_of, kind="stable").reshape(-1, 2).T
        sent = np.empty_like(slot_of)
        sent[deciding] = summed[::-1]
        folded = relay_map[stacked_slots]
        receive = np.vstack([folded[r] @ gk_inv for r, gk_inv in zip(rows, np.linalg.inv(channels.G))])
        gains = np.linalg.norm(folded, axis=1) ** 2 + np.linalg.norm(receive, axis=1) ** 2
        receiver_factor = np.zeros((sent.size, sent.size), dtype=np.complex128)
        for r in rows:  # a receiver's noise reaches its rows alone
            receiver_factor[r, r] = np.linalg.qr(receive[r].conj().T, mode="r").conj().T  # R_k^H
        # [folded | (+)_k R_k^H]^H = Q R, so L = R^H and L L^H = folded folded^H + (+)_k F_k F_k^H
        noise_factor = np.linalg.qr(np.hstack([folded, receiver_factor]).conj().T, mode="r").conj().T
        object.__setattr__(self, "relay_map", relay_map)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "effective_all", effective)
        object.__setattr__(self, "secrecy_residual", float(tops.max()))  # a user with no streams pads to 0
        object.__setattr__(self, "summed", summed)
        object.__setattr__(self, "sent", sent)
        object.__setattr__(self, "noise_factor_all", noise_factor)
        object.__setattr__(self, "noise_gain_all", gains)

    def observe(self, x: np.ndarray) -> np.ndarray:
        """The relay's noiseless observation r = effective_all x = sum_i H_i U_i x[rows[i]].

        x is the Σd-row symbol array, user i's in rows[i]: a vector, or a
        (Σd, T) block of T trials.  The receivers never form r; the relay's
        noise reaches them only through noise_factor_all.
        """
        _check_array("symbol", x, self.effective_all.shape[1])
        return self.effective_all @ x

    def snr_db(self, var: float) -> list[float]:
        """Each receiver's SNR of its worst stream after the decoder, per unit symbol energy, in dB.

        With relay and receiver noise of variance var >= 0, each estimate is its
        symbol plus noise of variance var times its stream's noise gain, so
        receiver k's SNR is 1 / (var * g_k), g_k the largest gain in row block
        rows[k] of noise_gain_all, computed as -10 log10(var) - 10 log10(g_k)
        so that a var near the smallest float gives its dB figure and no
        overflow.  Gives +inf at var = 0, and -inf for a receiver with no
        streams at var > 0; a var not finite and >= 0 raises InvalidInput.
        """
        if not (math.isfinite(var) and var >= 0):
            raise InvalidInput("noise variance must be finite and >= 0")
        if var == 0:
            return [math.inf] * len(self.rows)
        gains = self.noise_gain_all.tolist()  # each >= 1, as F_k G_k B_k = I, B_k orthonormal; no streams: no signal
        return [-10 * math.log10(var) - (10 * math.log10(max(gains[r])) if r.start < r.stop else math.inf)
                for r in self.rows]


def _check_array(name: str, a, rows: int) -> None:
    """Raise DimensionMismatch unless a is an array of the given rows: a vector or a block of T trials."""
    if not isinstance(a, np.ndarray):
        raise DimensionMismatch(f"{name} shape: need one array of {rows} rows, not a {type(a).__name__}")
    if a.ndim not in (1, 2) or len(a) != rows:
        raise DimensionMismatch(f"{name} shape {a.shape} does not match {rows} rows")


def relay_map_success(constellation: Constellation) -> Fraction:
    """Exact MAP probability of the relay guessing an ordered pair from its sum.

    Equals (number of distinct pairwise sums, as map_success_table counts them) / |X|^2.
    """
    return Fraction(int(constellation.map_success_table.sum()), constellation.size**2)


def run_monte_carlo(
    link: Link,
    constellation: Constellation,
    noise_grid: list[float],
    trials: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int]:
    """Error and relay-hit counts of one Link over a grid of noise variances: the package's one decoder.

    One set of trials per sweep, drawn from rng: all users' symbols of every
    trial (one call, the stream of K per-user draws), then per column block
    of subspace.blocks the block's unit noise w, Σd entries a trial as the
    decoders see it: one subspace._complex_gaussian row per trial, so no
    count depends on the block size.  A block forms L w once, and from it
    one Voronoi margin per estimate: with s the estimate's sent index and n
    its entry of L w, m = max_j Re(n c[s, j]), c = Constellation.margin_table
    in units of u = Constellation.margin_unit.  Level var's estimate x[sent]
    + sqrt(var) L w, noise CN(0, var C), is decided wrong iff sqrt(var) m >
    u, so errors[level] adds each row's count of m > u / sqrt(var), infinite
    at var = 0.  No level decides anything of its own, so a level's counts
    do not depend on the rest of the grid or its order, and no row's count
    rises as var falls.  Tie rule: an estimate exactly as near another point
    as its own counts as decided right, an event of probability zero; within
    rounding of a Voronoi boundary neither this rule nor a nearest-point
    search (the tests' reference included) is exact to the last bit.  A
    threshold u / sqrt(var) that underflows to 0 still counts only m > 0,
    the estimates some point is nearer to.

    Returns errors, the (levels, Σd) counts of estimates decided wrong per
    level in grid order and stacked row (receiver k's in link.rows[k]), and
    relay_hits, how many of the N pair sums of each trial (one per column of
    S) the relay's MAP guess reads as the pair sent.  That tally reads only
    the symbols' noiseless sums (Link.summed), as the exact counting
    argument does: relay_hits / (N trials) is one Monte Carlo estimate of
    relay_map_success.  A trial count < 1 or past numpy's largest array, and
    a grid that is empty or holds a variance not finite and >= 0, raise
    InvalidInput before rng moves.
    """
    if trials < 1:
        raise InvalidInput("trials must be >= 1")
    rows_total = link.sent.size  # Σd
    if 8 * rows_total * trials > np.iinfo(np.intp).max:  # the sweep's symbol indices, its largest array, in bytes
        raise InvalidInput(f"trials={trials} needs symbol indices past numpy's largest array")
    if not noise_grid or not all(math.isfinite(v) and v >= 0 for v in noise_grid):  # before rng moves
        raise InvalidInput("noise variances must be nonempty, finite and >= 0")
    succ_table = constellation.map_success_table

    # the stream of K per-user (d_i, trials) draws: the generator keeps the
    # unused half of a 64-bit draw between calls, so odd d_i * trials split nothing
    idx = rng.integers(0, constellation.size, size=(rows_total, trials))
    unit = constellation.margin_unit  # an estimate is wrong at var iff m > u / sqrt(var)
    bars = [unit / math.sqrt(var) if var else math.inf for var in noise_grid]
    errors = np.zeros((len(noise_grid), rows_total), dtype=np.intp)
    relay_hits = 0
    for cols in blocks(trials, rows_total):
        w = _complex_gaussian(rng, cols.stop - cols.start, rows_total, 1.0)  # a row per trial
        lw = link.noise_factor_all @ w.T  # (Σd, width): the unit noise n of row e, trial t at [e, t]
        ix = idx[:, cols]
        sent_ix = ix[link.sent]
        relay_hits += np.count_nonzero(succ_table[ix[link.summed[0]], ix[link.summed[1]]])
        margin = np.zeros(lw.shape)  # m = max_j Re(n c[s, j]), s = sent_ix
        for c_j in constellation.margin_table.T:  # c_j[s] = c[s, j]
            np.maximum(margin, (lw * c_j[sent_ix]).real, out=margin)
        for level, bar in enumerate(bars):
            errors[level] += (margin > bar).sum(axis=1)
    return errors, int(relay_hits)
