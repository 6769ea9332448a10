"""End-to-end relay pipeline: channels, encoders, relay broadcast, decoding.

Encoders are designed so that the two symbols of every pair land on the same
relay-side basis vector, so the relay only ever observes pairwise sums.  Each
receiver subtracts its own contribution, projects away the interference
space, and decodes by nearest constellation point per coordinate.

A Link binds a verified strategy to one channel draw and encoder set and
computes once what observation, decoding and SNR reuse, for one trial or a
block of T trials.  run_monte_carlo builds one Link per sweep, so every noise
level of a sweep runs over the same system.
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
    StrategyInvalid,
)
from .feasibility import (
    Strategy,
    StrategySpec,
    construct_strategy,
    verify_strategy,
)
from .subspace import DEFAULT_TOL, Subspace, Tolerance, orthonormal_basis, project_onto_perp

__all__ = [
    "Constellation",
    "NoiseModel",
    "ChannelSet",
    "SimReport",
    "SecrecyAuditReport",
    "Link",
    "draw_channels",
    "design_encoders",
    "secrecy_audit",
    "relay_map_success",
    "run_monte_carlo",
]

COND_LIMIT = 1e8
MAX_REDRAWS = 100  # draw_channels raises SingularChannel after this many misses in one call
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

    @property
    def bits_per_symbol(self) -> float:
        return float(np.log2(self.size))

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
        """Index of the closest point, elementwise."""
        v = np.asarray(values, dtype=np.complex128)
        return np.abs(v[..., None] - self.points).argmin(axis=-1)

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


@dataclass(frozen=True)
class NoiseModel:
    """Variances of the relay noise z and the per-user noise w_k."""

    sigma_relay_sq: float
    sigma_user_sq: float

    def __post_init__(self):
        if not all(math.isfinite(v) and v >= 0 for v in (self.sigma_relay_sq, self.sigma_user_sq)):
            raise InvalidInput("noise variances must be finite and >= 0")


def _complex_gaussian(rng: np.random.Generator, shape, variance: float) -> np.ndarray:
    if variance == 0:
        return np.zeros(shape, dtype=np.complex128)
    scale = np.sqrt(variance / 2)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@dataclass(frozen=True)
class ChannelSet:
    """User-to-relay matrices H_i and relay-to-user matrices G_k."""

    K: int
    N: int
    H: list[np.ndarray]
    G: list[np.ndarray]
    redraws: int = 0

    def __post_init__(self):
        if len(self.H) != self.K or len(self.G) != self.K:
            raise DimensionMismatch("need one H and one G per user")
        for m in [*self.H, *self.G]:
            m = np.asarray(m)
            if m.shape != (self.N, self.N):
                raise DimensionMismatch(f"channel matrix shape {m.shape}, expected {(self.N, self.N)}")
            if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
                raise InvalidInput("channel matrix has non-finite entries")


def draw_channels(k: int, n: int, rng: np.random.Generator, cond_limit: float = COND_LIMIT) -> ChannelSet:
    """i.i.d. standard complex Gaussian channels, redrawn if badly conditioned."""
    if k < 2 or n < 1:
        raise InvalidInput("need K >= 2 users and N >= 1 antennas")
    if not cond_limit >= 1:
        raise InvalidInput("cond_limit must be >= 1: no matrix has a condition number below 1")

    redraws = 0

    def one() -> np.ndarray:
        nonlocal redraws
        while True:
            m = _complex_gaussian(rng, (n, n), 1.0)
            if np.linalg.cond(m) <= cond_limit:
                return m
            redraws += 1
            if redraws >= MAX_REDRAWS:
                raise SingularChannel(f"{redraws} channel draws missed cond <= {cond_limit:g}")

    h = [one() for _ in range(k)]
    g = [one() for _ in range(k)]
    return ChannelSet(K=k, N=n, H=h, G=g, redraws=redraws)


def design_encoders(strategy: Strategy, channels: ChannelSet) -> list[np.ndarray]:
    """Encoding matrices U_i = H_i^{-1} [B_ij blocks, partners ascending].

    Column c of H_i U_i then equals the shared basis vector of the pair that
    column serves, for both members of the pair.
    """
    if channels.N != strategy.spec.N or channels.K != strategy.spec.K:
        raise DimensionMismatch("channel set does not match strategy shape")
    encoders = []
    for i in range(strategy.spec.K):
        h = channels.H[i]
        if np.linalg.cond(h) > 1 / np.finfo(float).eps:
            raise SingularChannel(f"H_{i} is numerically singular")
        target = strategy.user_basis(i)
        encoders.append(np.linalg.solve(h, target))
    return encoders


@dataclass(frozen=True)
class SecrecyAuditReport:
    ok: bool
    worst_column_mismatch: float
    stacked_rank: int
    pair_sum_injective: bool


def secrecy_audit(
    encoders: list[np.ndarray],
    channels: ChannelSet,
    strategy: Strategy,
    tol: float = 1e-9,
) -> SecrecyAuditReport:
    """Check that the relay's noiseless view is a sum of masked pair blocks.

    Every pair-basis column must appear (to tol) among the relay-side columns
    of both users of the pair, each relay-side column must be claimed exactly
    once, and the map from per-pair sums to the observation must be injective
    (stacked pair bases of full rank N).  Raises SecrecyViolation otherwise.
    """
    n = strategy.spec.N
    effective = [channels.H[i] @ encoders[i] for i in range(strategy.spec.K)]
    claimed = [np.zeros(m.shape[1], dtype=bool) for m in effective]
    worst = 0.0
    for (i, j), b in sorted(strategy.pair_bases.items()):
        for col in b.T:
            for user in (i, j):
                m = effective[user]
                if m.shape[1] == 0:
                    raise SecrecyViolation(f"user {user} has no columns to serve pair {(i, j)}")
                dist = np.linalg.norm(m - col[:, None], axis=0)
                dist = np.where(claimed[user], np.inf, dist)
                best = int(dist.argmin())
                worst = max(worst, float(dist[best]))
                if dist[best] > tol:
                    raise SecrecyViolation(
                        f"pair {(i, j)}: no unclaimed column of user {user} matches "
                        f"the shared basis vector (best residual {dist[best]:.3e})"
                    )
                claimed[user][best] = True
    if not all(c.all() for c in claimed):
        raise SecrecyViolation("some relay-side column serves no pair (unmasked symbol)")
    stacked = np.hstack([b for _, b in sorted(strategy.pair_bases.items())])
    rank = np.linalg.matrix_rank(stacked) if stacked.size else 0
    injective = rank == stacked.shape[1] == n
    if not injective:
        raise SecrecyViolation("map from pair sums to the relay observation is not injective")
    return SecrecyAuditReport(
        ok=True, worst_column_mismatch=worst, stacked_rank=int(rank), pair_sum_injective=injective
    )


@dataclass(frozen=True)
class Link:
    """A strategy over one channel draw and set of encoders, precomputed once.

    Per user i: the effective H_i U_i.  Per receiver k: the image G_k I_k of
    its interference space (P_k projects onto the complement), the
    pseudo-inverse of the decode matrix P_k G_k B_k (B_k: the pair bases B_jk,
    partners ascending) and the SNR terms ||P_k G_k V_k||^2 (V_k orthonormal),
    ||P_k G_k||^2 and rank P_k.  Building a Link verifies the strategy and
    raises StrategyInvalid if it fails.
    """

    strategy: Strategy
    channels: ChannelSet
    encoders: list[np.ndarray]
    tol: Tolerance = DEFAULT_TOL
    effective: list[np.ndarray] = field(init=False, repr=False)
    interference: list[Subspace] = field(init=False, repr=False)
    decoders: list[np.ndarray] = field(init=False, repr=False)
    snr_terms: list[tuple[float, float, int]] = field(init=False, repr=False)

    def __post_init__(self):
        strategy, channels = self.strategy, self.channels
        if channels.N != strategy.spec.N or channels.K != strategy.spec.K:
            raise DimensionMismatch("channel set does not match strategy shape")
        if len(self.encoders) != strategy.spec.K:
            raise DimensionMismatch("need one encoder per user")
        report = verify_strategy(strategy.subspaces, strategy.spec.N, self.tol)
        if not report.ok:
            raise StrategyInvalid(f"strategy fails verification: {report.failed_conditions()}")
        interference, decoders, snr_terms = [], [], []
        for k, g in enumerate(channels.G):
            gik = orthonormal_basis(g @ strategy.interference_space(k, self.tol).basis, self.tol)
            serving = np.hstack([strategy.pair_basis(j, k) for j in strategy.partners(k)])
            interference.append(gik)
            decoders.append(np.linalg.pinv(project_onto_perp(g @ serving, gik)))
            signal = np.linalg.norm(project_onto_perp(g @ strategy.subspaces[k].basis, gik)) ** 2
            relay_gain = np.linalg.norm(project_onto_perp(g, gik)) ** 2
            snr_terms.append((signal, relay_gain, strategy.spec.N - gik.d))
        object.__setattr__(self, "effective", [h @ u for h, u in zip(channels.H, self.encoders)])
        object.__setattr__(self, "interference", interference)
        object.__setattr__(self, "decoders", decoders)
        object.__setattr__(self, "snr_terms", snr_terms)

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

    def decode(self, k: int, y_tilde: np.ndarray, x_k: np.ndarray) -> np.ndarray:
        """Soft estimates of the symbols k's partners sent it, rows ordered as B_k.

        y_tilde and x_k are vectors, or (N, T) and (d_k, T) blocks of T trials.
        """
        self._check_receiver(k)
        x_k = np.asarray(x_k, dtype=np.complex128)
        y = np.asarray(y_tilde, dtype=np.complex128) - self.channels.G[k] @ (self.effective[k] @ x_k)
        return self.decoders[k] @ project_onto_perp(y, self.interference[k])

    def snr(self, k: int, noise: NoiseModel) -> float:
        """Analytic-expectation SNR of receiver k after interference projection.

        Numerator ||P_k G_k V_k||_F^2 with V_k an orthonormal basis of user k's
        subspace; the denominator replaces the noise by its expected projected
        power: sigma_z^2 ||P_k G_k||_F^2 + sigma_w^2 rank(P_k).  Returns +inf
        when both variances are zero.
        """
        self._check_receiver(k)
        signal, relay_gain, rank = self.snr_terms[k]
        denom = noise.sigma_relay_sq * relay_gain + noise.sigma_user_sq * rank
        if denom == 0:
            return float("inf")
        return float(signal / denom)

    def _check_receiver(self, k: int) -> None:
        if not 0 <= k < len(self.decoders):
            raise InvalidInput(f"user index {k} out of range")


def relay_map_success(constellation: Constellation) -> Fraction:
    """Exact MAP probability of the relay guessing an ordered pair from its sum.

    Equals (number of distinct pairwise sums, as map_success_table counts them) / |X|^2.
    """
    return Fraction(int(constellation.map_success_table().sum()), constellation.size**2)


@dataclass(frozen=True)
class SimReport:
    """One noise level's outcome: SNR, symbol-error and equivocation rates."""

    noise_var: float
    per_user_snr: list[float]
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
    tol: Tolerance = DEFAULT_TOL,
) -> list[SimReport]:
    """Full pipeline SER / equivocation sweep over a grid of noise variances.

    One system per sweep: a single generator seeded with seed draws the
    channels and so fixes the Link once, then every noise level draws its
    symbols, relay noise and per-user noise from it in turn.  The
    relay-equivocation tally uses the noiseless sums, matching the exact
    counting argument, and is therefore a Monte Carlo estimate of
    relay_map_success.
    """
    if trials < 1:
        raise InvalidInput("trials must be >= 1")
    noises = [NoiseModel(sigma_relay_sq=var, sigma_user_sq=var) for var in noise_grid]
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
    link = Link(strategy, channels, design_encoders(strategy, channels), tol)
    reports = []
    for var, noise in zip(noise_grid, noises):
        idx = [rng.integers(0, pts.size, size=(spec.d[i], trials)) for i in range(k_users)]
        x = [pts[ix] for ix in idx]
        r = link.observe(x, _complex_gaussian(rng, (n, trials), noise.sigma_relay_sq))

        ser = []
        snrs = []
        for k in range(k_users):
            y_tilde = channels.G[k] @ r + _complex_gaussian(rng, (n, trials), noise.sigma_user_sq)
            hard_idx = constellation.nearest_index(link.decode(k, y_tilde, x[k]))
            sent_idx = np.vstack(
                [idx[j][strategy.block_slice(j, k)] for j in strategy.partners(k)]
            )
            d_k = spec.d[k]
            errors = int(np.count_nonzero(hard_idx != sent_idx))
            ser.append(errors / (d_k * trials) if d_k else 0.0)
            snrs.append(link.snr(k, noise))

        relay_hits = 0
        relay_slots = 0
        for (i, j), dij in strategy.pair_dims().items():
            if dij == 0:
                continue
            ai = idx[i][strategy.block_slice(i, j)]
            aj = idx[j][strategy.block_slice(j, i)]
            relay_hits += succ_table[ai, aj].sum()
            relay_slots += ai.size
        relay_rate = relay_hits / relay_slots if relay_slots else 0.0

        reports.append(
            SimReport(
                noise_var=float(var),
                per_user_snr=snrs,
                per_user_ser=ser,
                relay_map_success_rate=float(relay_rate),
                trials=trials,
                seed=seed,
                config=config,
            )
        )
    return reports
