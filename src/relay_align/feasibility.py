"""Feasible tuples, strategy construction, sampling, and verification.

A strategy assigns each user i a subspace V_i of the relay space C^N such
that every V_i splits into its pairwise intersections and the whole relay
space splits into all pairwise intersections.  The relay then only ever sees
pairwise sums of symbols.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    InconsistentPairwise,
    InfeasibleTuple,
    InvalidInput,
    ResampleExhausted,
)
from .subspace import (
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    intersect,
    is_direct_sum,
    orthonormal_basis,
    subspace_sum,
)

__all__ = [
    "StrategySpec",
    "Strategy",
    "VerificationReport",
    "feasibility_reason",
    "is_feasible_tuple",
    "construct_strategy",
    "verify_strategy",
    "sample_generic_strategy",
    "strategy_from_pairwise",
    "feasible_variety_dim",
    "generic_feasibility_rate",
    "symmetric_pairwise_table",
    "paired_pairwise_table",
    "haar_subspace",
]

Pair = tuple[int, int]


def _pairs(k: int) -> list[Pair]:
    return list(itertools.combinations(range(k), 2))


@dataclass(frozen=True)
class StrategySpec:
    """Parameters (K, N, d_1..d_K), optionally with pairwise dimensions d_ij.

    Users are 0-indexed; pairwise keys are tuples (i, j) with i < j.
    """

    K: int
    N: int
    d: tuple[int, ...]
    pairwise: dict[Pair, int] | None = None

    def __post_init__(self):
        object.__setattr__(self, "d", tuple(int(x) for x in self.d))
        if self.K < 2:
            raise InvalidInput("need at least two users")
        if self.N < 1:
            raise InvalidInput("ambient dimension must be >= 1")
        if len(self.d) != self.K:
            raise InvalidInput(f"expected {self.K} per-user dimensions, got {len(self.d)}")
        if any(di < 0 for di in self.d):
            raise InvalidInput("per-user dimensions must be >= 0")
        if self.pairwise is not None:
            pw = {tuple(sorted(p)): int(v) for p, v in self.pairwise.items()}
            if any(not (0 <= i < j < self.K) for i, j in pw):
                raise InconsistentPairwise("pairwise keys must be pairs of distinct user indices")
            if any(v < 0 for v in pw.values()):
                raise InconsistentPairwise("pairwise dimensions must be >= 0")
            for i in range(self.K):
                row = sum(pw.get(tuple(sorted((i, j))), 0) for j in range(self.K) if j != i)
                if row != self.d[i]:
                    raise InconsistentPairwise(
                        f"pairwise row sum for user {i} is {row}, expected d_i={self.d[i]}"
                    )
            object.__setattr__(self, "pairwise", pw)

    def pairwise_or_raise(self) -> dict[Pair, int]:
        if self.pairwise is None:
            raise InconsistentPairwise("spec has no pairwise dimension table")
        return self.pairwise


def feasibility_reason(spec: StrategySpec) -> str:
    """Verdict on a tuple: "ok", "sum" (sum(d_i) != 2N) or "bound" (some d_i > N)."""
    if sum(spec.d) != 2 * spec.N:
        return "sum"
    if max(spec.d) > spec.N:
        return "bound"
    return "ok"


def is_feasible_tuple(spec: StrategySpec) -> bool:
    """True iff sum(d_i) = 2N and every d_i <= N."""
    return feasibility_reason(spec) == "ok"


@dataclass(frozen=True)
class Strategy:
    """K subspaces plus explicit orthonormal bases B_ij of the intersections.

    Each user's subspace basis is the concatenation of its pair bases in
    ascending partner order; encoders and decoders rely on this convention.
    """

    spec: StrategySpec
    pair_bases: dict[Pair, np.ndarray]
    subspaces: list[Subspace] = field(default=None, repr=False)

    def __post_init__(self):
        pb = {tuple(sorted(p)): np.asarray(b, dtype=np.complex128) for p, b in self.pair_bases.items()}
        for (i, j), b in pb.items():
            if b.shape[0] != self.spec.N:
                raise DimensionMismatch(f"pair basis {(i, j)} has {b.shape[0]} rows, N={self.spec.N}")
            gram = b.conj().T @ b
            if np.linalg.norm(gram - np.eye(b.shape[1])) > 1e-8:
                raise InvalidInput(f"pair basis {(i, j)} does not have orthonormal columns")
        object.__setattr__(self, "pair_bases", pb)
        if self.subspaces is None:
            subs = [
                orthonormal_basis(self.user_basis(i)) if self.user_basis(i).shape[1] else Subspace.zero(self.spec.N)
                for i in range(self.spec.K)
            ]
            object.__setattr__(self, "subspaces", subs)

    def pair_dims(self) -> dict[Pair, int]:
        return {p: b.shape[1] for p, b in self.pair_bases.items()}

    def partners(self, i: int) -> list[int]:
        """Partners of user i in ascending order (zero-width pairs included)."""
        return [j for j in range(self.spec.K) if j != i]

    def pair_basis(self, i: int, j: int) -> np.ndarray:
        return self.pair_bases.get(tuple(sorted((i, j))), np.zeros((self.spec.N, 0), dtype=np.complex128))

    def user_basis(self, i: int) -> np.ndarray:
        """Columns of V_i: pair bases B_ij concatenated over j != i ascending."""
        blocks = [self.pair_basis(i, j) for j in self.partners(i)]
        return np.hstack(blocks) if blocks else np.zeros((self.spec.N, 0), dtype=np.complex128)

    def block_slice(self, i: int, j: int) -> slice:
        """Slice of user i's symbol vector that serves the pair {i, j}."""
        off = 0
        for p in self.partners(i):
            w = self.pair_basis(i, p).shape[1]
            if p == j:
                return slice(off, off + w)
            off += w
        raise InvalidInput(f"{j} is not a partner of {i}")

    def interference_space(self, k: int, tol: Tolerance = DEFAULT_TOL) -> Subspace:
        """Direct sum of all pair intersections not involving user k."""
        blocks = [b for p, b in sorted(self.pair_bases.items()) if k not in p]
        cols = np.hstack(blocks) if blocks else np.zeros((self.spec.N, 0), dtype=np.complex128)
        return orthonormal_basis(cols, tol) if cols.shape[1] else Subspace.zero(self.spec.N)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking a candidate strategy against the three conditions."""

    ok: bool
    dims: tuple[int, ...]
    pair_dims: dict[Pair, int]
    per_user_ok: tuple[bool, ...]
    global_ok: bool
    worst_triple_dim: int

    def failed_conditions(self) -> list[str]:
        out = []
        if not all(self.per_user_ok):
            out.append("per-user direct-sum decomposition (ii)")
        if not self.global_ok:
            out.append("global direct-sum decomposition (iii)")
        if self.worst_triple_dim > 0:
            out.append("nonzero triple intersection")
        return out


def verify_strategy(cand: list[Subspace], n: int, tol: Tolerance = DEFAULT_TOL) -> VerificationReport:
    """Check the direct-sum conditions on a candidate list of subspaces.

    Computes all pairwise intersections, all triple intersections, the
    per-user decomposition V_i = (+)_{j != i} V_i & V_j, and the global
    decomposition of C^N into all pairwise intersections.
    """
    k = len(cand)
    if k < 2:
        raise InvalidInput("need at least two subspaces")
    if any(s.ambient_dim != n for s in cand):
        raise DimensionMismatch("candidate ambient dimensions differ from N")

    inter = {(i, j): intersect(cand[i], cand[j], tol) for i, j in _pairs(k)}
    pair_dims = {p: s.d for p, s in inter.items()}

    per_user = []
    for i in range(k):
        parts = [inter[tuple(sorted((i, j)))] for j in range(k) if j != i]
        total = subspace_sum(parts, tol)
        ok_i = (
            total.d == sum(p.d for p in parts)
            and total.d == cand[i].d
            and cand[i].contains(total)
        )
        per_user.append(ok_i)

    all_parts = [inter[p] for p in _pairs(k)]
    global_total = subspace_sum(all_parts, tol)
    global_ok = global_total.d == sum(p.d for p in all_parts) == n

    worst_triple = 0
    for i, j, l in itertools.combinations(range(k), 3):
        t = intersect(inter[(i, j)], cand[l], tol)
        worst_triple = max(worst_triple, t.d)

    ok = all(per_user) and global_ok
    return VerificationReport(
        ok=ok,
        dims=tuple(s.d for s in cand),
        pair_dims=pair_dims,
        per_user_ok=tuple(per_user),
        global_ok=global_ok,
        worst_triple_dim=worst_triple,
    )


def construct_strategy(spec: StrategySpec) -> Strategy:
    """Deterministic strategy from the doubled-space projection construction.

    Positions 1..2N are split into consecutive windows of sizes d_1..d_K;
    position m maps to the coordinate vector e_{(m-1) mod N}.  Each coordinate
    index lands in exactly two windows, which pins down every pairwise
    intersection as a span of coordinate vectors.
    """
    if not is_feasible_tuple(spec):
        raise InfeasibleTuple(f"tuple (K={spec.K}, N={spec.N}, d={spec.d}) is not feasible")
    n, k = spec.N, spec.K
    offsets = np.concatenate([[0], np.cumsum(spec.d)])
    windows = [
        {m % n for m in range(offsets[i], offsets[i + 1])} for i in range(k)
    ]
    eye = np.eye(n, dtype=np.complex128)
    pair_bases: dict[Pair, np.ndarray] = {}
    for i, j in _pairs(k):
        shared = sorted(windows[i] & windows[j])
        pair_bases[(i, j)] = eye[:, shared]
    return Strategy(spec=spec, pair_bases=pair_bases)


def haar_subspace(n: int, d: int, rng: np.random.Generator, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Uniformly random d-dimensional subspace of C^n."""
    if d == 0:
        return Subspace.zero(n)
    g = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return orthonormal_basis(g, tol)


def sample_generic_strategy(
    spec: StrategySpec, rng: np.random.Generator, tol: Tolerance = DEFAULT_TOL
) -> list[Subspace]:
    """K independent Haar-random d_i-dimensional subspaces of C^N."""
    if max(spec.d) > spec.N:
        raise InvalidInput("per-user dimension exceeds ambient dimension")
    return [haar_subspace(spec.N, di, rng, tol) for di in spec.d]


def strategy_from_pairwise(
    spec: StrategySpec,
    rng: np.random.Generator,
    tol: Tolerance = DEFAULT_TOL,
    max_attempts: int = 10,
) -> Strategy:
    """Random strategy realizing a prescribed pairwise dimension table.

    Samples each pair subspace Haar-uniformly and takes V_i as the span of
    user i's pair blocks; generically this verifies, so failures are treated
    as degenerate draws and resampled.
    """
    pw = spec.pairwise_or_raise()
    if not is_feasible_tuple(spec):
        raise InfeasibleTuple(f"tuple (K={spec.K}, N={spec.N}, d={spec.d}) is not feasible")
    for _ in range(max_attempts):
        pair_bases = {
            p: haar_subspace(spec.N, dij, rng, tol).basis for p, dij in pw.items()
        }
        cand = Strategy(spec=spec, pair_bases=pair_bases)
        report = verify_strategy(cand.subspaces, spec.N, tol)
        dims_match = all(report.pair_dims[p] == pw.get(p, 0) for p in report.pair_dims)
        if report.ok and dims_match:
            return cand
    raise ResampleExhausted(f"no verifying draw in {max_attempts} attempts for {spec}")


def feasible_variety_dim(spec: StrategySpec) -> int:
    """Dimension of the variety of strategies with fixed pairwise dimensions.

    Closed form: sum over pairs of d_ij * (N - d_ij).
    """
    pw = spec.pairwise_or_raise()
    if any(v > spec.N for v in pw.values()):
        raise InconsistentPairwise("a pairwise dimension exceeds N")
    return sum(v * (spec.N - v) for v in pw.values())


def symmetric_pairwise_table(k: int, n: int) -> StrategySpec:
    """Spec where every pair exchanges the same number of symbols.

    Requires d = 2N/K and d_ij = d/(K-1) to be integers; the resulting
    variety dimension is N^2 * (1 - 2/(K*(K-1))).
    """
    if (2 * n) % k:
        raise InconsistentPairwise(f"2N/K = {2 * n}/{k} is not an integer")
    d = 2 * n // k
    if d % (k - 1):
        raise InconsistentPairwise(f"d/(K-1) = {d}/{k - 1} is not an integer")
    dij = d // (k - 1)
    return StrategySpec(K=k, N=n, d=(d,) * k, pairwise={p: dij for p in _pairs(k)})


def paired_pairwise_table(k: int, n: int) -> StrategySpec:
    """Spec pairing users (0,1), (2,3), ... with all cross-pair dims zero.

    Requires K even and d = 2N/K an integer; the resulting variety dimension
    is N^2 * (1 - 2/K).
    """
    if k % 2:
        raise InconsistentPairwise("pairing requires an even user count")
    if (2 * n) % k:
        raise InconsistentPairwise(f"2N/K = {2 * n}/{k} is not an integer")
    d = 2 * n // k
    pw = {p: 0 for p in _pairs(k)}
    for i in range(0, k, 2):
        pw[(i, i + 1)] = d
    return StrategySpec(K=k, N=n, d=(d,) * k, pairwise=pw)


def generic_feasibility_rate(
    spec: StrategySpec,
    trials: int,
    rng: np.random.Generator,
    tol: Tolerance = DEFAULT_TOL,
) -> float:
    """Fraction of Haar-random strategies that verify.

    Each trial uses an independent child generator so the result does not
    depend on evaluation order.
    """
    if trials < 1:
        raise InvalidInput("trials must be >= 1")
    children = rng.spawn(trials)
    hits = 0
    for child in children:
        cand = sample_generic_strategy(spec, child, tol)
        if verify_strategy(cand, spec.N, tol).ok:
            hits += 1
    return hits / trials
