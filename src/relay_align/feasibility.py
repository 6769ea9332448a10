"""Feasible tuples, strategy construction, sampling, and verification.

A strategy assigns each user i a subspace V_i of the relay space C^N such
that every V_i splits into its pairwise intersections and the whole relay
space splits into all pairwise intersections.  The relay then only ever sees
pairwise sums of symbols.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    InconsistentPairwise,
    InfeasibleTuple,
    InvalidInput,
    ResampleExhausted,
)
from .subspace import (
    Subspace,
    _check_orthonormal,
    contains_stack,
    intersect_stack,
    orthonormal_basis,
    orthonormal_stack,
    split_by_rank,
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
    "haar_stack",
]

Pair = tuple[int, int]

VERIFY_BLOCK = 256  # genericity trials drawn and verified per stacked call
MAX_ATTEMPTS = 10  # draws strategy_from_pairwise makes before it raises ResampleExhausted


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
        values = (self.K, self.N, *self.d, *(self.pairwise or {}).values())
        bad = [x for x in values if isinstance(x, bool) or not isinstance(x, (int, np.integer))]
        if bad:  # a float or a bool is rejected, never truncated
            raise InvalidInput(f"K, N, d and pairwise dimensions must be integers, got {bad[0]!r}")
        object.__setattr__(self, "K", int(self.K))
        object.__setattr__(self, "N", int(self.N))
        object.__setattr__(self, "d", tuple(map(int, self.d)))
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
    subspaces: list[Subspace] = field(init=False, repr=False)
    _interference: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        pb = {tuple(sorted(p)): np.asarray(b, dtype=np.complex128) for p, b in self.pair_bases.items()}
        for p, b in pb.items():
            if b.shape[0] != self.spec.N:
                raise DimensionMismatch(f"pair basis {p} has {b.shape[0]} rows, N={self.spec.N}")
            try:
                _check_orthonormal(b)
            except InvalidInput as exc:
                raise InvalidInput(f"pair basis {p}: {exc}") from None
        object.__setattr__(self, "pair_bases", pb)
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

    def interference_space(self, k: int) -> Subspace:
        """Direct sum of all pair intersections not involving user k.

        It depends on the pair bases alone, so it is computed once per k.
        """
        if k not in self._interference:
            blocks = [b for p, b in sorted(self.pair_bases.items()) if k not in p]
            cols = np.hstack(blocks) if blocks else np.zeros((self.spec.N, 0), dtype=np.complex128)
            space = orthonormal_basis(cols) if cols.shape[1] else Subspace.zero(self.spec.N)
            self._interference[k] = space
        return self._interference[k]


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


class _Verdicts(NamedTuple):
    """Verification outcomes of a block of T candidates, one row per trial."""

    pair_dims: np.ndarray  # (T, pairs), pairs in _pairs order
    per_user_ok: np.ndarray  # (T, K)
    global_ok: np.ndarray  # (T,)
    worst_triple_dim: np.ndarray  # (T,); 0 when the triple scan is skipped

    @property
    def ok(self) -> np.ndarray:
        return self.per_user_ok.all(axis=1) & self.global_ok


def _verify_stack(bases: list[np.ndarray], n: int, triples: bool) -> _Verdicts:
    """The direct-sum conditions on T candidates at once.

    bases[i] is a (T, n, d_i) stack of orthonormal bases of user i's subspace.
    Every step is one stacked LAPACK call over the trials; raises RaggedRank
    when they disagree on a rank.  The triple scan only feeds worst_triple_dim,
    never ok.
    """
    k, t = len(bases), bases[0].shape[0]
    inter = {(i, j): intersect_stack(bases[i], bases[j]) for i, j in _pairs(k)}
    pair_dims = [b.shape[2] for b in inter.values()]

    per_user = np.zeros((t, k), dtype=bool)
    for i in range(k):
        parts = [inter[tuple(sorted((i, j)))] for j in range(k) if j != i]
        total = orthonormal_stack(np.concatenate(parts, axis=2))
        if total.shape[2] == sum(p.shape[2] for p in parts) == bases[i].shape[2]:
            per_user[:, i] = contains_stack(bases[i], total)

    global_total = orthonormal_stack(np.concatenate(list(inter.values()), axis=2))
    global_ok = global_total.shape[2] == sum(pair_dims) == n

    worst_triple = 0
    if triples:
        for i, j, l in itertools.combinations(range(k), 3):
            worst_triple = max(worst_triple, intersect_stack(inter[(i, j)], bases[l]).shape[2])

    return _Verdicts(
        pair_dims=np.tile(pair_dims, (t, 1)),
        per_user_ok=per_user,
        global_ok=np.full(t, global_ok),
        worst_triple_dim=np.full(t, worst_triple),
    )


def verify_strategy(cand: list[Subspace], n: int) -> VerificationReport:
    """Check the direct-sum conditions on a candidate list of subspaces.

    Computes all pairwise intersections, all triple intersections, the
    per-user decomposition V_i = (+)_{j != i} V_i & V_j, and the global
    decomposition of C^N into all pairwise intersections: the T = 1 case of
    the stacked verifier generic_feasibility_rate runs.
    """
    k = len(cand)
    if k < 2:
        raise InvalidInput("need at least two subspaces")
    if any(s.ambient_dim != n for s in cand):
        raise DimensionMismatch("candidate ambient dimensions differ from N")
    v = _verify_stack([s.basis[None] for s in cand], n, triples=True)  # one trial: no rank split
    return VerificationReport(
        ok=bool(v.ok[0]),
        dims=tuple(s.d for s in cand),
        pair_dims={p: int(w) for p, w in zip(_pairs(k), v.pair_dims[0])},
        per_user_ok=tuple(bool(x) for x in v.per_user_ok[0]),
        global_ok=bool(v.global_ok[0]),
        worst_triple_dim=int(v.worst_triple_dim[0]),
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


def haar_stack(n: int, d: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Orthonormal bases of count uniformly random d-dimensional subspaces of C^n, as a (count, n, d) stack.

    One standard_normal call draws, per subspace in order, the n x d real parts
    and then the n x d imaginary parts: the values count successive
    haar_subspace calls draw.  Raises RaggedRank in the measure-zero event
    that the draws disagree on a numeric rank.
    """
    if n < 1 or not 0 <= d <= n:
        raise InvalidInput(f"need n >= 1 and 0 <= d <= n, got n={n}, d={d}")
    raw = rng.standard_normal((count, 2, n, d))
    return orthonormal_stack(raw[:, 0] + 1j * raw[:, 1])


def haar_subspace(n: int, d: int, rng: np.random.Generator) -> Subspace:
    """Uniformly random d-dimensional subspace of C^n; the count = 1 case of haar_stack."""
    return Subspace._of_checked(haar_stack(n, d, 1, rng)[0])


def sample_generic_strategy(spec: StrategySpec, rng: np.random.Generator) -> list[Subspace]:
    """K independent Haar-random d_i-dimensional subspaces of C^N."""
    if max(spec.d) > spec.N:
        raise InvalidInput("per-user dimension exceeds ambient dimension")
    return [haar_subspace(spec.N, di, rng) for di in spec.d]


def strategy_from_pairwise(spec: StrategySpec, rng: np.random.Generator) -> Strategy:
    """Random strategy realizing a prescribed pairwise dimension table.

    Samples each pair subspace Haar-uniformly and takes V_i as the span of
    user i's pair blocks; generically this verifies, so failures are treated
    as degenerate draws and resampled, up to MAX_ATTEMPTS draws in all.
    """
    pw = spec.pairwise_or_raise()
    if not is_feasible_tuple(spec):
        raise InfeasibleTuple(f"tuple (K={spec.K}, N={spec.N}, d={spec.d}) is not feasible")
    for _ in range(MAX_ATTEMPTS):
        pair_bases = {p: haar_subspace(spec.N, dij, rng).basis for p, dij in pw.items()}
        cand = Strategy(spec=spec, pair_bases=pair_bases)
        report = verify_strategy(cand.subspaces, spec.N)
        dims_match = all(report.pair_dims[p] == pw.get(p, 0) for p in report.pair_dims)
        if report.ok and dims_match:
            return cand
    raise ResampleExhausted(f"no verifying draw in {MAX_ATTEMPTS} attempts for {spec}")


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


def _gaussian_stacks(n: int, dims: tuple[int, ...], rngs: list[np.random.Generator]) -> list[np.ndarray]:
    """Complex Gaussian (T, n, d) stacks, one per d in dims, T = len(rngs).

    Each generator makes one standard_normal call, whose values are, per d in
    order, the n x d real parts and then the n x d imaginary parts: the values
    sample_generic_strategy draws from that generator.
    """
    sizes = [n * d for d in dims]
    raw = np.empty((len(rngs), 2 * sum(sizes)))
    for row, rng in zip(raw, rngs):
        rng.standard_normal(out=row)
    stacks, off = [], 0
    for d, size in zip(dims, sizes):
        re = raw[:, off : off + size].reshape(len(rngs), n, d)
        im = raw[:, off + size : off + 2 * size].reshape(len(rngs), n, d)
        stacks.append(re + 1j * im)
        off += 2 * size
    return stacks


def generic_feasibility_rate(spec: StrategySpec, trials: int, rng: np.random.Generator) -> float:
    """Fraction of Haar-random strategies that verify.

    Each trial draws its subspaces from its own child generator, so the result
    does not depend on evaluation order, and equals the fraction of the
    children rng.spawn(trials) for which
    verify_strategy(sample_generic_strategy(spec, child)).ok holds.  Trials
    are spawned, drawn and verified in blocks of VERIFY_BLOCK with the stacked
    verifier, without the triple scan, which never decides ok.
    """
    if trials < 1:
        raise InvalidInput("trials must be >= 1")
    if max(spec.d) > spec.N:
        raise InvalidInput("per-user dimension exceeds ambient dimension")

    def run(draws: list[np.ndarray]) -> _Verdicts:
        return _verify_stack([orthonormal_stack(g) for g in draws], spec.N, triples=False)

    hits = 0
    for start in range(0, trials, VERIFY_BLOCK):
        # successive spawn calls continue the numbering of the children
        children = rng.spawn(min(VERIFY_BLOCK, trials - start))
        hits += int(np.count_nonzero(split_by_rank(run, _gaussian_stacks(spec.N, spec.d, children)).ok))
    return hits / trials
