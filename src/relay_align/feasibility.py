"""Feasible tuples, strategy construction, sampling, and verification.

A strategy assigns each user i a subspace V_i of the relay space C^N such
that every V_i splits into its pairwise intersections and the whole relay
space splits into all pairwise intersections.  The relay then only ever sees
pairwise sums of symbols.  A Strategy holds those intersections as
orthonormal blocks B_ij, so it is valid iff its pair frame [B_01 | B_02 | ...]
is a basis of C^N (Strategy.relay_map).  Users and pairs are 0-based in the
library; files, outputs and the messages the CLI prints name pair (i, j) by
its 1-based key "i-j" (pair_key, parse_pair_key) and user i as i + 1.
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
    StrategyInvalid,
)
from .subspace import (
    _check_orthonormal,
    _complex_gaussian,
    _full_column_rank,
    blocks,
    intersect_stack,
    is_basis,
    orthonormal_stack,
    split_by_rank,
)

__all__ = [
    "StrategySpec",
    "Strategy",
    "VerificationReport",
    "pair_key",
    "parse_pair_key",
    "feasibility_reason",
    "is_feasible_tuple",
    "generic_verdict",
    "construct_strategy",
    "verify_strategy",
    "sample_generic_strategy",
    "strategy_from_pairwise",
    "feasible_variety_dim",
    "generic_feasibility_rate",
    "symmetric_pairwise_table",
    "paired_pairwise_table",
    "haar_stack",
]

Pair = tuple[int, int]


def _pairs(k: int) -> list[Pair]:
    return list(itertools.combinations(range(k), 2))


def pair_key(p: Pair) -> str:
    """The 1-based key "i-j" of the 0-based pair p = (i, j): a pair's one name in files, outputs and messages."""
    return f"{p[0] + 1}-{p[1] + 1}"


def parse_pair_key(key: str, k: int) -> Pair:
    """The 0-based pair (i, j), i < j < k, of its one key pair_key((i, j)); other spellings raise InvalidInput."""
    i, _, j = key.partition("-")
    if i.isdecimal() and j.isdecimal() and len(key) <= 2 * len(str(k)) + 1:  # bounds the int() conversions
        p = int(i) - 1, int(j) - 1
        if 0 <= p[0] < p[1] < k and key == pair_key(p):
            return p
    raise InvalidInput(f"bad pair key {key!r}: expected 'i-j', 1 <= i < j <= K={k}, no leading zeros")


def _row_sums(k: int, table: dict[Pair, int]) -> list[int]:
    """sum_{j != i} table[i, j] for each user i, in one pass: each pair adds its value to the rows of i and of j."""
    rows = [0] * k
    for (i, j), v in table.items():
        rows[i] += v
        rows[j] += v
    return rows


@dataclass(frozen=True)
class StrategySpec:
    """Parameters (K, N, d_1..d_K), optionally with pairwise dimensions d_ij.

    Users are 0-indexed; pairwise keys are tuples (i, j) with i < j, kept in
    _pairs order whatever order they are given in, so what is drawn from a
    table does not depend on the key order of its file.
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
            pairs = set(_pairs(self.K))
            bad = [p for p in self.pairwise if p not in pairs]
            if bad:
                raise InconsistentPairwise(f"pairwise key {bad[0]!r} is not (i, j) with 0 <= i < j < K={self.K}")
            pw = {tuple(p): int(v) for p, v in sorted(self.pairwise.items())}  # _pairs order, whatever the given one
            if any(v < 0 for v in pw.values()):
                raise InconsistentPairwise("pairwise dimensions must be >= 0")
            for i, (row, d) in enumerate(zip(_row_sums(self.K, pw), self.d)):
                if row != d:
                    raise InconsistentPairwise(f"pairwise row sum for user {i + 1} is {row}, expected d_i={d}")
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


def generic_verdict(spec: StrategySpec) -> tuple[dict[Pair, int], bool]:
    """The pair dimensions e_ij of Haar-random subspaces of this shape, and whether they generically make a strategy.

    Generic subspaces of dimensions d_i and d_j meet in dimension
    e_ij = max(0, d_i + d_j - N) almost surely.  A valid strategy splits
    each V_i into its pair intersections, so a Haar-random draw can verify
    only if every row sum_{j != i} e_ij equals d_i.  The tuple is generic iff
    it is feasible and that holds; generic_feasibility_rate is then 1, and
    otherwise 0 (tests check this on every feasible shape up to K=5, N=6).
    """
    e = {(i, j): max(0, spec.d[i] + spec.d[j] - spec.N) for i, j in _pairs(spec.K)}
    return e, is_feasible_tuple(spec) and _row_sums(spec.K, e) == list(spec.d)


@dataclass(frozen=True)
class Strategy:
    """K subspaces plus explicit orthonormal bases B_ij of the intersections.

    __post_init__ fixes the layout once.  pair_bases holds every pair (i, j),
    0 <= i < j < K, in _pairs order, and any other key raises InvalidInput.
    Only the blocks given are converted and checked; each omitted pair is one
    shared read-only N x 0 block, so a strategy costs its nonempty blocks, at
    most N of them when it is valid.  frame is the pair frame S = [B_01 |
    B_02 | ...], the nonempty blocks stacked in _pairs order (read-only),
    and slots[i] are the columns of S holding user i's blocks, partners
    ascending.  user_bases[i] = frame[:, slots[i]] is the basis of V_i that
    encoders and decoders use.
    """

    spec: StrategySpec
    pair_bases: dict[Pair, np.ndarray]
    frame: np.ndarray = field(init=False, repr=False)
    slots: list[np.ndarray] = field(init=False, repr=False)
    user_bases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        n, k = self.spec.N, self.spec.K
        pairs = dict.fromkeys(_pairs(k))  # ordered, with fast membership
        bad = [p for p in self.pair_bases if p not in pairs]
        if bad:
            raise InvalidInput(f"pair basis key {bad[0]!r} is not (i, j) with 0 <= i < j < K={k}")
        empty = np.zeros((n, 0), dtype=np.complex128)
        empty.flags.writeable = False
        pb = dict.fromkeys(pairs, empty)
        given = sorted(self.pair_bases)  # in _pairs order
        for p in given:
            b = pb[p] = np.asarray(self.pair_bases[p], dtype=np.complex128)
            if b.ndim != 2 or b.shape[0] != n:
                raise DimensionMismatch(f"pair basis {pair_key(p)} has shape {b.shape}, expected N={n} rows")
            try:
                _check_orthonormal(b)
            except InvalidInput as exc:
                raise InvalidInput(f"pair basis {pair_key(p)}: {exc}") from None
        frame = np.hstack([empty, *(pb[p] for p in given)])  # empty gives S its N rows when no pair is given
        frame.flags.writeable = False
        # the pair (i, j) of each column of S; the pairs holding i, in _pairs order, are i's partners ascending
        column_pairs = np.repeat(np.reshape(given, (-1, 2)), [pb[p].shape[1] for p in given], axis=0)
        slots = [np.flatnonzero((column_pairs == i).any(axis=1)) for i in range(k)]
        object.__setattr__(self, "pair_bases", pb)
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "user_bases", [frame[:, s] for s in slots])

    @property
    def subspaces(self) -> list[np.ndarray]:
        """Orthonormal bases of V_i = span user_bases[i]: verify_strategy's input for a failing file and tests."""
        return [orthonormal_stack(b[None])[0] for b in self.user_bases]

    def pair_dims(self) -> dict[Pair, int]:
        return {p: b.shape[1] for p, b in self.pair_bases.items()}

    def relay_map(self) -> np.ndarray:
        """P = S^-1 for the pair frame S = frame.

        The one validity test: the strategy is valid iff S is a basis of C^N.
        Raises StrategyInvalid unless each user's slots number its declared
        d_i and S has N columns of full numeric rank (subspace.is_basis).
        """
        widths = tuple(len(s) for s in self.slots)
        if widths != self.spec.d:
            raise StrategyInvalid(f"user widths {widths} differ from the declared d={self.spec.d}")
        if not is_basis(self.frame[None])[0]:
            raise StrategyInvalid(f"the pair frame ({self.frame.shape[1]} columns) is not a basis of C^{self.spec.N}")
        return np.linalg.inv(self.frame)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking a candidate strategy against the three conditions."""

    ok: bool
    dims: tuple[int, ...]
    pair_dims: dict[Pair, int]
    per_user_ok: tuple[bool, ...]
    global_ok: bool
    worst_triple_dim: int  # scanned only when ok is False; 0 for an ok report

    def failed_conditions(self) -> list[str]:
        out = []
        if not all(self.per_user_ok):
            out.append("per-user direct-sum decomposition (ii)")
        if not self.global_ok:
            out.append("global direct-sum decomposition (iii)")
        if self.worst_triple_dim > 0:
            out.append("nonzero triple intersection")
        return out


def _verify_stack(bases: list[np.ndarray]) -> tuple[dict[Pair, np.ndarray], np.ndarray]:
    """The pair intersections of T candidates, in _pairs order, and whether they form a basis of C^n (iii).

    bases[i] is a (T, n, d_i) stack of orthonormal bases of user i's subspace.
    Each pair is one intersect_stack call, the verdict one is_basis call; a
    pair with d_i + d_j <= n computes singular vectors only when one of its
    trials meets.  Raises RaggedRank when the trials disagree on a rank.
    With sum(d_i) = 2N the basis verdict (T bools) is the whole verdict: the
    V_i & V_j, j != i, are then independent inside V_i, so each row adds up
    to at most d_i, and the rows summing to 2N forces each to d_i, which is
    (ii).
    """
    inter = {(i, j): intersect_stack(bases[i], bases[j]) for i, j in _pairs(len(bases))}
    return inter, is_basis(np.concatenate(list(inter.values()), axis=2))


def verify_strategy(cand: list[np.ndarray], n: int) -> VerificationReport:
    """Check the direct-sum conditions on a candidate list of orthonormal N x d_i bases.

    The candidate passes iff sum(d_i) = 2N and its pairwise intersections form
    a basis of C^N (iii), which implies the per-user decomposition
    V_i = (+)_{j != i} V_i & V_j (ii) (_verify_stack).  Only a failing
    candidate pays for the per-user verdicts and the triple scan of its report:
    in an ok one a vector of V_i & V_j & V_l, l not in {i, j}, has two
    decompositions, so it is zero.
    A basis that is not an n-row 2-d array raises DimensionMismatch, and one
    that is non-finite or not orthonormal raises InvalidInput.
    """
    k = len(cand)
    if k < 2:
        raise InvalidInput("need at least two subspaces")
    if any(np.ndim(b) != 2 or np.shape(b)[0] != n for b in cand):
        raise DimensionMismatch(f"candidate bases must be 2-d with N={n} rows")
    bases = [np.asarray(b, dtype=np.complex128)[None] for b in cand]
    for b in bases:
        _check_orthonormal(b)
    dims = tuple(b.shape[2] for b in bases)
    inter, basis = _verify_stack(bases)  # one trial: no rank split
    ok = sum(dims) == 2 * n and bool(basis[0])
    per_user, worst_triple = (True,) * k, 0
    if not ok:
        # the intersections lie in V_i by construction, so V_i splits into them iff they add up to its rank:
        # d_i columns of full rank, a verdict the singular values alone give
        parts = [np.concatenate([inter[min(i, j), max(i, j)] for j in range(k) if j != i], axis=2) for i in range(k)]
        per_user = tuple(p.shape[2] == d and bool(_full_column_rank(p)[0]) for p, d in zip(parts, dims))
        # V_i & V_j & V_l, i < j < l, from the pair intersection V_i & V_j already taken
        triples = itertools.combinations(range(k), 3)
        worst_triple = max((intersect_stack(inter[i, j], bases[l]).shape[2] for i, j, l in triples), default=0)
    return VerificationReport(
        ok=ok,
        dims=dims,
        pair_dims={p: b.shape[2] for p, b in inter.items()},
        per_user_ok=per_user,
        global_ok=bool(basis[0]),
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
    n = spec.N
    owner = np.repeat(np.arange(spec.K), spec.d).tolist()  # the user whose window holds position m
    shared: dict[Pair, list[int]] = {}
    for c, pair in enumerate(zip(owner[:n], owner[n:])):  # coordinate c sits at positions c and c + N
        shared.setdefault(pair, []).append(c)
    eye = np.eye(n, dtype=np.complex128)
    return Strategy(spec=spec, pair_bases={p: eye[:, cols] for p, cols in shared.items()})


def haar_stack(n: int, d: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Orthonormal bases of count uniformly random d-dimensional subspaces of C^n, as a (count, n, d) stack.

    One drawer call (subspace._complex_gaussian) draws a row per subspace, its
    n x d real parts and then its n x d imaginary parts: the values count
    successive haar_stack(n, d, 1, rng) calls draw.  Raises RaggedRank in the
    measure-zero event that the draws disagree on a numeric rank.
    """
    if n < 1 or not 0 <= d <= n:
        raise InvalidInput(f"need n >= 1 and 0 <= d <= n, got n={n}, d={d}")
    return orthonormal_stack(_complex_gaussian(rng, count, n * d, 2.0).reshape(count, n, d))


def _gaussian_tuples(spec: StrategySpec, count: int, rng: np.random.Generator) -> list[np.ndarray]:
    """(count, N, d_i) complex Gaussian stacks, user by user: one drawer call of a row of N sum(d_i) per trial."""
    raw = np.split(_complex_gaussian(rng, count, spec.N * sum(spec.d), 2.0), np.cumsum(spec.d)[:-1] * spec.N, axis=1)
    return [g.reshape(count, spec.N, d) for g, d in zip(raw, spec.d)]


def sample_generic_strategy(spec: StrategySpec, rng: np.random.Generator) -> list[np.ndarray]:
    """Orthonormal bases of K independent Haar-random d_i-dimensional subspaces of C^N: one trial of genericity."""
    if max(spec.d) > spec.N:
        raise InvalidInput("per-user dimension exceeds ambient dimension")
    return [orthonormal_stack(g)[0] for g in _gaussian_tuples(spec, 1, rng)]


def strategy_from_pairwise(spec: StrategySpec, rng: np.random.Generator) -> Strategy:
    """Random strategy realizing a prescribed pairwise dimension table.

    Draws each nonempty pair block once, Haar-uniformly, by one haar_stack
    call per pair in _pairs order, and takes V_i as the span of user i's
    pair blocks.  The draw is valid, with V_i & V_j = span B_ij of the
    prescribed width, iff its pair frame is a basis of C^N
    (Strategy.relay_map).  A Haar frame of N columns is one with probability
    one, so the draw is used once: a frame that is not raises relay_map's
    StrategyInvalid.
    """
    pw = spec.pairwise_or_raise()
    if not is_feasible_tuple(spec):
        raise InfeasibleTuple(f"tuple (K={spec.K}, N={spec.N}, d={spec.d}) is not feasible")
    strategy = Strategy(spec=spec, pair_bases={p: haar_stack(spec.N, dij, 1, rng)[0] for p, dij in pw.items() if dij})
    strategy.relay_map()  # StrategyInvalid unless the pair frame is a basis
    return strategy


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


def generic_feasibility_rate(spec: StrategySpec, trials: int, rng: np.random.Generator) -> float:
    """Fraction of Haar-random strategies that verify.

    Trial t draws the subspaces of the t-th of trials successive
    sample_generic_strategy(spec, rng) calls, one drawer row each, and the
    result is the fraction of those draws for which verify_strategy(draw,
    spec.N).ok holds, so it does not depend on evaluation order and a run's
    trials are a prefix of a longer run's.  Each block of subspace.blocks, N
    sum(d_i) entries a trial and K(K + 1)/2 kernel calls (K
    orthonormalisations, K(K - 1)/2 pair intersections), is one drawer call
    and one _verify_stack; a pair with d_i + d_j <= N generically does not
    meet and costs one values-only SVD.
    With sum(d_i) != 2N no draw can pass, so none is made and the rate is 0.
    Otherwise the rate is 1 or 0 as generic_verdict says, up to draws of
    probability zero.
    """
    if trials < 1:
        raise InvalidInput("trials must be >= 1")
    if max(spec.d) > spec.N:
        raise InvalidInput("per-user dimension exceeds ambient dimension")
    if sum(spec.d) != 2 * spec.N:
        return 0.0

    def run(draws: list[np.ndarray]) -> tuple[np.ndarray]:
        return (_verify_stack([orthonormal_stack(g) for g in draws])[1],)

    hits = 0
    for block in blocks(trials, spec.N * sum(spec.d), spec.K * (spec.K + 1) // 2):
        hits += int(np.count_nonzero(split_by_rank(run, _gaussian_tuples(spec, block.stop - block.start, rng))[0]))
    return hits / trials
