"""The verdicts of ChannelSet, Strategy.relay_map and verify_strategy against exact ranks and null spaces.

Inputs have Gaussian-integer entries in {-2..2} + i{-2..2} and N <= 4, and
every second one is made singular by construction: a column becomes a unit
(1, -1, i or -i) times another.  exact_rank decides each over Q(i).  A
nonsingular Gaussian-integer matrix has |det| >= 1, so its sigma_min is at
least 1 / sigma_max^(N-1), orders of magnitude above the rank threshold:
the program must refuse exactly the inputs that are singular.
"""

import itertools

import numpy as np
import pytest

from relay_align.errors import SingularChannel, StrategyInvalid
from relay_align.feasibility import Strategy, StrategySpec, verify_strategy
from relay_align.relaysim import ChannelSet
from relay_align.subspace import orthonormal_stack

from exact_rank import exact_null_space, exact_rank

CASES = 200
UNITS = (1, -1, 1j, -1j)


def _gaussian_integers(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.integers(-2, 3, shape) + 1j * rng.integers(-2, 3, shape)


def _make_dependent(columns: np.ndarray, rng: np.random.Generator) -> None:
    """Set one column of an N x m array, m >= 1, to a unit times another, or to zero when m = 1, in place."""
    if columns.shape[1] == 1:
        columns[:, 0] = 0
    else:
        j, l = rng.choice(columns.shape[1], 2, replace=False)
        columns[:, l] = UNITS[rng.integers(4)] * columns[:, j]


def test_exact_rank_is_complex_rank():
    assert exact_rank(np.array([[1, 1j], [1j, -1]])) == 1  # row 2 is i times row 1; over R the rows are independent
    assert exact_rank(np.array([[2, 1j], [1j, 2]])) == 2
    assert exact_rank(np.zeros((3, 2))) == 0
    assert exact_rank(np.eye(4) * (1 + 1j)) == 4
    with pytest.raises(ValueError):
        exact_rank(np.array([[0.5]]))


def test_exact_null_space_is_complex_null_space():
    assert exact_null_space(np.array([[1, 1j]])).tolist() == [[1j], [-1]]  # over R the embedding has nullity 2
    assert exact_null_space(np.eye(3)).shape == (3, 0)
    assert exact_null_space(np.zeros((2, 0))).shape == (0, 0)
    rng = np.random.default_rng(27)
    for _ in range(50):
        m, n = (int(v) for v in rng.integers(1, 5, 2))
        a = _gaussian_integers(rng, (m, n))
        _make_dependent(a, rng)
        null = exact_null_space(a)
        assert null.shape == (n, n - exact_rank(a))
        assert not (a @ null).any()
        assert exact_rank(null) == null.shape[1]
    with pytest.raises(ValueError):
        exact_null_space(np.array([[0.5]]))


def test_channel_set_refuses_exactly_the_singular_sets():
    rng = np.random.default_rng(24)
    verdicts = []
    for c in range(CASES):
        k, n = int(rng.integers(2, 4)), int(rng.integers(1, 5))
        mats = _gaussian_integers(rng, (2 * k, n, n))
        if c % 2:
            _make_dependent(mats[rng.integers(2 * k)], rng)
        short = [m for m in range(2 * k) if exact_rank(mats[m]) < n]
        names = [f"H_{m + 1}" if m < k else f"G_{m - k + 1}" for m in short]
        want = f"{names[0]} is singular" if names else "ok"
        try:
            ChannelSet(K=k, N=n, H=mats[:k], G=mats[k:])
            got = "ok"
        except SingularChannel as exc:
            got = str(exc)
        verdicts.append((got, want))
    assert [got for got, _ in verdicts] == [want for _, want in verdicts]
    assert all(got != "ok" for got, _ in verdicts[1::2])
    assert sum(got == "ok" for got, _ in verdicts[::2]) > CASES // 4


def _pair_table(rng: np.random.Generator) -> StrategySpec:
    """A consistent table of N columns over K users' pairs, each row sum d_i <= N, so sum(d_i) = 2N."""
    k, n = int(rng.integers(2, 5)), int(rng.integers(1, 5))
    pairs = list(itertools.combinations(range(k), 2))
    widths = rng.multinomial(n, [1 / len(pairs)] * len(pairs)).tolist()
    table = dict(zip(pairs, widths))
    return StrategySpec(K=k, N=n, d=tuple(sum(w for p, w in table.items() if i in p) for i in range(k)), pairwise=table)


def test_relay_map_refuses_exactly_the_singular_frames():
    rng = np.random.default_rng(25)
    verdicts = []
    for c in range(CASES):
        spec = _pair_table(rng)
        frame = _gaussian_integers(rng, (spec.N, spec.N))  # the pair blocks, side by side in pair order
        if c % 2:
            _make_dependent(frame, rng)
        ends = np.cumsum(list(spec.pairwise.values())).tolist()
        raw = {p: frame[:, e - w : e] for (p, w), e in zip(spec.pairwise.items(), ends) if w}
        strategy = Strategy(spec=spec, pair_bases={p: orthonormal_stack(b[None])[0] for p, b in raw.items()})
        try:
            strategy.relay_map()
            got = True
        except StrategyInvalid:
            got = False
        verdicts.append((got, exact_rank(frame) == spec.N))
    assert [got for got, _ in verdicts] == [want for _, want in verdicts]
    assert not any(got for got, _ in verdicts[1::2])
    assert sum(got for got, _ in verdicts[::2]) > CASES // 4


def test_verify_strategy_agrees_with_exact_ranks():
    # V_i is the span of user i's Gaussian-integer pair blocks S_i, orthonormalised; exactly, d_i is the rank of
    # S_i, dim V_i & V_j is d_i + d_j - rank[S_i | S_j], and the candidate verifies iff the frame has rank N.
    # The null space (x; y) of [S_i | -S_j] gives W_ij = S_i x, spanning V_i & V_j, so the failing report's
    # fields are exact too: user i splits iff its W_ij add up to d_i independent columns, the W_ij form a
    # basis iff they add up to N independent columns, and dim W_ij & V_l = dim W_ij + d_l - rank[W_ij | S_l]
    rng = np.random.default_rng(26)
    verdicts = []
    for c in range(CASES // 2):
        spec = _pair_table(rng)
        frame = _gaussian_integers(rng, (spec.N, spec.N))
        if c % 2:
            _make_dependent(frame, rng)
        ends = np.cumsum(list(spec.pairwise.values())).tolist()
        blocks = {p: frame[:, e - w : e] for (p, w), e in zip(spec.pairwise.items(), ends)}
        spans = [np.hstack([b for p, b in blocks.items() if i in p]) for i in range(spec.K)]
        report = verify_strategy([orthonormal_stack(v[None])[0] for v in spans], spec.N)
        dims = tuple(exact_rank(v) for v in spans)
        pair_dims = {(i, j): dims[i] + dims[j] - exact_rank(np.hstack([spans[i], spans[j]])) for i, j in blocks}
        meets = {
            (i, j): spans[i] @ exact_null_space(np.hstack([spans[i], -spans[j]]))[: spans[i].shape[1]] for i, j in blocks
        }
        ok = exact_rank(frame) == spec.N
        rows = [[meets[min(i, j), max(i, j)] for j in range(spec.K) if j != i] for i in range(spec.K)]
        per_user = tuple(
            sum(pair_dims[min(i, j), max(i, j)] for j in range(spec.K) if j != i) == dims[i] == exact_rank(np.hstack(row))
            for i, row in enumerate(rows)
        )
        global_ok = sum(pair_dims.values()) == spec.N == exact_rank(np.hstack(list(meets.values())))
        worst_triple = 0
        if not ok:  # an ok report scans no triple
            worst_triple = max(
                (pair_dims[i, j] + dims[l] - exact_rank(np.hstack([meets[i, j], spans[l]]))
                 for i, j, l in itertools.combinations(range(spec.K), 3)),
                default=0,
            )
        got = (report.ok, report.dims, report.pair_dims, report.per_user_ok, report.global_ok, report.worst_triple_dim)
        verdicts.append((got, (ok, dims, pair_dims, per_user, global_ok, worst_triple)))
    assert [got for got, _ in verdicts] == [want for _, want in verdicts]
    assert not any(got[0] for got, _ in verdicts[1::2])
    assert sum(got[0] for got, _ in verdicts[::2]) > CASES // 8
    # the failing half exercises every field: users that split and users that do not, and nonzero triples
    failing = [got for got, _ in verdicts if not got[0]]
    assert {u for got in failing for u in got[3]} == {True, False}
    assert any(got[5] > 0 for got in failing)
