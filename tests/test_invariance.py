"""Verdicts are facts of linear algebra over C^N, so symmetries of C^N and of the user labels keep them.

Candidates come from construct_strategy on random feasible tuples (K 3-5,
N 2-6), turned by a random unitary so that no block is real; every second one
has its narrowest pair block moved into the span of the other blocks, so that
it fails.  Most candidates hold pairs that meet in 0, so the N x 0 blocks and
intersections take the general path of the subspace kernels here too.  Each
transform must leave verify_strategy's report and the verdict of
Strategy.relay_map unchanged, with per-user and per-pair fields relabelled
with the users.
"""

import numpy as np
import pytest

from relay_align.errors import StrategyInvalid
from relay_align.feasibility import (
    Strategy,
    StrategySpec,
    construct_strategy,
    haar_stack,
    is_feasible_tuple,
    verify_strategy,
)
from relay_align.subspace import orthonormal_stack

CANDIDATES = 300


def _candidate(failing: bool, rng: np.random.Generator) -> Strategy:
    while True:
        k, n = int(rng.integers(3, 6)), int(rng.integers(2, 7))
        spec = StrategySpec(K=k, N=n, d=tuple(rng.integers(0, n + 1, size=k)))
        # a failing candidate needs a second block to move its narrowest into
        if is_feasible_tuple(spec) and not (failing and sorted(spec.d)[-2:] == [n, n]):
            break
    turn = haar_stack(n, n, 1, rng)[0]
    blocks = {p: turn @ b for p, b in construct_strategy(spec).pair_bases.items() if b.shape[1]}
    if failing:
        narrowest = min(blocks, key=lambda p: blocks[p].shape[1])
        others = np.hstack([b for p, b in blocks.items() if p != narrowest])
        width = blocks[narrowest].shape[1]
        mix = rng.standard_normal((others.shape[1], width)) + 1j * rng.standard_normal((others.shape[1], width))
        blocks[narrowest] = orthonormal_stack((others @ mix)[None])[0]
    return Strategy(spec=spec, pair_bases=blocks)


@pytest.fixture(scope="module")
def candidates():
    """(strategy, its verdicts) pairs."""
    rng = np.random.default_rng(22)
    return [(s, _verdicts(s)) for s in (_candidate(c % 2 == 1, rng) for c in range(CANDIDATES))]


def _relay_map_ok(strategy: Strategy) -> bool:
    try:
        strategy.relay_map()
    except StrategyInvalid:
        return False
    return True


def _verdicts(strategy: Strategy) -> tuple:
    report = verify_strategy(strategy.subspaces, strategy.spec.N)
    fields = (report.ok, report.dims, report.pair_dims, report.per_user_ok, report.global_ok, report.worst_triple_dim)
    return (*fields, _relay_map_ok(strategy))


def _unitary(strategy: Strategy, verdicts: tuple, rng: np.random.Generator) -> tuple[Strategy, tuple]:
    q = haar_stack(strategy.spec.N, strategy.spec.N, 1, rng)[0]
    moved = Strategy(spec=strategy.spec, pair_bases={p: q @ b for p, b in strategy.pair_bases.items()})
    return moved, verdicts


def _conjugate(strategy: Strategy, verdicts: tuple, rng: np.random.Generator) -> tuple[Strategy, tuple]:
    moved = Strategy(spec=strategy.spec, pair_bases={p: b.conj() for p, b in strategy.pair_bases.items()})
    return moved, verdicts


def _relabel(strategy: Strategy, verdicts: tuple, rng: np.random.Generator) -> tuple[Strategy, tuple]:
    """User i becomes user perm[i]; the expected verdicts are the original ones relabelled the same way."""
    k = strategy.spec.K
    perm = rng.permutation(k)
    d = [0] * k
    for i, di in enumerate(strategy.spec.d):
        d[perm[i]] = di
    moved = Strategy(
        spec=StrategySpec(K=k, N=strategy.spec.N, d=tuple(d)),
        pair_bases={tuple(sorted((int(perm[i]), int(perm[j])))): b for (i, j), b in strategy.pair_bases.items()},
    )
    ok, dims, pair_dims, per_user, global_ok, worst, relay_ok = verdicts
    inverse = np.argsort(perm)
    relabelled = (
        ok,
        tuple(dims[i] for i in inverse),
        {tuple(sorted((int(perm[i]), int(perm[j])))): v for (i, j), v in pair_dims.items()},
        tuple(per_user[i] for i in inverse),
        global_ok,
        worst,
        relay_ok,
    )
    return moved, relabelled


def test_every_second_candidate_fails(candidates):
    verdicts = [v for _, v in candidates]
    assert all(v[0] and v[-1] for v in verdicts[::2])
    assert not any(v[0] or v[-1] for v in verdicts[1::2])
    # most candidates hold pairs that meet in 0, so the invariances run the kernels on empty operands
    assert sum(0 in v[2].values() for v in verdicts) > CANDIDATES // 2


@pytest.mark.parametrize("transform", [_unitary, _conjugate, _relabel], ids=["unitary", "conjugate", "relabel"])
def test_verdicts_are_invariant(candidates, transform):
    rng = np.random.default_rng(23)
    mismatched = []
    for c, (strategy, verdicts) in enumerate(candidates):
        moved, expected = transform(strategy, verdicts, rng)
        if _verdicts(moved) != expected:
            mismatched.append(c)
    assert mismatched == []
