"""Verdicts are facts of linear algebra over C^N, so symmetries of C^N and of the user labels keep them.

Candidates come from construct_strategy on random feasible tuples (K 3-5,
N 2-6), turned by a random unitary so that no block is real; every second one
has its narrowest pair block moved into the span of the other blocks, so that
it fails.  Most candidates hold pairs that meet in 0, so the N x 0 blocks and
intersections take the general path of the subspace kernels here too.  Each
transform must leave verify_strategy's report and the verdict of
Strategy.relay_map unchanged, with per-user and per-pair fields relabelled
with the users.

Channel systems pair such a valid strategy with 2K Gaussian channels, every
second system with one of them made singular, and a per-user map I + 1e-6 X
that misaligns a user's designed encoder.  On the relay side a common
unitary Q acts as H_i -> Q H_i, G_k -> G_k Q^H and B_ij -> Q B_ij, so the
encoders H_i^-1 B_i stay as they are; conjugation and a relabelling act on
everything.  Each must leave ChannelSet's verdict, the Link's alignment
verdict for designed and for misaligned encoders, and the noise gains of
every stream unchanged, users and streams relabelled.  A common scale of
the channels is left out: ChannelSet's rank floor is absolute, so it calls
a tiny but well-conditioned set singular.  The tuple verdicts
(feasibility_reason, generic_verdict) see no basis, so only a relabelling
acts on them; intersect_stack's dimensions are checked on planted
intersections.
"""

import functools
import itertools
import re

import numpy as np
import pytest

from relay_align.errors import SecrecyViolation, SingularChannel, StrategyInvalid
from relay_align.feasibility import (
    Strategy,
    StrategySpec,
    construct_strategy,
    feasibility_reason,
    generic_verdict,
    haar_stack,
    is_feasible_tuple,
    verify_strategy,
)
from relay_align.relaysim import ChannelSet, Link, design_encoders
from relay_align.subspace import intersect_stack, orthonormal_stack

from pair_slices import pair_slices

CANDIDATES = 300
SYSTEMS = 200
GAIN_RTOL = 1e-12  # under Q a noise gain moved by at most 3.4e-14 of itself over 2000 valid systems like these


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


def _relabelled(strategy: Strategy, perm: np.ndarray) -> Strategy:
    """The strategy with user i renamed perm[i]: its d_i and its pair blocks move with it."""
    k = strategy.spec.K
    d = [0] * k
    for i, di in enumerate(strategy.spec.d):
        d[perm[i]] = di
    return Strategy(
        spec=StrategySpec(K=k, N=strategy.spec.N, d=tuple(d)),
        pair_bases={tuple(sorted((int(perm[i]), int(perm[j])))): b for (i, j), b in strategy.pair_bases.items()},
    )


def _relabel(strategy: Strategy, verdicts: tuple, rng: np.random.Generator) -> tuple[Strategy, tuple]:
    """User i becomes user perm[i]; the expected verdicts are the original ones relabelled the same way."""
    perm = rng.permutation(strategy.spec.K)
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
    return _relabelled(strategy, perm), relabelled


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


def _gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _feasible_spec(rng: np.random.Generator) -> StrategySpec:
    while True:
        k, n = int(rng.integers(2, 6)), int(rng.integers(2, 7))
        spec = StrategySpec(K=k, N=n, d=tuple(int(x) for x in rng.integers(0, n + 1, size=k)))
        if is_feasible_tuple(spec):
            return spec


def _system(singular: bool, rng: np.random.Generator) -> tuple:
    """(strategy, H, G, tilt, u): channels with one singular matrix if asked, and user u's misaligning map."""
    spec = _feasible_spec(rng)
    n, k = spec.N, spec.K
    turn = haar_stack(n, n, 1, rng)[0]
    strategy = Strategy(spec=spec, pair_bases={p: turn @ b for p, b in construct_strategy(spec).pair_bases.items()})
    mats = _gaussian(rng, (2 * k, n, n))
    if singular:  # rank N - 1
        m = int(rng.integers(2 * k))
        mats[m] = mats[m][:, : n - 1] @ _gaussian(rng, (n - 1, n))
    tilt = np.eye(n) + 1e-6 * _gaussian(rng, (k, n, n))
    u = int(rng.choice(np.flatnonzero(spec.d)))
    return strategy, mats[:k], mats[k:], tilt, u


def _link_verdict(strategy: Strategy, channels: ChannelSet, encoders: list[np.ndarray]) -> str:
    """The Link's verdict: "ok", or the user its SecrecyViolation names."""
    try:
        Link(strategy, channels, encoders)
    except SecrecyViolation as exc:
        return str(exc).split(":")[0]
    return "ok"


def _system_verdicts(strategy: Strategy, h: np.ndarray, g: np.ndarray, tilt: np.ndarray, u: int) -> tuple:
    """ChannelSet's verdict, the Link's for designed encoders and with user u's tilted, and the noise gains."""
    try:
        channels = ChannelSet(K=strategy.spec.K, N=strategy.spec.N, H=h, G=g)
    except SingularChannel as exc:
        return str(exc), None, None, None
    encoders = design_encoders(strategy, channels)
    tilted = [tilt[i] @ e if i == u else e for i, e in enumerate(encoders)]
    gains = Link(strategy, channels, encoders).noise_gain_all
    return "ok", _link_verdict(strategy, channels, encoders), _link_verdict(strategy, channels, tilted), gains


@pytest.fixture(scope="module")
def systems():
    """(system, its verdicts) pairs."""
    rng = np.random.default_rng(41)
    return [(s, _system_verdicts(*s)) for s in (_system(c % 2 == 1, rng) for c in range(SYSTEMS))]


def _unitary_system(system: tuple, verdicts: tuple, rng: np.random.Generator) -> tuple[tuple, tuple]:
    strategy, h, g, tilt, u = system
    q = haar_stack(strategy.spec.N, strategy.spec.N, 1, rng)[0]
    moved = Strategy(spec=strategy.spec, pair_bases={p: q @ b for p, b in strategy.pair_bases.items()})
    return (moved, q @ h, g @ q.conj().T, tilt, u), verdicts


def _conjugate_system(system: tuple, verdicts: tuple, rng: np.random.Generator) -> tuple[tuple, tuple]:
    strategy, h, g, tilt, u = system
    moved = Strategy(spec=strategy.spec, pair_bases={p: b.conj() for p, b in strategy.pair_bases.items()})
    return (moved, h.conj(), g.conj(), tilt.conj(), u), verdicts


def _stream_rows(strategy: Strategy) -> dict[tuple[int, int], np.ndarray]:
    """rows[(i, j)]: the stacked rows (Link.rows order) of user i's streams that serve pair {i, j}."""
    starts = np.cumsum([0, *strategy.spec.d])
    return {(i, j): np.arange(starts[i] + r.start, starts[i] + r.stop) for (i, j), r in pair_slices(strategy).items()}


def _relabel_system(system: tuple, verdicts: tuple, rng: np.random.Generator) -> tuple[tuple, tuple]:
    """User i becomes user perm[i], with its channels, its map and its streams; the verdicts' names follow."""
    strategy, h, g, tilt, u = system
    perm = rng.permutation(strategy.spec.K)
    moved = _relabelled(strategy, perm)
    inverse = np.argsort(perm)
    rename = functools.partial(re.sub, r"([HG]_|user )(\d+)", lambda m: f"{m[1]}{perm[int(m[2]) - 1] + 1}")
    *named, gains = verdicts
    named = [rename(v) if v else v for v in named]
    moved_gains = gains
    if gains is not None:
        moved_rows, moved_gains = _stream_rows(moved), gains.copy()
        for (i, j), rows in _stream_rows(strategy).items():
            moved_gains[moved_rows[perm[i], perm[j]]] = gains[rows]
    return (moved, h[inverse], g[inverse], tilt[inverse], int(perm[u])), (*named, moved_gains)


def test_half_the_systems_are_singular(systems):
    verdicts = [v for _, v in systems]
    assert all(v[:3] == ("ok", "ok", f"user {s[4] + 1}") for s, v in systems[::2])
    assert all(re.fullmatch(r"[HG]_\d+ is singular", v[0]) and v[1:] == (None,) * 3 for v in verdicts[1::2])


@pytest.mark.parametrize(
    "transform", [_unitary_system, _conjugate_system, _relabel_system], ids=["unitary", "conjugate", "relabel"]
)
def test_channel_and_link_verdicts_are_invariant(systems, transform):
    rng = np.random.default_rng(42)
    mismatched, worst = [], 0.0
    for c, (system, verdicts) in enumerate(systems):
        moved, expected = transform(system, verdicts, rng)
        got = _system_verdicts(*moved)
        if got[:3] != expected[:3]:
            mismatched.append(c)
        elif got[3] is not None:
            worst = max(worst, float(np.max(np.abs(got[3] / expected[3] - 1))))
    assert mismatched == []
    assert worst <= GAIN_RTOL


def test_tuple_verdicts_are_invariant_under_relabelling():
    rng = np.random.default_rng(43)
    for k, n in itertools.product(range(2, 5), range(1, 5)):
        for d in itertools.product(range(n + 2), repeat=k):
            perm = rng.permutation(k)
            spec = StrategySpec(K=k, N=n, d=d)
            moved = StrategySpec(K=k, N=n, d=tuple(d[i] for i in np.argsort(perm)))  # user i is now perm[i]
            pair_dims, generic = generic_verdict(spec)
            moved_dims, moved_generic = generic_verdict(moved)
            assert feasibility_reason(moved) == feasibility_reason(spec)
            assert moved_generic == generic
            assert {(i, j): moved_dims[tuple(sorted((perm[i], perm[j])))] for i, j in pair_dims} == pair_dims


def test_intersection_dims_are_invariant():
    rng = np.random.default_rng(44)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(0, n + 1))  # the planted intersection
        da, db = int(rng.integers(m, n + 1)), int(rng.integers(m, n + 1))
        common = _gaussian(rng, (n, m))
        a, b = (orthonormal_stack(np.hstack([common, _gaussian(rng, (n, w - m))])[None]) for w in (da, db))
        dim = intersect_stack(a, b).shape[2]
        assert dim == max(m, da + db - n)  # the planted part, unless the spans must meet in more
        q = haar_stack(n, n, 1, rng)
        assert intersect_stack(q @ a, q @ b).shape[2] == dim
        assert intersect_stack(a.conj(), b.conj()).shape[2] == dim
        assert intersect_stack(b, a).shape[2] == dim
