"""The rows of each user's symbol vector that serve each of its pairs, for tests that split symbols by pair.

User i's symbols ride on user_bases[i], its pair blocks B_ij with partners
ascending, so the rows of pair {i, j} follow from the pair widths alone.
"""

import itertools


def pair_slices(strategy) -> dict[tuple[int, int], slice]:
    """slices[(i, j)], i != j: the rows of user i's symbol vector that serve the pair {i, j}, from pair_dims()."""
    dims, k = strategy.pair_dims(), strategy.spec.K
    slices = {}
    for i in range(k):
        partners = [j for j in range(k) if j != i]
        widths = [dims[min(i, j), max(i, j)] for j in partners]
        ends = itertools.accumulate(widths)
        slices.update({(i, j): slice(e - w, e) for j, w, e in zip(partners, widths, ends)})
    return slices
