"""Neighbourhood moves of Algorithm 1.

The paper defines the neighbourhood of ``x`` as a relocation of a subset
of transactions (keeping one-site-per-transaction) and the neighbourhood
of ``y`` as an *extended replication* of a subset of attributes: each
chosen attribute keeps its replicas and gains at least one more. A
constant 10% of transactions/attributes "yielded the best results".

The moves draw their random targets in one batched call per move (the
per-item ``rng.choice`` loops used to dominate the annealer's inner
loop).  The sampled distributions are unchanged, but the generator
stream is consumed differently, so fixed-seed trajectories differ from
releases that used the sequential draws.  What stays pinned by tests:
for any given seed, the annealer and its dense-evaluator oracle visit
identical candidates and return identical results.
"""

from __future__ import annotations

import numpy as np


def subset_size(count: int, fraction: float) -> int:
    """At least one element, about ``fraction`` of ``count``."""
    return max(1, int(round(count * fraction)))


def move_transactions(
    x: np.ndarray, rng: np.random.Generator, fraction: float
) -> np.ndarray:
    """Relocate ~``fraction`` of the transactions to random sites.

    Each chosen transaction moves to a uniformly random *other* site
    (one batched draw: an offset in ``[0, |S| - 1)`` skips the current
    site).
    """
    x = x.copy()
    num_transactions, num_sites = x.shape
    if num_sites < 2:
        return x
    chosen = rng.choice(
        num_transactions, size=subset_size(num_transactions, fraction), replace=False
    )
    current = x[chosen].argmax(axis=1)
    offset = rng.integers(0, num_sites - 1, size=chosen.size)
    target = offset + (offset >= current)
    x[chosen, :] = False
    x[chosen, target] = True
    return x


def extend_replication(
    y: np.ndarray, rng: np.random.Generator, fraction: float
) -> np.ndarray:
    """Add one replica to ~``fraction`` of the attributes.

    Attributes already replicated everywhere are skipped; existing
    replicas are never removed (the paper's definition: ``y[a,s] = 1``
    implies ``y'[a,s] = 1`` and the replica count strictly grows).
    """
    y = y.copy()
    num_attributes, num_sites = y.shape
    if num_sites < 2:
        return y
    expandable = np.flatnonzero(y.sum(axis=1) < num_sites)
    if expandable.size == 0:
        return y
    size = min(subset_size(num_attributes, fraction), expandable.size)
    chosen = rng.choice(expandable, size=size, replace=False)
    # Pick a uniform absent site per chosen attribute in one batch: draw
    # the rank of the new replica among the row's absent sites, then map
    # ranks to site indices via the running count of absences.
    absent = ~y[chosen]  # (n, |S|)
    rank = rng.integers(0, absent.sum(axis=1))  # (n,)
    target = (absent.cumsum(axis=1) == (rank + 1)[:, None]).argmax(axis=1)
    y[chosen, target] = True
    return y


def merge_sites(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Move ALL transactions of one random site onto another.

    A whole site's transaction set is a valid "subset of the
    transactions" in the paper's neighbourhood definition; this move
    lets the search escape the plateau on instances where every query
    touches most attributes (cost only drops once a site empties
    completely — e.g. the rndB class, where the paper's SA finds the
    single-site optimum).
    """
    x = x.copy()
    num_sites = x.shape[1]
    if num_sites < 2:
        return x
    occupied = np.flatnonzero(x.any(axis=0))
    if occupied.size < 2:
        return x
    source = int(rng.choice(occupied))
    destinations = [s for s in range(num_sites) if s != source]
    destination = int(rng.choice(destinations))
    movers = x[:, source].copy()
    x[movers, source] = False
    x[movers, destination] = True
    return x


def move_components(
    assignment: np.ndarray,
    num_sites: int,
    rng: np.random.Generator,
    fraction: float,
) -> np.ndarray:
    """Disjoint mode: relocate ~``fraction`` of transaction components.

    ``assignment`` maps component index -> site; components (groups of
    transactions connected through shared read attributes) move as a
    unit so read co-location stays satisfiable without replication.
    """
    assignment = assignment.copy()
    num_components = assignment.shape[0]
    if num_sites < 2:
        return assignment
    chosen = rng.choice(
        num_components, size=subset_size(num_components, fraction), replace=False
    )
    current = assignment[chosen]
    offset = rng.integers(0, num_sites - 1, size=chosen.size)
    assignment[chosen] = offset + (offset >= current)
    return assignment
