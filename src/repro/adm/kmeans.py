"""Lloyd's k-means with k-means++ seeding, from scratch.

Unlike DBSCAN, k-means assigns *every* sample to a cluster — there is no
noise label.  The paper leans on this: the k-means ADM's hulls cover
outliers, inflating the stealthy region an attacker can move in
(Section VII-A's explanation of why the k-means ADM admits stronger
SHATTER attacks despite better F1 against naive BIoTA samples).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ClusteringError

# Lloyd's iteration cap and convergence threshold on centroid movement,
# shared by :func:`kmeans` and :func:`kmeans_groups`.
_MAX_ITERATIONS = 200
_TOLERANCE = 1e-6


def _kmeans_pp_init(
    points: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: spread initial centroids by D^2 sampling."""
    n = len(points)
    centroids = np.empty((k, points.shape[1]), dtype=float)
    first = int(rng.integers(n))
    centroids[0] = points[first]
    closest_sq = ((points - centroids[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = closest_sq.sum()
        if total <= 0:
            # All remaining points coincide with a centroid; pick any.
            centroids[i] = points[int(rng.integers(n))]
            continue
        probabilities = closest_sq / total
        choice = int(rng.choice(n, p=probabilities))
        centroids[i] = points[choice]
        closest_sq = np.minimum(
            closest_sq, ((points - centroids[i]) ** 2).sum(axis=1)
        )
    return centroids


def kmeans(
    points: np.ndarray,
    k: int,
    seed: int = 0,
    max_iterations: int = _MAX_ITERATIONS,
    tolerance: float = _TOLERANCE,
) -> tuple[np.ndarray, np.ndarray]:
    """Cluster points into ``k`` groups.

    Args:
        points: float array ``[n, d]`` with ``n >= k``.
        k: Number of clusters.
        seed: RNG seed for the k-means++ initialisation.
        max_iterations: Lloyd iteration cap.
        tolerance: Convergence threshold on centroid movement.

    Returns:
        ``(labels, centroids)``: int labels ``[n]`` in ``0..k-1`` and the
        final centroids ``[k, d]``.

    Raises:
        ClusteringError: If ``k`` is invalid for the input.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ClusteringError(f"points must be 2-D, got shape {points.shape}")
    n = len(points)
    if k < 1:
        raise ClusteringError(f"k must be >= 1, got {k}")
    if n < k:
        raise ClusteringError(f"cannot form {k} clusters from {n} points")

    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(points, k, rng)
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(max_iterations):
        # Assignment step.
        distances = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels = distances.argmin(axis=1)
        # Update step; empty clusters re-seed to the farthest point so k
        # is preserved.
        new_centroids = centroids.copy()
        for cluster in range(k):
            members = points[labels == cluster]
            if len(members) == 0:
                farthest = int(distances.min(axis=1).argmax())
                new_centroids[cluster] = points[farthest]
            else:
                new_centroids[cluster] = members.mean(axis=0)
        movement = float(np.abs(new_centroids - centroids).max())
        centroids = new_centroids
        if movement < tolerance:
            break
    distances = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    labels = distances.argmin(axis=1)
    return labels.astype(np.int64), centroids


# numpy sums fewer than this many float64 terms left to right; a longer
# sum takes its unrolled pairwise path.  k-means++ compares against that
# sum, so only groups below this size share a zero-padded batch (a
# padded row's sum must be its group's own), and larger groups batch by
# exact size.
_SEQUENTIAL_SUM = 8


def _seed_draws(
    seed: int, pairs: set[tuple[int, int]]
) -> dict[tuple[int, int], tuple[int, list[float]]]:
    """The random draws :func:`_kmeans_pp_init` makes for each pair of
    ``n`` points and ``k`` clusters in ``pairs``, if every D^2 total it
    meets is positive: the first centroid's index and one uniform per
    further centroid.

    ``Generator.choice(n, p=p)`` draws one ``random()`` and returns
    ``searchsorted(cumsum(p) / cumsum(p)[-1], u, side="right")``, so a
    seed's draws depend on ``(seed, n, k)`` alone and one sequence
    serves every group of that size and ``k``.  One generator serves
    every pair, reset to the seed's start state before each.
    """
    rng = np.random.default_rng(seed)
    start = rng.bit_generator.state
    draws = {}
    for n, k in pairs:
        rng.bit_generator.state = start
        draws[n, k] = (int(rng.integers(n)), rng.random(k - 1).tolist())
    return draws


def kmeans_groups(
    points: np.ndarray,
    sizes: np.ndarray,
    ks: np.ndarray,
    seed: int = 0,
) -> np.ndarray:
    """:func:`kmeans` labels of many groups, computed together.

    Group ``g`` is the next ``sizes[g]`` rows of ``points``; its labels
    equal ``kmeans(group, k=ks[g], seed=seed)[0]`` bit for bit, and
    they are returned concatenated in group order.  Groups advance as
    rows of padded arrays: k-means++ takes the draws of each distinct
    (size, k) once (:func:`_seed_draws`), Lloyd means are
    ``np.bincount`` sums (left to right, as ``mean(axis=0)`` sums), and
    a converged group stops moving while the rest iterate.  A group
    whose k-means++ meets a zero D^2 total (fewer distinct points than
    ``k``) draws from another branch of the generator, so it reruns
    through :func:`kmeans`.

    Raises:
        ClusteringError: If some ``k`` is invalid for its group.
    """
    points = np.asarray(points, dtype=float)
    sizes = np.asarray(sizes, dtype=np.int64)
    ks = np.asarray(ks, dtype=np.int64)
    if points.ndim != 2:
        raise ClusteringError(f"points must be 2-D, got shape {points.shape}")
    if sizes.sum() != len(points):
        raise ClusteringError(
            f"group sizes sum to {sizes.sum()}, but there are {len(points)} points"
        )
    invalid = np.flatnonzero((ks < 1) | (sizes < ks))
    if len(invalid):
        n, k = int(sizes[invalid[0]]), int(ks[invalid[0]])
        if k < 1:
            raise ClusteringError(f"k must be >= 1, got {k}")
        raise ClusteringError(f"cannot form {k} clusters from {n} points")
    starts = np.cumsum(sizes) - sizes
    labels = np.zeros(len(points), dtype=np.int64)
    split = ks > 1  # a one-cluster group is all label 0
    draws = _seed_draws(seed, set(zip(sizes[split].tolist(), ks[split].tolist())))
    padded = split & (sizes < _SEQUENTIAL_SUM)
    batches = [np.flatnonzero(padded)] + [
        np.flatnonzero(split & (sizes == n))
        for n in sorted(set(sizes[split & ~padded].tolist()))
    ]
    for members in batches:
        if len(members) == 0:
            continue
        rerun = _kmeans_batch(
            points,
            starts[members],
            sizes[members],
            ks[members],
            draws,
            labels,
        )
        for g in members[rerun]:
            rows = slice(starts[g], starts[g] + sizes[g])
            labels[rows] = kmeans(points[rows], int(ks[g]), seed)[0]
    return labels


def _kmeans_batch(
    points: np.ndarray,
    starts: np.ndarray,
    sizes: np.ndarray,
    ks: np.ndarray,
    draws: dict[tuple[int, int], tuple[int, list[float]]],
    labels: np.ndarray,
) -> np.ndarray:
    """Cluster one batch of groups as ``[B, W]`` rows; write their
    labels and return the mask of groups that must rerun alone."""
    n_groups = len(sizes)
    width = int(sizes.max())
    n_centroids = int(ks.max())
    rows = np.arange(n_groups)
    valid = np.arange(width) < sizes[:, None]
    # Padding repeats a group's last point: finite, and kept out of
    # every sum, count and argmax below.
    gather = starts[:, None] + np.minimum(np.arange(width), sizes[:, None] - 1)
    grid = points[gather]  # [B, W, 2]

    group_draws = [draws[pair] for pair in zip(sizes.tolist(), ks.tolist())]
    firsts = np.array([first for first, _ in group_draws])
    uniforms = np.zeros((n_groups, n_centroids))
    for b, (_, following) in enumerate(group_draws):
        uniforms[b, 1 : len(following) + 1] = following

    # k-means++ seeding, one draw per group per step.
    centroids = np.zeros((n_groups, n_centroids, 2))
    centroids[:, 0] = grid[rows, firsts]
    closest = np.where(
        valid, ((grid - centroids[:, None, 0]) ** 2).sum(axis=2), 0.0
    )
    rerun = np.zeros(n_groups, dtype=bool)
    for i in range(1, n_centroids):
        total = closest.sum(axis=1)
        positive = total > 0
        rerun |= (ks > i) & ~positive
        cdf = np.cumsum(closest / np.where(positive, total, 1.0)[:, None], axis=1)
        last = cdf[:, -1:]
        cdf /= np.where(last > 0, last, 1.0)
        choice = np.minimum((cdf <= uniforms[:, i : i + 1]).sum(axis=1), sizes - 1)
        centroids[:, i] = grid[rows, choice]
        closest = np.minimum(
            closest, ((grid - centroids[:, None, i]) ** 2).sum(axis=2)
        )

    # Lloyd iterations; unused centroid slots never win an argmin.
    used = np.arange(n_centroids) < ks[:, None]
    absent = np.where(used, 0.0, np.inf)[:, None, :]

    def distances() -> np.ndarray:
        deltas = grid[:, :, None, :] - centroids[:, None, :, :]
        return (deltas**2).sum(axis=3) + absent

    cluster_base = (rows * n_centroids)[:, None]
    n_clusters = n_groups * n_centroids
    xs = grid[..., 0][valid]
    ys = grid[..., 1][valid]
    active = ~rerun
    for _ in range(_MAX_ITERATIONS):
        if not active.any():
            break
        current = distances()
        cluster = (cluster_base + current.argmin(axis=2))[valid]
        counts = np.bincount(cluster, minlength=n_clusters).reshape(
            n_groups, n_centroids
        )
        sums = np.stack(
            (
                np.bincount(cluster, weights=xs, minlength=n_clusters),
                np.bincount(cluster, weights=ys, minlength=n_clusters),
            ),
            axis=1,
        ).reshape(n_groups, n_centroids, 2)
        filled = counts > 0
        moved = np.where(
            filled[..., None],
            sums / np.where(filled, counts, 1)[..., None],
            centroids,
        )
        empty = used & ~filled
        if empty.any():
            # An empty cluster re-seeds to the point farthest from
            # every centroid, as kmeans() does.
            nearest = np.where(valid, current.min(axis=2), -np.inf)
            farthest = grid[rows, nearest.argmax(axis=1)]
            group_of, slot_of = np.nonzero(empty)
            moved[group_of, slot_of] = farthest[group_of]
        movement = np.abs(moved - centroids).max(axis=(1, 2))
        centroids[active] = moved[active]
        active &= ~(movement < _TOLERANCE)
    labels[gather[valid]] = distances().argmin(axis=2)[valid]
    return rerun
