"""Embedding refinement after retrieval: similarity-graph propagation plus
two query-expansion baselines."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aggregation import PageEmbedding, page_matrix
from .errors import ValidationError
from .retrieval import rank_rows

METHODS = ("sgr", "krnn_qe", "hard_graph")
UNIT_NORM_TOL = 1e-9


@dataclass(frozen=True)
class RerankConfig:
    """Parameters for one rerank pass; k1 only applies to hard_graph."""

    method: str = "sgr"
    k: int = 2
    layers: int = 1
    gamma: float = 0.4
    k1: int = 4

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValidationError(f"unknown rerank method {self.method!r}")
        if self.k < 1 or self.layers < 1:
            raise ValidationError("k and layers must be >= 1")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValidationError("gamma must be finite and positive")
        if self.k1 < 1:
            raise ValidationError("k1 must be >= 1")


def _unit_matrix(pages: list[PageEmbedding]) -> np.ndarray:
    vectors = page_matrix(pages)
    norms = np.linalg.norm(vectors, axis=1)
    if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
        worst = int(np.argmax(np.abs(norms - 1.0)))
        raise ValidationError(
            f"page {pages[worst].page_id} is not unit-norm; rerank inputs "
            "must come from the aggregation stage"
        )
    return vectors


def build_similarity_graph(
    pages: list[PageEmbedding], gamma: float
) -> tuple[np.ndarray, np.ndarray]:
    """Dense graph over the collection: the (n, n) similarities
    s_ij = x_i . x_j and adjacency A_ij = exp(-(1 - s_ij)^2 / gamma)."""
    if gamma <= 0:
        raise ValidationError("gamma must be positive")
    unit = _unit_matrix(pages)
    sims = unit @ unit.T
    adjacency = np.exp(-((1.0 - sims) ** 2) / gamma)
    return sims, adjacency


def _propagate(
    features: np.ndarray,
    neighbors: np.ndarray,
    weights: np.ndarray,
    layers: int,
) -> np.ndarray:
    """h_i <- l2(h_i + sum_j w_ij h_j) over the (n, k) neighbors, `layers` times.

    Neighbor contributions are added in the order given. Callers pass
    each row's neighbors by descending weight, ties by ascending index,
    so the sum is bitwise permutation-equivariant. `features` is only
    read: each layer sums into a new array and normalizes it in place."""
    w = np.take_along_axis(weights, neighbors, axis=1)
    h = features
    for _ in range(layers):
        nxt = h.copy()
        for c in range(neighbors.shape[1]):
            nxt += w[:, c, None] * h[neighbors[:, c]]
        norms = np.linalg.norm(nxt, axis=1)
        nxt /= np.where(norms > 0.0, norms, 1.0)[:, None]
        h = nxt
    return h


def _with_vectors(pages: list[PageEmbedding], vectors: np.ndarray) -> list[PageEmbedding]:
    return [
        PageEmbedding(page_id=p.page_id, writer_id=p.writer_id, vector=vectors[i])
        for i, p in enumerate(pages)
    ]


def sgr(pages: list[PageEmbedding], cfg: RerankConfig) -> list[PageEmbedding]:
    """Similarity-graph reranking: adjacency rows become vertex features,
    then aggregation over the k nearest neighbors, weighted by similarity,
    runs for cfg.layers rounds. The neighbors are ranked by similarity,
    which is also their weight, so they reach the propagation in order."""
    if cfg.method != "sgr":
        raise ValidationError("config method must be sgr")
    if len(pages) < cfg.k + 1:
        raise ValidationError("need at least k + 1 pages")
    sims, adjacency = build_similarity_graph(pages, cfg.gamma)
    neighbors = rank_rows(sims, np.arange(len(pages)), k=cfg.k)
    refined = _propagate(adjacency, neighbors, sims, cfg.layers)
    return _with_vectors(pages, refined)


def krnn_qe(pages: list[PageEmbedding], cfg: RerankConfig) -> list[PageEmbedding]:
    """Reciprocal-kNN query expansion: average each embedding with the
    cfg.k nearest neighbors that also list it back, then l2-normalize.

    Each group (self included) is summed from zeros in ascending index
    order, so pages with the same group get bitwise-equal vectors and
    the ranking's page-id tie rule orders them."""
    n = len(pages)
    if n < 2:
        raise ValidationError("need at least 2 pages")
    unit = _unit_matrix(pages)
    sims = unit @ unit.T
    neighbors = rank_rows(sims, np.arange(n), k=cfg.k)
    # reciprocal[i, c]: vertex i is among the neighbors of its c-th
    # neighbor. The edge i -> j is named i * n + j; sorting each row's
    # neighbors sorts every edge, so one binary search finds each reverse.
    rows = np.arange(n)[:, None]
    edges = (np.sort(neighbors, axis=1) + rows * n).ravel()
    back = neighbors * n + rows
    reciprocal = edges[np.minimum(np.searchsorted(edges, back), edges.size - 1)] == back
    # non-members point at an appended zero row and sort last
    groups = np.sort(np.column_stack([np.arange(n), np.where(reciprocal, neighbors, n)]), axis=1)
    padded = np.vstack([unit, np.zeros(unit.shape[1])])
    acc = np.zeros_like(unit)
    for c in range(groups.shape[1]):
        acc += padded[groups[:, c]]
    acc /= (groups < n).sum(axis=1)[:, None]
    norms = np.linalg.norm(acc, axis=1)
    out = acc / np.where(norms > 0.0, norms, 1.0)[:, None]
    return _with_vectors(pages, out)


def hard_graph_rerank(pages: list[PageEmbedding], cfg: RerankConfig) -> list[PageEmbedding]:
    """Discrete-adjacency baseline: A_ij is 1 for mutual k1-NN (k1 = cfg.k1),
    1/2 for one-directional, 0 otherwise (A_ii = 1); rows of A are the
    features, aggregation uses the k2 = cfg.k most cosine-similar vertices
    weighted by A, added in descending A order (ties by ascending index).
    A is built from the (n, k1) neighbor lists: 1/2 per k1-NN edge in each
    direction, so a mutual pair sums to exactly 1."""
    n = len(pages)
    k1, k2 = cfg.k1, cfg.k
    if not k2 <= k1 < n:
        raise ValidationError("need k2 <= k1 < page count")
    unit = _unit_matrix(pages)
    sims = unit @ unit.T
    order = rank_rows(sims, np.arange(n), k=k1)
    adjacency = np.zeros((n, n))
    rows = np.arange(n)[:, None]
    adjacency[rows, order] = 0.5
    # Each (j, i) pair occurs once, so the buffered += adds every edge.
    adjacency[order, rows] += 0.5
    np.fill_diagonal(adjacency, 1.0)
    neighbors = rank_rows(adjacency, np.arange(n), candidates=order[:, :k2])
    refined = _propagate(adjacency, neighbors, adjacency, cfg.layers)
    return _with_vectors(pages, refined)


def rerank(pages: list[PageEmbedding], cfg: RerankConfig) -> list[PageEmbedding]:
    """Dispatch on cfg.method to the function its module name holds now."""
    methods = {"sgr": sgr, "krnn_qe": krnn_qe, "hard_graph": hard_graph_rerank}
    return methods[cfg.method](pages, cfg)
