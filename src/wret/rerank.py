"""Embedding refinement after retrieval: similarity-graph propagation plus
two query-expansion baselines."""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice, repeat

import numpy as np

from .aggregation import PageEmbedding, page_matrix
from .errors import ValidationError
from .features import RANK_BLOCK, row_blocks
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
    return sims, _adjacency(sims.copy(), gamma)


def _adjacency(sims: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-(1 - s)^2 / gamma) of every similarity, written over `sims`:
    the ufuncs of that expression, in its order, with out= arguments."""
    np.subtract(1.0, sims, out=sims)
    np.square(sims, out=sims)
    np.negative(sims, out=sims)
    np.divide(sims, gamma, out=sims)
    return np.exp(sims, out=sims)


def _propagate(
    h: np.ndarray, neighbors: np.ndarray, weights: np.ndarray
) -> Iterator[np.ndarray]:
    """h_i <- l2(h_i + sum_c w_ic h_{n_ic}) over each row's (n, k) neighbors
    n and their (n, k) weights w: the output of layer 1, 2, 3, ... in
    turn, each layer read only from the one before.

    Neighbor contributions are added in the order given. Callers pass
    each row's neighbors by descending weight, ties by ascending index,
    so the sum is bitwise permutation-equivariant. Each layer adds into a
    copy of the one before, RANK_BLOCK rows at a time, and normalizes
    those rows; its norms are bitwise np.linalg.norm(axis=1). So beside
    the two layers only (RANK_BLOCK, n) blocks are held, and `h` is only
    read; when the iterator holds the only reference to it, it is freed
    after the first layer."""
    while True:
        nxt = h.copy()
        for rows in row_blocks(len(h), RANK_BLOCK):
            block = nxt[rows]
            for c in range(neighbors.shape[1]):
                block += weights[rows, c, None] * h[neighbors[rows, c]]
            norms = np.sqrt(np.sum(np.square(block), axis=1))
            block /= np.where(norms > 0.0, norms, 1.0)[:, None]
        h = nxt
        yield h


def _after(outputs: Iterator[np.ndarray], layers: int) -> np.ndarray:
    """Item `layers` (from 1) of an iterator of layer outputs."""
    return next(islice(outputs, layers - 1, None))


def _with_vectors(pages: list[PageEmbedding], vectors: np.ndarray) -> list[PageEmbedding]:
    return [
        PageEmbedding(page_id=p.page_id, writer_id=p.writer_id, vector=vectors[i])
        for i, p in enumerate(pages)
    ]


def _sgr_graph(unit: np.ndarray, cfg: RerankConfig) -> tuple[np.ndarray, ...]:
    """SGR's adjacency, built in the similarity buffer, each row's cfg.k
    nearest neighbors by similarity, and their similarities as weights,
    read before the buffer is overwritten."""
    if len(unit) < cfg.k + 1:
        raise ValidationError("need at least k + 1 pages")
    sims = unit @ unit.T
    neighbors = rank_rows(sims, np.arange(len(unit)), k=cfg.k)
    weights = np.take_along_axis(sims, neighbors, axis=1)
    return _adjacency(sims, cfg.gamma), neighbors, weights


def _hard_graph(unit: np.ndarray, cfg: RerankConfig) -> tuple[np.ndarray, ...]:
    """hard_graph's adjacency from the (n, k1) neighbor lists, each row's
    k2 most similar pages reordered by adjacency, and their adjacency
    weights."""
    n = len(unit)
    k1, k2 = cfg.k1, cfg.k
    if not k2 <= k1 < n:
        raise ValidationError("need k2 <= k1 < page count")
    order = rank_rows(unit @ unit.T, np.arange(n), k=k1)
    adjacency = np.zeros((n, n))
    rows = np.arange(n)[:, None]
    adjacency[rows, order] = 0.5
    # Each (j, i) pair occurs once, so the buffered += adds every edge.
    adjacency[order, rows] += 0.5
    np.fill_diagonal(adjacency, 1.0)
    neighbors = rank_rows(adjacency, np.arange(n), candidates=order[:, :k2])
    return adjacency, neighbors, np.take_along_axis(adjacency, neighbors, axis=1)


def _krnn_rows(unit: np.ndarray, cfg: RerankConfig) -> np.ndarray:
    """krnn_qe's refined rows."""
    n = len(unit)
    if n < 2:
        raise ValidationError("need at least 2 pages")
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
    return acc / np.where(norms > 0.0, norms, 1.0)[:, None]


def sgr(pages: list[PageEmbedding], cfg: RerankConfig) -> list[PageEmbedding]:
    """Similarity-graph reranking: adjacency rows become vertex features,
    then aggregation over the k nearest neighbors, weighted by similarity,
    runs for cfg.layers rounds. The neighbors are ranked by similarity,
    which is also their weight, so they reach the propagation in order.
    Holds the adjacency, built in place of the similarities, and one
    layer's output at a time beside the next."""
    outputs = _propagate(*_sgr_graph(_unit_matrix(pages), cfg))
    return _with_vectors(pages, _after(outputs, cfg.layers))


def krnn_qe(pages: list[PageEmbedding], cfg: RerankConfig) -> list[PageEmbedding]:
    """Reciprocal-kNN query expansion: average each embedding with the
    cfg.k nearest neighbors that also list it back, then l2-normalize.

    Each group (self included) is summed from zeros in ascending index
    order, so pages with the same group get bitwise-equal vectors and
    the ranking's page-id tie rule orders them."""
    return _with_vectors(pages, _krnn_rows(_unit_matrix(pages), cfg))


def hard_graph_rerank(pages: list[PageEmbedding], cfg: RerankConfig) -> list[PageEmbedding]:
    """Discrete-adjacency baseline: A_ij is 1 for mutual k1-NN (k1 = cfg.k1),
    1/2 for one-directional, 0 otherwise (A_ii = 1); rows of A are the
    features, aggregation uses the k2 = cfg.k most cosine-similar vertices
    weighted by A, added in descending A order (ties by ascending index).
    A is built from the (n, k1) neighbor lists: 1/2 per k1-NN edge in each
    direction, so a mutual pair sums to exactly 1."""
    outputs = _propagate(*_hard_graph(_unit_matrix(pages), cfg))
    return _with_vectors(pages, _after(outputs, cfg.layers))


def rerank(pages: list[PageEmbedding], cfg: RerankConfig) -> list[PageEmbedding]:
    """Dispatch on cfg.method to the function its module name holds now."""
    methods = {"sgr": sgr, "krnn_qe": krnn_qe, "hard_graph": hard_graph_rerank}
    return methods[cfg.method](pages, cfg)


def layer_outputs(pages: list[PageEmbedding], cfg: RerankConfig) -> Iterator[np.ndarray]:
    """cfg.method's refined rows after 1, 2, 3, ... layers; cfg.layers is
    not read. The graph is built once and each layer continues from the
    one before, so item l is bitwise the rows `rerank` returns at
    layers = l. krnn_qe has no layers and yields its one result each time.
    An item is the iterator's own buffer: change it only after the last
    item wanted."""
    unit = _unit_matrix(pages)
    if cfg.method == "krnn_qe":
        return repeat(_krnn_rows(unit, cfg))
    graph = _sgr_graph if cfg.method == "sgr" else _hard_graph
    return _propagate(*graph(unit, cfg))
