"""Grounded sparse Cholesky of the FEM stiffness: nested dissection, multifrontal, numpy only.

The oracle solves with A[1:, 1:], the stiffness with vertex 0 pinned, about
fifteen times per eigenvalue.  The pattern of A is a 2-D mesh graph, the
textbook case for nested dissection (A. George, SIAM J. Numer. Anal. 10,
1973): a separator splits the graph in two, each half is split again, and
eliminating the halves before their separator keeps the fill near
n log n.  The multifrontal method (J. W. H. Liu, SIAM Review 34, 1992)
then factors one dense front per node of the dissection tree, and every
front of one tree depth is one padded slice of a batch, so a depth costs a
handful of numpy calls whatever its number of fronts.

``Pattern`` holds what depends on the sparsity pattern alone and builds it
on first use: the column table of the matrix-vector product and the
``Plan``, which holds the order, the fronts and their index maps.  Matrices
that share a pattern object share both.  ``Factor`` holds the numbers.

Ordering.  Separators are levels of breadth-first searches on the graph of
A[1:, 1:], one search per part, all parts of a depth searched at once
(George and Liu's automatic nested dissection): a first search from the
part's lowest vertex finds a far vertex, a second from that vertex gives
the levels, and the level that reaches half the part is the separator.  A
part of at most ``LEAF`` vertices is a leaf.  A first search from the
neighbours of vertex 0 reaches every vertex of a connected pattern;
otherwise the pattern is rejected, since a disconnected stiffness is
singular with vertex 0 pinned.

Fronts.  A node's front lists its pivots P, then its boundary B: the
vertices of its ancestors that its subtree touches, which are the
neighbours of P and the boundaries of its children, less P.  Fronts of one
depth are padded to the depth's largest P and B; a padded pivot gets a unit
diagonal, a padded boundary row stays zero, and padded indices point at a
sink slot past the last vertex.  A front sums the entries of A whose deeper
vertex is one of its pivots, then its children's update matrices, with one
``np.bincount`` per depth, in a fixed order.

Factor and solve.  With F_PP = L L^T, a front keeps
H = L^-T [L^-1 | -W^T] = [F_PP^-1 | -(F_BP F_PP^-1)^T], with W = F_BP L^-T,
and hands its update U = F_BB - W W^T to its parent.  The forward solve
subtracts F_BP F_PP^-1 r_P from the boundary of each front, deepest depth
first; the backward solve sets x_P = H [r_P; x_B], root first.  Each pass
costs about four numpy calls per depth.

Sizes at FEM level 5 (3,168 unknowns, 2 vCPUs): the plan takes about
13 ms, the factor about 8 ms and holds 1.7 MiB, a solve about 0.23 ms.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import SolverError

__all__ = ["LEAF", "Pattern", "CSRMatrix", "Plan", "Factor", "sorted_unique"]

LEAF = 16  # a part of at most LEAF vertices is a leaf of the dissection tree


class Pattern:
    """A square, structurally symmetric sparsity pattern in CSR form,
    (``indptr``, ``indices``), with the work that depends on it alone."""

    def __init__(self, indptr, indices):
        self.indptr, self.indices = indptr, indices
        self.n = len(indptr) - 1

    @cached_property
    def ell(self):
        """(columns, slots): the column table, (w, n) for w the longest row,
        row i's k-th column at [k, i] and padding at column 0, and the flat
        slot of each CSR entry in it."""
        counts = np.diff(self.indptr)
        rows = np.repeat(np.arange(self.n), counts)
        slots = (np.arange(len(rows)) - np.repeat(self.indptr[:-1], counts)) * self.n + rows
        columns = np.zeros(counts.max(initial=0) * self.n, dtype=np.intp)
        columns[slots] = self.indices
        return columns.reshape(-1, self.n), slots

    @cached_property
    def plan(self):
        """The ``Plan`` of the grounded Cholesky of this pattern."""
        return Plan(self.indptr, self.indices)


class CSRMatrix:
    """A square sparse matrix: ``data``, ``indices``, ``indptr`` and
    ``shape`` as in compressed sparse row form, ``@`` a vector, and
    ``toarray()``.  The product runs on the pattern's column table; read-only
    data, which cannot change, keeps its copy in that layout, and its
    ``grounded_factor()``."""

    def __init__(self, data, pattern):
        self.data, self.pattern = data, pattern
        self.shape = (pattern.n, pattern.n)
        self._ell = self._factor = None

    @property
    def indices(self):
        return self.pattern.indices

    @property
    def indptr(self):
        return self.pattern.indptr

    def __matmul__(self, x):
        columns, slots = self.pattern.ell
        values = self._ell
        if values is None:
            values = np.zeros(columns.size)
            values[slots] = self.data
            values = values.reshape(columns.shape)
            if not self.data.flags.writeable:
                self._ell = values
        return np.einsum("ij,ij->j", values, x.take(columns))

    def grounded_factor(self):
        """The ``Factor`` of A[1:, 1:], this matrix with vertex 0 pinned; a
        stiffness is symmetric positive semi-definite with the constants as
        kernel on a connected mesh, so A[1:, 1:] is symmetric positive
        definite.  Kept when the data are read-only (see the class)."""
        factor = self._factor or Factor(self.pattern.plan, self.data)
        if not self.data.flags.writeable:
            self._factor = factor
        return factor

    def toarray(self):
        dense = np.zeros(self.shape)
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        np.add.at(dense, (rows, self.indices), self.data)
        return dense


def _grounded_graph(indptr, indices):
    """(adj, ground): the neighbour table of the graph of A[1:, 1:], row
    v - 1 listing u - 1 for the neighbours u of vertex v and padded with the
    sink g = n - 1, plus a sink row; and vertex 0's neighbours, shifted."""
    indptr, indices = np.asarray(indptr, dtype=np.intp), np.asarray(indices, dtype=np.intp)
    n = len(indptr) - 1
    rows = np.repeat(np.arange(n), np.diff(indptr))
    off = rows != indices
    ground = indices[off & (rows == 0)] - 1
    keep = off & (rows > 0) & (indices > 0)
    r, c = rows[keep] - 1, indices[keep] - 1
    degree = np.bincount(r, minlength=n - 1)
    adj = np.full((n, max(degree.max(initial=0), 1)), n - 1)
    adj[r, np.arange(len(r)) - np.repeat(np.cumsum(degree) - degree, degree)] = c
    return adj, ground


def _bfs(adj, level, starts):
    """Breadth-first levels from ``starts`` over the vertices whose level
    is -1, written into ``level``."""
    stamp = np.empty(len(level), dtype=np.intp)  # dedupes each new level
    count = np.arange(adj.size)
    level[starts] = 0
    frontier, k = starts, 0
    while frontier.size:
        k += 1
        reached = adj[frontier].ravel()
        reached = reached[level[reached] < 0]
        level[reached] = k
        stamp[reached] = count[: len(reached)]
        frontier = reached[stamp[reached] == count[: len(reached)]]


def _dissect(adj, ground):
    """Nested dissection of the graph: (node of each vertex, depth of each
    node, parent of each node, -1 at the root).  Nodes are numbered depth
    by depth, root first, in the order of the parts they come from."""
    g = len(adj) - 1
    level = np.full(g + 1, -1)
    level[g] = g + 1  # the sink is never reached
    _bfs(adj, level, ground)
    if np.any(level < 0):
        raise SolverError(
            "grounded stiffness factorization failed: the matrix graph is not connected"
        )
    node_of = np.full(g, -1)
    part = np.zeros(g, dtype=np.intp)  # -1 once the vertex belongs to a node
    part_parent = np.array([-1])
    depths, parents = [], []
    starts = np.argmax(level[:g])[None]  # a vertex farthest from vertex 0
    while True:
        first = sum(map(len, parents))
        live = np.flatnonzero(part >= 0)
        split = np.bincount(part[live], minlength=len(part_parent)) > LEAF
        depths.append(np.full(len(split), len(depths)))
        parents.append(part_parent)
        is_inner = split[part[live]]
        leaves = live[~is_inner]
        node_of[leaves] = first + part[leaves]
        inner = live[is_inner]
        if not inner.size:
            break
        rank = (np.cumsum(split) - 1)[part[inner]]  # of the inner vertex's part among split parts
        if starts is None:  # from each part's lowest vertex, the last vertex reached
            level[:g] = g + 1
            level[inner] = -1
            _bfs(adj, level, inner[np.unique(rank, return_index=True)[1]])
            order = np.lexsort((level[inner], rank))  # by part, then level
            starts = inner[order[np.cumsum(np.bincount(rank)) - 1]]
        level[:g] = g + 1
        level[inner] = -1
        _bfs(adj, level, starts)
        starts = None
        lev = level[inner]
        reached = lev >= 0  # a part need not be connected
        top = lev.max() + 1
        hist = np.bincount(rank[reached] * top + lev[reached], minlength=split.sum() * top)
        cum = np.cumsum(hist.reshape(-1, top), axis=1)
        cut = np.argmax(2 * cum >= cum[:, -1:], axis=1)[rank]
        sep = reached & (lev == cut)
        node_of[inner[sep]] = first + part[inner[sep]]
        rest = ~sep
        child = 2 * rank[rest] + (~reached[rest] | (lev[rest] > cut[rest]))
        sizes = np.bincount(child, minlength=2 * split.sum())
        part[:] = -1
        part[inner[rest]] = (np.cumsum(sizes > 0) - 1)[child]
        part_parent = np.repeat(first + np.flatnonzero(split), 2)[sizes > 0]
    return node_of, np.concatenate(depths), np.concatenate(parents)


class _Front(NamedTuple):
    """The index maps of one depth's fronts, m of them, each padded to p
    pivots and b boundary vertices."""

    p: int
    piv: np.ndarray  # (m, p) pivots, padded with the sink
    idx: np.ndarray  # (m, p + b) pivots, then boundary, padded with the sink
    bnd: np.ndarray  # the boundary part of idx, flat
    tgt: np.ndarray  # slots in the flat (m, p + b, p + b) fronts of data[a_src], then of npad ones
    a_src: np.ndarray
    npad: int  # unit diagonals of the padded pivots
    u_row: np.ndarray  # the children's update entry (c, s, t) goes to slot
    u_col: np.ndarray  # u_row[c, s] + u_col[c, t]


class Plan:
    """The dissection order and the fronts of the grounded Cholesky of a
    pattern, deepest depth first; built once per pattern (``Pattern.plan``)."""

    def __init__(self, indptr, indices):
        indptr, indices = np.asarray(indptr, dtype=np.intp), np.asarray(indices, dtype=np.intp)
        adj, ground = _grounded_graph(indptr, indices)
        g = len(adj) - 1
        node_of, ndepth, nparent = _dissect(adj, ground)
        deepest = ndepth[-1]
        vdepth = np.append(ndepth[node_of], deepest + 1)  # the sink is no one's ancestor
        lo = np.searchsorted(ndepth, np.arange(deepest + 2))  # first node of each depth
        slot = np.arange(len(ndepth)) - lo[ndepth]  # of each node within its depth
        pcount = np.bincount(node_of, minlength=len(ndepth))
        ppos = np.empty(g, dtype=np.intp)
        ppos[np.argsort(node_of, kind="stable")] = _ranks(pcount)

        # boundaries, deepest first: the shallower neighbours of the pivots
        # and the children's boundaries, less the node's own pivots
        bkeys, below = [None] * (deepest + 1), np.empty(0, dtype=np.intp)
        for d in range(deepest, -1, -1):
            verts = np.flatnonzero(vdepth[:g] == d)
            nbrs = adj[verts]
            keys = (node_of[verts][:, None] * g + nbrs)[vdepth[nbrs] < d]
            up = below[vdepth[below % g] < d]
            bkeys[d] = below = sorted_unique(np.concatenate([keys, nparent[up // g] * g + up % g]))
        keys = np.concatenate(bkeys)  # sorted, as node ids grow with depth
        bnode, bvert = keys // g, keys % g
        bcount = np.bincount(bnode, minlength=len(ndepth))
        bpos = _ranks(bcount)
        pmax = np.maximum.reduceat(pcount, lo[:-1])
        bmax = np.maximum.reduceat(bcount, lo[:-1])
        fsize = (pmax + bmax)[ndepth]  # front size of each node

        def position(node, vert):
            """Row of each vertex in the front of its node."""
            out = ppos[vert]
            other = node_of[vert] != node
            found = np.searchsorted(keys, node[other] * g + vert[other])
            out[other] = pmax[ndepth[node[other]]] + bpos[found]
            return out

        # every entry of A[1:, 1:] goes to the front of its deeper vertex
        rows = np.repeat(np.arange(g + 1), np.diff(indptr))
        a_src = np.flatnonzero((rows > 0) & (indices > 0))
        i, j = rows[a_src] - 1, indices[a_src] - 1
        owner = np.where(vdepth[i] >= vdepth[j], node_of[i], node_of[j])
        a_tgt = (slot[owner] * fsize[owner] + position(owner, i)) * fsize[owner]
        a_tgt += position(owner, j)
        a_depth = ndepth[owner]
        # each boundary vertex's row in the parent's front
        up_row = position(nparent[bnode], bvert)

        self.fronts = []
        for d in range(deepest, -1, -1):
            nodes = np.arange(lo[d], lo[d + 1])
            p, f = pmax[d], pmax[d] + bmax[d]
            idx = np.full((len(nodes), f), g)
            verts = np.flatnonzero(vdepth[:g] == d)
            idx[slot[node_of[verts]], ppos[verts]] = verts
            own = slice(*np.searchsorted(bnode, lo[d : d + 2]))
            idx[slot[bnode[own]], p + bpos[own]] = bvert[own]
            u_row = u_col = np.zeros((0, 0), dtype=np.intp)
            if d < deepest:  # the children's boundaries, in this depth's fronts
                child = slice(*np.searchsorted(bnode, lo[d + 1 : d + 3]))
                cells = (slot[bnode[child]], bpos[child])
                u_col = np.zeros((lo[d + 2] - lo[d + 1], bmax[d + 1]), dtype=np.intp)
                u_col[cells] = up_row[child]
                u_row = np.zeros_like(u_col)
                u_row[cells] = (slot[nparent[bnode[child]]] * f + up_row[child]) * f
            pad = p - pcount[nodes]  # unit diagonals on the padded pivots
            pad_row = np.repeat(pcount[nodes], pad) + _ranks(pad)
            pad_tgt = (np.repeat(slot[nodes], pad) * f + pad_row) * f + pad_row
            at = a_depth == d
            self.fronts.append(_Front(
                p=p, piv=idx[:, :p].copy(), idx=idx, bnd=idx[:, p:].ravel(),
                tgt=np.concatenate([a_tgt[at], pad_tgt]), a_src=a_src[at], npad=len(pad_tgt),
                u_row=u_row, u_col=u_col,
            ))


def sorted_unique(keys):
    """The distinct values of the 1-D array ``keys``, ascending, as
    ``np.unique(keys)`` gives them: sort, then keep each entry that differs
    from its left neighbour.  ``np.unique`` without ``return_index`` would
    import ``numpy.ma``, about 1.3 MiB, into every process that plans."""
    keys = np.sort(keys)
    keep = np.empty(len(keys), dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def _ranks(counts):
    """0, 1, ..., c - 1 for each c in ``counts``, concatenated."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


class Factor:
    """Multifrontal Cholesky of A[1:, 1:] on a ``Plan``, for the matrix
    data ``data`` in the plan's pattern; ``solve`` applies its inverse."""

    def __init__(self, plan, data):
        self.plan, self.blocks = plan, []
        update = np.empty((0, 0, 0))
        for front in plan.fronts:
            (m, f), p, k = front.idx.shape, front.p, len(front.tgt)
            tgt = np.empty(k + update.size, dtype=np.intp)  # one copy of the targets
            tgt[:k] = front.tgt
            np.add(front.u_row[:, :, None], front.u_col[:, None, :], out=tgt[k:].reshape(update.shape))
            weights = np.concatenate([data[front.a_src], np.ones(front.npad), update.ravel()])
            del update
            fronts = np.bincount(tgt, weights, minlength=m * f * f).reshape(m, f, f)
            del tgt, weights
            try:
                chol = np.linalg.cholesky(fronts[:, :p, :p])
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"grounded stiffness factorization failed: {exc}") from exc
            inv = np.linalg.inv(chol)
            del chol
            inv_t = inv.transpose(0, 2, 1)
            w = fronts[:, p:, :p] @ inv_t
            w_t = w.transpose(0, 2, 1)
            update = fronts[:, p:, p:] - w @ w_t
            del fronts
            self.blocks.append(inv_t @ np.concatenate([inv, -w_t], axis=2))

    def solve(self, rhs):
        """x with A[1:, 1:] x = rhs."""
        v = np.append(rhs, 0.0)  # the sink stays 0
        for front, h in zip(self.plan.fronts, self.blocks):
            if front.bnd.size:
                upd = np.matmul(v[front.piv][:, None, :], h[:, :, front.p:])
                v += np.bincount(front.bnd, upd.ravel(), minlength=len(v))
        for front, h in zip(reversed(self.plan.fronts), reversed(self.blocks)):
            v[front.piv] = np.matmul(h, v[front.idx][:, :, None])[:, :, 0]
        return v[:-1]
