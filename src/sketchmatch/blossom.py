"""Maximum-weight matching in a general graph: Edmonds' weighted blossom algorithm.

:func:`max_weight_matching` is the O(V^3) primal-dual method as surveyed
by Galil ("Efficient algorithms for finding maximum matching in graphs",
ACM Computing Surveys 18(1), 1986).  Each *stage* grows alternating
trees from every free vertex over tight edges, shrinking odd cycles
into blossoms, until an augmenting path appears; when none does, one
dual update by the largest safe ``delta`` makes a new edge tight,
unlocks an inner blossom for expansion, or proves the matching optimal
(some vertex dual reaches 0).

Weights are Python ints.  Vertex duals are stored doubled (``2 u_v``)
and blossom duals plain (``z_B``), so with integer weights every slack
and every ``delta`` is an integer and no dual update depends on a float
comparison: the matching returned is a maximum-weight matching exactly.

Edge ``k`` has the two *endpoints* ``2k`` (its first vertex) and
``2k + 1`` (its second); ``p ^ 1`` is the other endpoint of the same
edge.  A vertex's ``mate`` and a blossom's ``label_end`` hold the
endpoint at the far side of their edge.

The inner loops of a stage run on local lists, with the slack of an
edge computed in place.  A dual update reads only the live top-level
blossoms (the nontrivial ones are kept in an ascending id list), and a
zero ``delta`` changes no dual.  The candidates for ``delta`` are
visited in blossom-id order, vertices first, and only a strictly
smaller candidate replaces the one found first, so ties resolve as in
a scan of every id.
"""

from __future__ import annotations

import bisect
from typing import Sequence

__all__ = ["max_weight_matching"]

# Labels of top-level blossoms (and, for bookkeeping, of their vertices).
FREE, OUTER, INNER = 0, 1, 2
# Transient mark on outer blossoms visited while tracing two tree paths.
_SEEN = 4


def max_weight_matching(n: int, edges: Sequence[tuple[int, int, int]]) -> list[int]:
    """Indices, ascending, of the edges of a maximum-weight matching.

    ``edges`` holds ``(i, j, w)`` with ``0 <= i, j < n``, ``i != j`` and
    integer ``w``; edges of weight ``<= 0`` are never matched.  Parallel
    edges are allowed.
    """
    search = _Search(n, edges)
    search.run()
    return sorted({search.edge_ids[p >> 1] for p in search.mate if p != -1})


class _Search:
    """The primal-dual state of one maximum-weight matching computation.

    Blossom ids ``0..n-1`` are the vertices; ids ``n..2n-1`` are the
    nontrivial blossoms, drawn from ``spare`` and returned to it on
    expansion.  A nontrivial blossom ``b`` lists its sub-blossoms in
    cycle order in ``children[b]``, starting with the one holding the
    base; ``links[b][i]`` is the endpoint in ``children[b][i]`` of the
    edge joining it to ``children[b][i + 1]`` (cyclically).
    """

    def __init__(self, n: int, edges: Sequence[tuple[int, int, int]]) -> None:
        kept = [(i, j, w) for (i, j, w) in edges if w > 0]
        self.n = n
        self.edge_ids = [k for k, (_i, _j, w) in enumerate(edges) if w > 0]
        self.ends = [v for (i, j, _w) in kept for v in (i, j)]
        self.weight = [w for (_i, _j, w) in kept]
        # incident[v]: the far endpoints of v's edges
        self.incident: list[list[int]] = [[] for _ in range(n)]
        for k, (i, j, _w) in enumerate(kept):
            self.incident[i].append(2 * k + 1)
            self.incident[j].append(2 * k)
        self.mate = [-1] * n
        self.dual = [max(self.weight, default=0)] * n + [0] * n
        self.outer = list(range(n))
        self.parent = [-1] * (2 * n)
        self.children: list[list[int] | None] = [None] * (2 * n)
        self.links: list[list[int] | None] = [None] * (2 * n)
        self.base = list(range(n)) + [-1] * n
        self.spare = list(range(2 * n - 1, n - 1, -1))
        self.live: list[int] = []  # nontrivial blossom ids in use, ascending
        self.label = [FREE] * (2 * n)
        self.label_end = [-1] * (2 * n)
        # best[b]: least-slack edge from outer blossom b to another outer
        # blossom, or from an outer blossom to vertex b that is not yet
        # reachable; best_list[b]: an outer blossom's candidates per
        # neighbouring outer blossom, kept so merging stays O(V).
        self.best = [-1] * (2 * n)
        self.best_list: list[list[int] | None] = [None] * (2 * n)
        self.tight = [False] * len(kept)
        self.queue: list[int] = []

    # -- helpers -----------------------------------------------------------

    def slack(self, k: int) -> int:
        """Twice the reduced cost of edge ``k`` between two top-level blossoms."""
        return self.dual[self.ends[2 * k]] + self.dual[self.ends[2 * k + 1]] - 2 * self.weight[k]

    def leaves(self, b: int) -> list[int]:
        """The vertices of blossom ``b``."""
        out, stack = [], [b]
        while stack:
            c = stack.pop()
            if c < self.n:
                out.append(c)
            else:
                stack.extend(self.children[c])
        return out

    def assign(self, v: int, kind: int, p: int) -> None:
        """Label the top-level blossom of ``v``, reached through endpoint ``p``.

        An inner blossom's base is matched, and its mate's blossom joins
        the tree as outer right behind it.
        """
        while True:
            b = self.outer[v]
            self.label[v] = self.label[b] = kind
            self.label_end[v] = self.label_end[b] = p
            self.best[v] = self.best[b] = -1
            if kind == OUTER:
                self.queue.extend(self.leaves(b))
                return
            q = self.mate[self.base[b]]
            v, kind, p = self.ends[q], OUTER, q ^ 1

    def meet(self, v: int, w: int) -> int:
        """Base of the blossom a tight edge between outer ``v`` and ``w`` closes.

        Walks both tree paths toward their roots in turn; ``-1`` when
        they reach two different roots, so the edge completes an
        augmenting path.
        """
        seen, found = [], -1
        while v != -1:
            b = self.outer[v]
            if self.label[b] & _SEEN:
                found = self.base[b]
                break
            self.label[b] |= _SEEN
            seen.append(b)
            p = self.label_end[b]
            if p == -1:
                v = -1
            else:
                v = self.ends[self.label_end[self.outer[self.ends[p]]]]
            if w != -1:
                v, w = w, v
        for b in seen:
            self.label[b] = OUTER
        return found

    # -- blossoms ----------------------------------------------------------

    def shrink(self, base: int, k: int) -> None:
        """Contract the odd cycle closed by tight edge ``k`` into a new outer blossom."""
        outer, label_end, ends = self.outer, self.label_end, self.ends
        b = self.spare.pop()
        bisect.insort(self.live, b)
        root = outer[base]
        self.base[b], self.parent[b], self.parent[root] = base, -1, b
        # From the root to the first end of k (walked back, then reversed),
        # then from the second end back to the root.
        kids, links = [], []
        c = outer[ends[2 * k]]
        while c != root:
            self.parent[c] = b
            kids.append(c)
            links.append(label_end[c])
            c = outer[ends[label_end[c]]]
        kids.append(root)
        kids.reverse()
        links.reverse()
        links.append(2 * k)
        c = outer[ends[2 * k + 1]]
        while c != root:
            self.parent[c] = b
            kids.append(c)
            links.append(label_end[c] ^ 1)
            c = outer[ends[label_end[c]]]
        self.children[b], self.links[b] = kids, links
        self.label[b], self.label_end[b], self.dual[b] = OUTER, label_end[root], 0
        for v in self.leaves(b):
            if self.label[outer[v]] == INNER:
                self.queue.append(v)  # inner vertices turn outer
            outer[v] = b
        # least-slack edges from the new blossom to each outer neighbour
        best_to: dict[int, int] = {}
        for c in kids:
            cands = self.best_list[c]
            if cands is None:
                cands = [p >> 1 for v in self.leaves(c) for p in self.incident[v]]
            for e in cands:
                far = outer[ends[2 * e]]
                if far == b:
                    far = outer[ends[2 * e + 1]]
                if far != b and self.label[far] == OUTER:
                    have = best_to.get(far)
                    if have is None or self.slack(e) < self.slack(have):
                        best_to[far] = e
            self.best_list[c], self.best[c] = None, -1
        self.best_list[b] = list(best_to.values())
        self.best[b] = min(self.best_list[b], key=self.slack, default=-1)

    def expand(self, b: int, end_of_stage: bool) -> None:
        """Dissolve blossom ``b`` into its sub-blossoms.

        Mid-stage ``b`` is an inner blossom whose dual reached 0: the
        even side of its cycle, from the child the tree enters to the
        base, joins the tree with alternating labels, and each child on
        the odd side is labelled inner only if a tight edge already
        reached one of its vertices.
        """
        kids, links = self.children[b], self.links[b]
        for c in kids:
            self.parent[c] = -1
            if c < self.n:
                self.outer[c] = c
            elif end_of_stage and self.dual[c] == 0:
                self.expand(c, True)
            else:
                for v in self.leaves(c):
                    self.outer[v] = c
        if not end_of_stage and self.label[b] == INNER:
            ends = self.ends
            p = self.label_end[b]
            entry = kids.index(self.outer[ends[p ^ 1]])
            if entry % 2:
                j, step = entry - len(kids), 1
            else:
                j, step = entry, -1

            def toward(j: int) -> int:
                """Endpoint in ``kids[j]`` of its cycle edge to ``kids[j + step]``."""
                return links[j] if step == 1 else links[j - 1] ^ 1

            while j != 0:
                self.assign(ends[p ^ 1], INNER, p)
                self.tight[toward(j) >> 1] = True
                j += step
                p = toward(j)
                self.tight[p >> 1] = True
                j += step
            # The base child: its mate, outside b, is already outer.
            v = ends[p ^ 1]
            self.label[v] = self.label[kids[0]] = INNER
            self.label_end[v] = self.label_end[kids[0]] = p
            self.best[kids[0]] = -1
            # The odd side; a child may already be outer as the mate of
            # an odd-side child labelled just before it.  (A vertex child
            # reads INNER here when it is only reached, not yet labelled.)
            j += step
            while kids[j] != kids[entry]:
                if self.label[kids[j]] != OUTER:
                    reached = [v for v in self.leaves(kids[j]) if self.label[v] != FREE]
                    if reached:
                        self.assign(reached[0], INNER, self.label_end[reached[0]])
                j += step
        self.children[b] = self.links[b] = self.best_list[b] = None
        self.label[b], self.label_end[b], self.base[b], self.best[b] = FREE, -1, -1, -1
        self.spare.append(b)
        self.live.remove(b)

    def rebase(self, b: int, v: int) -> None:
        """Flip the even path from vertex ``v`` to the base of ``b``; ``v`` becomes the base."""
        c = v
        while self.parent[c] != b:
            c = self.parent[c]
        if c >= self.n:
            self.rebase(c, v)
        kids, links = self.children[b], self.links[b]
        i = kids.index(c)
        if i % 2:
            j, step = i - len(kids), 1
        else:
            j, step = i, -1
        while j != 0:
            j += step
            p = links[j] if step == 1 else links[j - 1] ^ 1
            if kids[j] >= self.n:
                self.rebase(kids[j], self.ends[p])
            j += step
            if kids[j] >= self.n:
                self.rebase(kids[j], self.ends[p ^ 1])
            self.mate[self.ends[p]] = p ^ 1
            self.mate[self.ends[p ^ 1]] = p
        self.children[b] = kids[i:] + kids[:i]
        self.links[b] = links[i:] + links[:i]
        self.base[b] = self.base[self.children[b][0]]

    def augment(self, k: int) -> None:
        """Flip the augmenting path through tight edge ``k`` between two trees."""
        ends = self.ends
        for s, p in ((ends[2 * k], 2 * k + 1), (ends[2 * k + 1], 2 * k)):
            while True:
                bs = self.outer[s]
                if bs >= self.n:
                    self.rebase(bs, s)
                self.mate[s] = p
                if self.label_end[bs] == -1:
                    break  # s's tree root, now matched
                bt = self.outer[ends[self.label_end[bs]]]
                q = self.label_end[bt]
                s, t = ends[q], ends[q ^ 1]
                if bt >= self.n:
                    self.rebase(bt, t)
                self.mate[t] = q
                p = q ^ 1

    # -- stages ------------------------------------------------------------

    def run(self) -> None:
        n, mate, outer, label_end = self.n, self.mate, self.outer, self.label_end
        for _stage in range(n):
            self.label = label = [FREE] * (2 * n)
            self.best = [-1] * (2 * n)
            self.best_list[n:] = [None] * n
            self.tight = [False] * len(self.weight)
            self.queue = queue = []
            for v in range(n):
                if mate[v] == -1 and label[outer[v]] == FREE:
                    if outer[v] == v:
                        # assign(v, OUTER, -1) on a lone vertex, whose best
                        # edge the reset above already cleared
                        label[v], label_end[v] = OUTER, -1
                        queue.append(v)
                    else:
                        self.assign(v, OUTER, -1)
            if not self.grow():
                return
            for b in list(self.live):
                if (
                    self.parent[b] == -1
                    and self.base[b] >= 0
                    and self.label[b] == OUTER
                    and self.dual[b] == 0
                ):
                    self.expand(b, True)

    def grow(self) -> bool:
        """Grow the trees and update duals until an augmentation (True) or optimality (False)."""
        n, ends, outer, label, dual = self.n, self.ends, self.outer, self.label, self.dual
        weight, incident, tight, best = self.weight, self.incident, self.tight, self.best
        parent, label_end, queue, live = self.parent, self.label_end, self.queue, self.live
        while True:
            while queue:
                v = queue.pop()
                dual_v = dual[v]
                for p in incident[v]:
                    w = ends[p]
                    bv, bw = outer[v], outer[w]
                    if bv == bw:
                        continue
                    k = p >> 1
                    if not tight[k]:
                        slack = dual_v + dual[w] - 2 * weight[k]
                        if slack <= 0:
                            tight[k] = True
                    if tight[k]:
                        if label[bw] == FREE:
                            self.assign(w, INNER, p ^ 1)
                        elif label[bw] == OUTER:
                            base = self.meet(v, w)
                            if base == -1:
                                self.augment(k)
                                return True
                            self.shrink(base, k)
                        elif label[w] == FREE:
                            # w is inside an inner blossom: remember how it
                            # was reached, for when that blossom expands
                            label[w], label_end[w] = INNER, p ^ 1
                    elif label[bw] == OUTER:
                        e = best[bv]
                        if e == -1 or slack < (
                            dual[ends[2 * e]] + dual[ends[2 * e + 1]] - 2 * weight[e]
                        ):
                            best[bv] = k
                    elif label[w] == FREE:
                        e = best[w]
                        if e == -1 or slack < (
                            dual[ends[2 * e]] + dual[ends[2 * e + 1]] - 2 * weight[e]
                        ):
                            best[w] = k

            # No tight edge is left to scan: the largest safe dual change.
            # Candidates are visited in blossom-id order (vertices, then
            # live blossoms), and only a smaller one replaces the first.
            top_label = [label[b] for b in outer]
            kind, delta, arg = 1, min(dual[:n]), -1
            for v in range(n):
                e = best[v]
                if e != -1 and top_label[v] == FREE:
                    d = dual[ends[2 * e]] + dual[ends[2 * e + 1]] - 2 * weight[e]
                    if d < delta:
                        kind, delta, arg = 2, d, e
            # both ends of an outer blossom's best edge are outer, so its
            # slack is even
            for v in range(n):
                e = best[v]
                if e != -1 and parent[v] == -1 and label[v] == OUTER:
                    d = (dual[ends[2 * e]] + dual[ends[2 * e + 1]] - 2 * weight[e]) // 2
                    if d < delta:
                        kind, delta, arg = 3, d, e
            tops = [b for b in live if parent[b] == -1]
            for b in tops:
                e = best[b]
                if e != -1 and label[b] == OUTER:
                    d = (dual[ends[2 * e]] + dual[ends[2 * e + 1]] - 2 * weight[e]) // 2
                    if d < delta:
                        kind, delta, arg = 3, d, e
            for b in tops:
                if label[b] == INNER and dual[b] < delta:
                    kind, delta, arg = 4, dual[b], b

            if delta:
                dual[:n] = [
                    y - delta if lab == OUTER else y + delta if lab == INNER else y
                    for y, lab in zip(dual, top_label)
                ]
                for b in tops:
                    if label[b] == OUTER:
                        dual[b] += delta
                    elif label[b] == INNER:
                        dual[b] -= delta

            if kind == 1:
                return False  # a vertex dual reached 0: the matching is optimal
            if kind == 4:
                self.expand(arg, False)
            else:
                tight[arg] = True
                i = ends[2 * arg]
                if label[outer[i]] != OUTER:
                    i = ends[2 * arg + 1]
                queue.append(i)
