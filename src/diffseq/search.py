"""Exact computation of the least prefix length forcing a monochromatic
k-term chain (with witness avoider colorings) and distance-graph chromatic
bounds on prefixes.

The avoider search colors positions left to right and breaks color symmetry
canonically: position 1 is color 1 and a new color may only enter as
(1 + largest color used so far). Per color c it keeps two threat masks, Python
ints with one bit per position up to budget + 1 (higher bits are never read,
so they are cut off). With G the OR of 1 << d over the gaps, T_c is
the OR of G << y over the c-colored positions y ending a chain of length at
least k-1, so bit x of T_c says that coloring x with c completes a k-term
chain; U_c is the same mask at length k-2. A color is rejected by one bit
test of T_c. After each placement the masks are closed under forced moves on
the window (pos, best + 1], best being the deepest avoider found so far: a
position threatened in every color but c must take c, so it joins U_c (k = 3)
or, when U_c hits it (or k = 2), T_c. The closure runs in rounds: each reads
every color's forced set from the masks at its start, then expands colors 1
to r in order, each into U (k = 3) before T, and the rounds repeat until
nothing new is forced. A position threatened in every color is dead: no
extension reaches it, so the subtree cannot go deeper than best and is cut.
The masks are immutable per depth, so backtracking needs no undo.

Two kernels run this loop, and r alone picks one. Each keeps a depth's
state as one tuple (T, U and the two expanded sets) and runs the closure
inline. At r = 2 the two-color kernel holds T_1, T_2, U_1 and U_2 as ints on
local variables, so no list is copied. At r >= 3 the list kernel holds T and
U as per-color lists and copies them once per placement. Both make the same
expansions, prunes and counts, and the tests run the list kernel at r = 2 as
the two-color kernel's reference.

Rejections only remove colorings that contain a k-term chain and the bound
only cuts subtrees that cannot beat the deepest avoider found so far, so the
first-deepest avoider in depth-first order, and with it the verdict, value
and witness, is the one a plain search finds. ``delta`` is the one entry
point. With ``threads`` above 1 (default 1, capped at the CPU count) the
subtrees below a fixed depth are explored in parallel; the result does not
depend on the worker count because results merge in subtree order. A subtree
job places its prefix through the same loop as every other position (one
allowed color each, forced-move closure included), so on more than one
worker ``nodes`` and ``forced`` also count each subtree's prefix placement.

Chromatic numbers of the prefix distance graphs are the k = 2 case: a proper
r-coloring of [1..n] is an r-coloring with no monochromatic 2-term chain.
``chromatic_number_prefix`` takes greedy and clique/odd-cycle bounds, then
runs the same search at k = 2 for r from the lower bound up, under one node
budget for the whole loop. When the budget runs out the bounds stand and the
result is not exact. The bounds read the graph from the same gap mask G and
build no adjacency table: the greedy coloring is first-fit on per-color
threat masks (v takes the least color whose mask has bit v clear, and that
mask then ORs in G << v), and the clique and odd cycle take the neighbours
of v as G << v together with G reflected on [0, n] shifted down by n - v.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass
from typing import Callable, Optional

from .colorings import Coloring, check_length
from .gapsets import GapSetView
from .verify import _gap_mask, _usable_gaps

DELTA = "delta"
UNKNOWN = "unknown"

# search nodes one chromatic_number_prefix call may spend over all color counts
_CHROMATIC_NODES = 5_000_000


@dataclass
class SearchStats:
    """Deterministic counts of one avoider search.

    ``nodes`` counts the color trials left after pruning, the ones a threat
    bit refuses included; ``rejected`` counts those refusals; ``pruned`` the
    placements whose subtree the dead-position bound cut; ``forced`` the
    forced-move expansions of the threat-mask closure. ``split_depth`` is
    the prefix length at which the tree was split across workers and
    ``frontier`` the number of subtrees (None and 0 on one worker).
    """

    nodes: int = 0
    rejected: int = 0
    pruned: int = 0
    forced: int = 0
    split_depth: Optional[int] = None
    frontier: int = 0

    def add(self, other: "SearchStats") -> None:
        self.nodes += other.nodes
        self.rejected += other.rejected
        self.pruned += other.pruned
        self.forced += other.forced

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class DeltaResult:
    """Verdict of the avoider search.

    verdict "delta": every coloring of [1..value] contains a monochromatic
    k-term chain, and the witness (length value-1) avoids one. verdict
    "unknown": the witness avoids over the whole budget, so any such least
    length exceeds the budget.
    """

    gaps: list[int]
    k: int
    r: int
    verdict: str
    value: Optional[int]
    budget: int
    witness: Coloring
    stats: SearchStats
    elapsed: float

    @property
    def nodes(self) -> int:
        return self.stats.nodes

    def to_json(self) -> dict:
        return {
            "gaps": self.gaps,
            "k": self.k,
            "r": self.r,
            "verdict": self.verdict,
            "value": self.value,
            "budget": self.budget,
            "witness": self.witness.to_json(),
            "nodes": self.nodes,
            "stats": self.stats.to_json(),
            "elapsed": round(self.elapsed, 6),
        }


def _spread(gapmask: int, positions: int, width: int) -> int:
    """OR of ``gapmask << x`` over the set bits x of ``positions``, cut to
    the bits of ``width``."""
    out = 0
    while positions:
        low = positions & -positions
        out |= gapmask << (low.bit_length() - 1)
        positions ^= low
    return out & width


def _dfs_deepest(
    gaps: list[int],
    k: int,
    r: int,
    budget: int,
    prefix: bytes = b"",
    stop_depth: Optional[int] = None,
    max_nodes: Optional[int] = None,
) -> tuple[int, bytes, SearchStats, list[bytes]]:
    """Depth-first search for the deepest canonical avoider extending ``prefix``.

    The prefix goes through the main loop like any other positions, each
    allowing only its own color, and the search ends when it backtracks into
    it. Returns (deepest depth, word at that depth, counts, frontier), where
    the frontier lists every avoider of exact length ``stop_depth`` instead
    of descending past it (used to split work). Exits early on a full-budget
    hit. With ``max_nodes`` it also stops at the first backtrack after the
    node count exceeds it, so a returned count above ``max_nodes`` without a
    full-budget hit leaves the tree undecided. Two colors run on the
    two-color kernel, more on the list kernel; both give the same result.
    """
    if r == 2:
        return _dfs_two_color(gaps, k, budget, prefix, stop_depth, max_nodes)
    return _dfs_lists(gaps, k, r, budget, prefix, stop_depth, max_nodes)


def _position_arrays(
    budget: int, prefix: bytes, r: int
) -> tuple[bytearray, list[int], list[int], list[int]]:
    """The per-position arrays of a search extending ``prefix``: colors,
    chain lengths (of the chain ending at each colored position), canonical
    caps (the largest color a position may take) and the next color to try.

    A prefix position allows its own color only, so backtracking into the
    prefix unwinds to the end; past it the cap is 1 + the largest prefix
    color, and the kernels set the caps further on.
    """
    color = bytearray(budget + 2)
    chain = [0] * (budget + 2)
    allowed = [1] * (budget + 2)
    nxt = [1] * (budget + 2)
    fixed = len(prefix)
    nxt[1 : fixed + 1] = allowed[1 : fixed + 1] = prefix
    allowed[fixed + 1] = min(max(prefix, default=0) + 1, r)
    return color, chain, allowed, nxt


def _dfs_two_color(
    gaps: list[int],
    k: int,
    budget: int,
    prefix: bytes,
    stop_depth: Optional[int],
    max_nodes: Optional[int],
) -> tuple[int, bytes, SearchStats, list[bytes]]:
    """``_dfs_deepest`` at r = 2, with every mask a local int.

    The state at depth p is one tuple (T1, T2, U1, U2, done_u, done_t).
    """
    gapmask = _gap_mask(gaps)
    width = (1 << (budget + 2)) - 1
    color, chain, allowed, nxt = _position_arrays(budget, prefix, 2)
    # a canonical 2-coloring may use color 2 from the second position after
    # the prefix on, so the caps past the prefix never change
    fixed = len(prefix)
    allowed[fixed + 2 :] = [2] * (budget - fixed)
    states: list = [None] * (budget + 2)
    threat = (1 << (budget + 1)) - 2 if k == 1 else 0
    states[0] = (threat, threat, 0, 0, 0, 0)

    best_depth = 0
    best_word = b""
    frontier: list[bytes] = []
    nodes = rejected = pruned = forced = 0
    pos = 1
    while pos:
        if pos > budget:
            stats = SearchStats(nodes, rejected, pruned, forced)
            return budget, bytes(color[1 : budget + 1]), stats, frontier
        if stop_depth is not None and pos > stop_depth:
            frontier.append(bytes(color[1:pos]))
            pos -= 1
            continue
        c = nxt[pos]
        if c > allowed[pos]:
            if max_nodes is not None and nodes > max_nodes:
                break
            nxt[pos] = 1
            pos -= 1
            continue
        nxt[pos] = c + 1
        nodes += 1
        T1, T2, U1, U2, done_u, done_t = states[pos - 1]
        if (T1 if c == 1 else T2) >> pos & 1:
            rejected += 1
            continue
        if k == 2 or (U1 if c == 1 else U2) >> pos & 1:
            length = k - 1
        else:
            length = 1
            if k > 3:
                for d in gaps:
                    if d >= pos:
                        break
                    y = pos - d
                    if color[y] == c and chain[y] >= length:
                        length = chain[y] + 1
                        if length == k - 2:
                            break
        color[pos] = c
        chain[pos] = length
        if length >= k - 2:
            add = (gapmask << pos) & width
            if c == 1:
                if k > 2:
                    U1 |= add
                if length == k - 1:
                    T1 |= add
            else:
                if k > 2:
                    U2 |= add
                if length == k - 1:
                    T2 |= add
        if pos > best_depth:
            best_depth = pos
            best_word = bytes(color[1 : pos + 1])
        if pos < budget:
            window = (4 << best_depth) - (2 << pos)
            # rounds run until a fixpoint (break) or a window position
            # threatened in both colors (the else: a dead branch)
            while not T1 & T2 & window:
                one = (T1 ^ T2) & window  # threatened in exactly one color
                f1 = one & T2
                f2 = one & T1
                grew = False
                if f1:
                    if k == 3:
                        new = f1 & ~done_u
                        if new:
                            done_u |= new
                            U1 |= _spread(gapmask, new, width)
                            forced += new.bit_count()
                    new = (f1 if k == 2 else f1 & U1) & ~done_t
                    if new:
                        done_t |= new
                        add = _spread(gapmask, new, width)
                        T1 |= add
                        if k > 3:
                            U1 |= add
                        forced += new.bit_count()
                        grew = True
                if f2:
                    if k == 3:
                        new = f2 & ~done_u
                        if new:
                            done_u |= new
                            U2 |= _spread(gapmask, new, width)
                            forced += new.bit_count()
                    new = (f2 if k == 2 else f2 & U2) & ~done_t
                    if new:
                        done_t |= new
                        add = _spread(gapmask, new, width)
                        T2 |= add
                        if k > 3:
                            U2 |= add
                        forced += new.bit_count()
                        grew = True
                if not grew:
                    break
            else:
                pruned += 1
                continue
        states[pos] = (T1, T2, U1, U2, done_u, done_t)
        pos += 1
    return best_depth, best_word, SearchStats(nodes, rejected, pruned, forced), frontier


def _dfs_lists(
    gaps: list[int],
    k: int,
    r: int,
    budget: int,
    prefix: bytes,
    stop_depth: Optional[int],
    max_nodes: Optional[int],
) -> tuple[int, bytes, SearchStats, list[bytes]]:
    """``_dfs_deepest`` with the masks of each depth in per-color lists; it
    runs at r >= 3, and the tests run it at r = 2 as the two-color kernel's
    reference."""
    gapmask = _gap_mask(gaps)
    # no bit above budget + 1 (the top of the widest window) is ever read
    width = (1 << (budget + 2)) - 1
    color, chain, allowed, nxt = _position_arrays(budget, prefix, r)
    fixed = len(prefix)
    # states[p]: threat masks T, U and expanded sets after positions 1..p are
    # colored and closed
    states: list = [None] * (budget + 2)
    T = [(1 << (budget + 1)) - 2 if k == 1 else 0] * (r + 1)
    states[0] = (T, [0] * (r + 1), 0, 0)

    best_depth = 0
    best_word = b""
    frontier: list[bytes] = []
    nodes = rejected = pruned = forced = 0
    pos = 1
    while pos:
        if pos > budget:
            stats = SearchStats(nodes, rejected, pruned, forced)
            return budget, bytes(color[1 : budget + 1]), stats, frontier
        if stop_depth is not None and pos > stop_depth:
            frontier.append(bytes(color[1:pos]))
            pos -= 1
            continue
        c = nxt[pos]
        if c > allowed[pos]:
            if max_nodes is not None and nodes > max_nodes:
                break
            nxt[pos] = 1
            pos -= 1
            continue
        nxt[pos] = c + 1
        nodes += 1
        T, U, done_u, done_t = states[pos - 1]
        if T[c] >> pos & 1:
            rejected += 1
            continue
        if k == 2 or U[c] >> pos & 1:
            length = k - 1
        else:
            length = 1
            if k > 3:
                # U's bit is clear: no predecessor of color c ends a chain
                # of length k-2, so k-2 is the most pos can reach
                for d in gaps:
                    if d >= pos:
                        break
                    y = pos - d
                    if color[y] == c and chain[y] >= length:
                        length = chain[y] + 1
                        if length == k - 2:
                            break
        color[pos] = c
        chain[pos] = length
        # the placement and the closure update this depth's copies in place
        # (U is never written at k = 2)
        T = T[:]
        if k > 2:
            U = U[:]
        if length >= k - 2:  # G << pos joins U_c, and at length k-1 T_c too
            add = (gapmask << pos) & width
            if k > 2:
                U[c] |= add
            if length == k - 1:
                T[c] |= add
        if pos > best_depth:
            best_depth = pos
            best_word = bytes(color[1 : pos + 1])
        if pos > fixed:
            allowed[pos + 1] = c + 1 if c == allowed[pos] and c < r else allowed[pos]
        if pos < budget:  # the bound only matters on (pos, best_depth + 1]
            window = (4 << best_depth) - (2 << pos)
            while True:
                # suffix[c]: the window positions threatened in colors c..r
                suffix = [window] * (r + 2)
                for c in range(r, 0, -1):
                    suffix[c] = suffix[c + 1] & T[c]
                if suffix[1]:  # threatened in every color: a dead branch
                    break
                grew = False
                prefix = window
                for c in range(1, r + 1):
                    t = T[c]
                    f = prefix & suffix[c + 1] & ~t  # threatened in every color but c
                    prefix &= t
                    if not f:
                        continue
                    if k == 3:  # a forced position ends a chain of length >= 1 = k-2
                        new = f & ~done_u
                        if new:
                            done_u |= new
                            U[c] |= _spread(gapmask, new, width)
                            forced += new.bit_count()
                    # a forced position hit by U ends a chain of length k-1 (any, for k = 2)
                    new = (f if k == 2 else f & U[c]) & ~done_t
                    if new:
                        done_t |= new
                        add = _spread(gapmask, new, width)
                        T[c] |= add
                        if k > 3:
                            U[c] |= add
                        forced += new.bit_count()
                        grew = True
                if not grew:
                    break
            if suffix[1]:
                pruned += 1
                continue
        states[pos] = (T, U, done_u, done_t)
        pos += 1
    return best_depth, best_word, SearchStats(nodes, rejected, pruned, forced), frontier


def check_delta_args(k: int, r: int, budget: int, threads: int) -> None:
    """Refuse the arguments of ``delta`` that no set makes valid, so that a
    caller can check them before it enumerates the set at the budget."""
    check_length(budget, "budget")
    if k < 1 or r < 2:
        raise ValueError("need k >= 1 and r >= 2")
    if r > 255:
        raise ValueError(f"r must be in 2..255, the color bytes (got {r})")
    if threads < 1:
        raise ValueError(f"threads must be >= 1 (got {threads})")


def delta(view: GapSetView, k: int, r: int, budget: int, threads: int = 1) -> DeltaResult:
    """Least n such that every r-coloring of [1..n] has a monochromatic
    k-term chain with gaps in the view, searched up to ``budget``, with the
    longest avoider as witness.

    The search finds the largest n admitting an avoider of [1..n]. When that
    n is below the budget, no avoider of [1..n+1] exists, so the least
    forcing length is exactly n+1 (verdict "delta"). Otherwise the verdict
    is "unknown" at the budget. A single position is a 1-term chain, so
    k = 1 gives 1, with the empty avoider as witness. The worker count must
    be at least 1 and is capped at the number of CPUs. The budget is at
    most ``MAX_LENGTH``, the longest witness a coloring holds.
    """
    check_delta_args(k, r, budget, threads)
    gaps = list(_usable_gaps(view, budget))
    threads = min(threads, os.cpu_count() or 1)
    started = time.perf_counter()

    if threads <= 1 or budget <= 4:
        depth, word, stats, _ = _dfs_deepest(gaps, k, r, budget)
    else:
        depth, word, stats = _parallel_search(gaps, k, r, budget, threads)

    elapsed = time.perf_counter() - started
    witness = Coloring(r, word, {"generator": "avoider", "k": k, "gaps": gaps})
    if depth >= budget:
        return DeltaResult(gaps, k, r, UNKNOWN, None, budget, witness, stats, elapsed)
    return DeltaResult(gaps, k, r, DELTA, depth + 1, budget, witness, stats, elapsed)


def _parallel_search(
    gaps: list[int], k: int, r: int, budget: int, threads: int
) -> tuple[int, bytes, SearchStats]:
    # split at the shallowest depth giving enough independent subtrees
    last = min(budget, 14)
    for depth in range(2, last + 1):
        best_depth, best_word, stats, frontier = _dfs_deepest(
            gaps, k, r, budget, stop_depth=depth
        )
        if best_depth >= budget:
            return best_depth, best_word, stats
        if len(frontier) >= 4 * threads or depth == last:
            break
    if not frontier:
        return best_depth, best_word, stats
    stats.split_depth, stats.frontier = depth, len(frontier)
    # each subtree starts from the split depth; results merge in subtree order,
    # so the first-deepest avoider is the one a single worker finds. The pool
    # module loads only here, so a search that does not split never imports it.
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=threads)
    try:
        futures = [
            pool.submit(_dfs_deepest, gaps, k, r, budget, prefix) for prefix in frontier
        ]
        for future in futures:
            sub_depth, sub_word, sub_stats, _ = future.result()
            stats.add(sub_stats)
            if sub_depth > best_depth:
                best_depth, best_word = sub_depth, sub_word
            if best_depth >= budget:
                break
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    return best_depth, best_word, stats


# -- distance-graph chromatic bounds ------------------------------------------------


@dataclass
class ChromaticResult:
    """Bounds on the chromatic number of the prefix distance graph.

    The proper-coloring witness certifies the upper bound; the clique or odd
    cycle certifies the lower, or, on an exact result, the exhausted search
    for every smaller color count does. The prefix value is itself a lower
    bound for the infinite graph.
    """

    n: int
    lower: int
    upper: int
    exact: bool
    coloring: list[int]
    lower_witness: dict

    @property
    def value(self) -> Optional[int]:
        return self.lower if self.exact else None

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "lower": self.lower,
            "upper": self.upper,
            "exact": self.exact,
            "value": self.value,
            "coloring": self.coloring,
            "lower_witness": self.lower_witness,
        }


def _greedy_coloring(gapmask: int, n: int) -> list[int]:
    """First-fit on per-color threat masks (the k = 2 rule): v takes the
    least color whose mask has bit v clear, and that mask ORs in G << v."""
    threats = [0] * (n + 1)
    colors = []
    for v in range(1, n + 1):
        c = 1
        while threats[c] >> v & 1:
            c += 1
        threats[c] |= gapmask << v
        colors.append(c)
    return colors


def _neighbours(gapmask: int, n: int) -> Callable[[int], int]:
    """Neighbour masks of the distance graph on [1..n]: G << v holds the
    v + d, and G reflected (bit n - d per gap d) shifted down by n - v the v - d."""
    reflected = int(format(gapmask, f"0{n + 1}b")[::-1], 2)
    vertices = (2 << n) - 2

    def neighbours(v: int) -> int:
        return ((gapmask << v) | (reflected >> (n - v))) & vertices

    return neighbours


def _greedy_clique(neighbours: Callable[[int], int], n: int) -> list[int]:
    best: list[int] = []
    for start in range(1, n + 1):
        clique = [start]
        candidates = neighbours(start)
        while candidates:
            low = candidates & -candidates
            u = low.bit_length() - 1
            clique.append(u)
            candidates &= neighbours(u)
        if len(clique) > len(best):
            best = clique
    return sorted(best)


def _odd_cycle(neighbours: Callable[[int], int], n: int) -> Optional[list[int]]:
    # two-color along a spanning tree; any same-side edge closes an odd cycle
    # (side is the parity of the tree path, so the closed walk has odd length)
    side = [-1] * (n + 1)
    parent = [0] * (n + 1)
    for root in range(1, n + 1):
        if side[root] != -1:
            continue
        side[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            nb = neighbours(v)
            while nb:
                low = nb & -nb
                u = low.bit_length() - 1
                nb ^= low
                if side[u] == -1:
                    side[u] = side[v] ^ 1
                    parent[u] = v
                    stack.append(u)
                elif side[u] == side[v] and u != v:
                    chain_v = []
                    x = v
                    while x:
                        chain_v.append(x)
                        x = parent[x]
                    index_of = {x: i for i, x in enumerate(chain_v)}
                    path_u = []
                    y = u
                    while y not in index_of:
                        path_u.append(y)
                        y = parent[y]
                    return chain_v[: index_of[y] + 1] + path_u[::-1]
    return None


def _prefix_bounds(gaps: list[int], n: int) -> tuple[list[int], int, dict]:
    """The greedy coloring of positions 1..n, and the clique or odd-cycle
    lower bound with its witness, all read from the gap mask G by shifts."""
    gapmask = _gap_mask(gaps)
    greedy = _greedy_coloring(gapmask, n)
    neighbours = _neighbours(gapmask, n)
    clique = _greedy_clique(neighbours, n)
    lower = max(len(clique), 1)
    lower_witness = {"kind": "clique", "vertices": clique}
    if lower < 3:
        cycle = _odd_cycle(neighbours, n)
        if cycle is not None and len(cycle) % 2 == 1:
            lower = 3
            lower_witness = {"kind": "odd_cycle", "vertices": cycle}
    return greedy, lower, lower_witness


def chromatic_number_prefix(view: GapSetView, n: int) -> ChromaticResult:
    """Bracket (or exactly solve) the chromatic number of the graph on [1..n]
    whose edges join positions differing by a gap.

    The greedy and clique/odd-cycle bounds read the graph from the gap mask
    by shifts, with no adjacency table. The first r from the lower bound up
    with a 2-chain avoider of [1..n] is the value and its first canonical
    avoider the coloring; the result is exact when the bounds meet or every
    smaller r was refuted within ``_CHROMATIC_NODES`` search nodes. n is at
    most ``MAX_LENGTH``, the longest coloring.
    """
    check_length(n, "n")
    gaps = list(_usable_gaps(view, n))
    coloring, lower, lower_witness = _prefix_bounds(gaps, n)
    upper = max(coloring, default=1)
    nodes_left = _CHROMATIC_NODES
    value: Optional[int] = upper  # the greedy coloring witnesses the upper bound
    for r in range(lower, upper):
        depth, word, stats, _ = _dfs_deepest(gaps, 2, r, n, max_nodes=nodes_left)
        nodes_left -= stats.nodes
        if depth == n:
            value, coloring = r, list(word)
            break
        if nodes_left < 0:  # the search stopped early: r is not refuted
            value = None
            break
    if value is not None:
        lower = upper = value
    return ChromaticResult(n, lower, upper, value is not None, coloring, lower_witness)
