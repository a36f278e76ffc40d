"""GT-ITM-style transit-stub Internet underlay.

The paper's MSPastry simulations use "a topology generated by GT-ITM as an
underlying (Internet) topology" for 1000 overlay nodes.  GT-ITM is an
external C package; we substitute a synthetic generator with the same
three-level structure:

- a small clique-ish core of *transit domains*, each containing several
  *transit nodes* (ring plus chords);
- each transit node attaches several *stub domains*;
- each stub domain is a small connected random graph of *stub nodes*.

Link latencies follow the usual GT-ITM classing: transit-transit
(inter-domain) links are slowest, intra-transit next, transit-stub next,
intra-stub fastest, each with multiplicative jitter.  Pairwise latency is
the shortest-path delay, computed once in numpy and kept in parts — every
source's delay to the transit nodes, each stub domain's own table, and each
stub node's path from its domain's transit node — so no all-pairs matrix is
ever held (:class:`UnderlayDelays`).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.errors import ConfigurationError, OverlayError
from repro.sim.rng import derive_rng


_LINK_LATENCIES = (
    "transit_transit_latency",
    "intra_transit_latency",
    "transit_stub_latency",
    "intra_stub_latency",
)


@dataclasses.dataclass(frozen=True)
class TransitStubParams:
    """Structural and latency parameters of the synthetic underlay."""

    transit_domains: int = 2
    transit_nodes_per_domain: int = 5
    stub_domains_per_transit: int = 4
    stub_nodes_per_domain: int = 25
    # one-way latencies in seconds (GT-ITM-style link classes)
    transit_transit_latency: float = 0.050
    intra_transit_latency: float = 0.020
    transit_stub_latency: float = 0.010
    intra_stub_latency: float = 0.002
    jitter: float = 0.2  # +/- fraction applied per link

    def __post_init__(self) -> None:
        if min(
            self.transit_domains,
            self.transit_nodes_per_domain,
            self.stub_domains_per_transit,
            self.stub_nodes_per_domain,
        ) < 1:
            raise ConfigurationError("all transit-stub structure counts must be >= 1")
        if not 0 <= self.jitter < 1:
            raise ConfigurationError(f"jitter must be in [0, 1), got {self.jitter}")
        for name in _LINK_LATENCIES:
            value = getattr(self, name)
            if not 0 <= value < math.inf:  # nan fails too
                raise ConfigurationError(f"{name} must be non-negative and finite, got {value}")

    @property
    def total_nodes(self) -> int:
        transit = self.transit_domains * self.transit_nodes_per_domain
        stubs = transit * self.stub_domains_per_transit * self.stub_nodes_per_domain
        return transit + stubs


class TransitStubUnderlay:
    """A generated transit-stub underlay with all-pairs latencies."""

    def __init__(self, params: TransitStubParams = TransitStubParams(), seed: object = 0):
        self.params = params
        self.seed = seed
        self._build()

    @classmethod
    def for_size(cls, approx_nodes: int, seed: object = 0) -> "TransitStubUnderlay":
        """Pick structure parameters to reach roughly ``approx_nodes`` nodes.

        Keeps 2 transit domains x 5 transit nodes (the classic GT-ITM
        `ts 2 5` shape used for ~1000-node studies) and scales the stub
        domain size.
        """
        if approx_nodes < 20:
            params = TransitStubParams(
                transit_domains=1,
                transit_nodes_per_domain=2,
                stub_domains_per_transit=2,
                stub_nodes_per_domain=max(1, (approx_nodes - 2) // 4),
            )
            return cls(params, seed=seed)
        transit = 10  # 2 domains x 5 nodes
        stub_domains = transit * 4
        stub_size = max(1, round((approx_nodes - transit) / stub_domains))
        params = TransitStubParams(stub_nodes_per_domain=stub_size)
        return cls(params, seed=seed)

    def _build(self) -> None:
        p = self.params
        rng = derive_rng(self.seed, "transit-stub", p.total_nodes)
        n = p.total_nodes
        self.num_nodes = n
        edges: list[tuple[int, int, float]] = []

        def jittered(base: float) -> float:
            return base * (1.0 + rng.uniform(-p.jitter, p.jitter))

        # Transit nodes come first: domain t occupies
        # [t * per_domain, (t+1) * per_domain).
        per_domain = p.transit_nodes_per_domain
        transit_count = p.transit_domains * per_domain
        for t in range(p.transit_domains):
            base = t * per_domain
            # ring (two nodes share one edge, a lone node has none)
            for i in range(per_domain if per_domain > 2 else per_domain - 1):
                edges.append(
                    (base + i, base + (i + 1) % per_domain, jittered(p.intra_transit_latency))
                )
            # a chord for resilience in larger domains
            if per_domain >= 4:
                edges.append((base, base + per_domain // 2, jittered(p.intra_transit_latency)))
        # inter-domain links: connect every pair of transit domains through
        # a random representative pair (full mesh of domains).
        for t1 in range(p.transit_domains):
            for t2 in range(t1 + 1, p.transit_domains):
                u = t1 * per_domain + rng.randrange(per_domain)
                v = t2 * per_domain + rng.randrange(per_domain)
                edges.append((u, v, jittered(p.transit_transit_latency)))

        # stub domains
        next_node = transit_count
        for transit_node in range(transit_count):
            for _ in range(p.stub_domains_per_transit):
                members = list(range(next_node, next_node + p.stub_nodes_per_domain))
                next_node += p.stub_nodes_per_domain
                # connected random stub: a path plus a few random chords
                for i in range(1, len(members)):
                    j = rng.randrange(i)
                    edges.append(
                        (members[i], members[j], jittered(p.intra_stub_latency))
                    )
                for _ in range(len(members) // 4):
                    u, v = rng.sample(members, 2)
                    edges.append((u, v, jittered(p.intra_stub_latency)))
                # uplink: the stub domain's gateway connects to its transit node
                gateway = members[0]
                edges.append(
                    (gateway, transit_node, jittered(p.transit_stub_latency))
                )

        self._edges = edges
        self._delays: UnderlayDelays | None = None

    @property
    def transit_nodes(self) -> range:
        p = self.params
        return range(p.transit_domains * p.transit_nodes_per_domain)

    @property
    def num_transit_domains(self) -> int:
        """Number of transit domains — the *regions* correlated outages hit."""
        return self.params.transit_domains

    def transit_domain_of(self, node: int) -> int:
        """The transit domain an underlay node belongs to.

        Transit nodes belong to their own domain; stub nodes belong to the
        domain of the transit node their stub domain uplinks through.  This
        is the region key used by
        :class:`repro.perturbation.outage.RegionalOutage`.
        """
        if not 0 <= node < self.num_nodes:
            raise OverlayError(
                f"underlay node {node} out of range (n={self.num_nodes})"
            )
        p = self.params
        transit_count = p.transit_domains * p.transit_nodes_per_domain
        if node >= transit_count:
            # stub domains follow the transit nodes in order, each
            # transit node's stub domains together
            node = (node - transit_count) // (p.stub_domains_per_transit * p.stub_nodes_per_domain)
        return node // p.transit_nodes_per_domain

    @property
    def stub_nodes(self) -> range:
        p = self.params
        return range(p.transit_domains * p.transit_nodes_per_domain, p.total_nodes)

    def edge_list(self) -> list[tuple[int, int, float]]:
        return list(self._edges)

    def delays(self) -> "UnderlayDelays":
        """One-way shortest-path delays between all underlay nodes, computed
        on the first call."""
        if self._delays is None:
            self._delays = _shortest_paths(self.params, self._edges)
        return self._delays

    def random_attachment(self, overlay_nodes: int, seed: object = 0) -> list[int]:
        """Attach overlay nodes to distinct stub nodes (falling back to
        sampling with replacement when the overlay outnumbers the stubs)."""
        rng = derive_rng(self.seed, "attachment", seed, overlay_nodes)
        stubs = list(self.stub_nodes)
        if overlay_nodes <= len(stubs):
            return rng.sample(stubs, overlay_nodes)
        return [rng.choice(stubs) for _ in range(overlay_nodes)]


class UnderlayDelays:
    """One-way shortest-path delays between underlay nodes, held in parts.

    A stub domain meets the rest of the underlay only at its gateway, so
    a delay into a domain from outside it is the source's delay to the
    domain's transit node followed by the target's *path* from there: the
    uplink, then the links of its branch in the gateway's shortest-path
    tree, added one at a time, ``((t + up) + w1) + ...``.  Each target
    reads from an *anchor* row of delays from every source: its domain's
    transit node, itself if it is a transit node, or its own relaxed
    column where the path sum differs from the relaxation for some source
    (a near tie that rounding breaks the other way; that target then has
    an empty path).  Pairs inside one domain read the domain's own table.
    Every delay is therefore the one Dijkstra computes, bit for bit.

    :meth:`delay` reads one pair through a per-target tuple and
    ``memoryview`` rows.  :meth:`block` makes the same additions in tree
    order, one tree level of every domain at a time, so a node's sum is
    its parent's plus one link.
    """

    def __init__(
        self,
        transit: np.ndarray,
        tables: np.ndarray,
        uplinks: list[tuple[int, float]],
        trees: list[list[tuple[int, int, float]]],
        kept: dict[int, np.ndarray],
    ):
        """``uplinks[d]`` is stub domain ``d``'s transit node and uplink
        weight, and ``trees[d]`` its gateway's tree as ``(node, parent,
        weight)`` in breadth-first order, nodes numbered within the
        domain."""
        transit_count, n = transit.shape
        size = tables.shape[1]
        self._transit_count = transit_count
        self._size = size
        #: the targets that read their own relaxed column
        self.kept_columns = tuple(sorted(kept))
        self._anchors = np.vstack([transit, *(kept[v] for v in self.kept_columns)])
        self._anchors.flags.writeable = False
        self._tables = tables
        self._tables.flags.writeable = False
        self._cells = memoryview(tables).cast("B").cast("d")
        # each stub node's parent, link weight and depth below the transit
        # nodes: a gateway hangs from its transit node by the uplink, and
        # so does a node no tree reaches (its column is kept)
        parent = np.arange(n)
        weight = np.zeros(n)
        depth = [0] * n
        paths: list[tuple[float, ...]] = [()] * n
        for domain, ((node, up), tree) in enumerate(zip(uplinks, trees)):
            start = transit_count + domain * size
            parent[start:start + size] = node
            weight[start:start + size] = up
            depth[start:start + size] = [1] * size
            paths[start:start + size] = [(up,)] * size
            for v, p, w in tree:
                parent[start + v] = start + p
                weight[start + v] = w
                depth[start + v] = depth[start + p] + 1
                paths[start + v] = paths[start + p] + (w,)
        # :meth:`block`'s columns hold the nodes level by level, so each
        # level is one slice computed from a gather of the one before
        order = np.argsort(depth, kind="stable")
        self._position = np.empty(n, dtype=np.intp)
        self._position[order] = np.arange(n)
        ends = np.cumsum(np.bincount(depth))
        self._levels = [
            (lo, hi, self._position[parent[order[lo:hi]]], weight[order[lo:hi]])
            for lo, hi in zip(ends[:-1].tolist(), ends[1:].tolist())
        ]
        self._kept_positions = self._position[list(self.kept_columns)]
        flat = memoryview(self._anchors).cast("B").cast("d")
        rows = [flat[a * n:(a + 1) * n] for a in range(len(self._anchors))]
        self._reads = [(rows[t], (), 0, 0, 0) for t in range(transit_count)]
        for domain, (node, _up) in enumerate(uplinks):
            start = transit_count + domain * size
            # a source in the domain reads cells[offset + source]
            offset = domain * size * size - start
            self._reads.extend(
                (rows[node], paths[start + local], start, start + size, offset + local * size)
                for local in range(size)
            )
        for anchor, target in enumerate(self.kept_columns, transit_count):
            self._reads[target] = (rows[anchor], ()) + self._reads[target][2:]

    def delay(self, source: int, target: int) -> float:
        """The delay from underlay node ``source`` to ``target``."""
        row, path, start, stop, offset = self._reads[target]
        if start <= source < stop:
            return self._cells[offset + source]
        value = row[source]
        for weight in path:
            value += weight
        return value

    def block(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Delays from each of ``sources`` (rows) to each of ``targets``
        (columns), as :meth:`delay` computes them."""
        transit_count, size = self._transit_count, self._size
        sums = np.empty((len(sources), len(self._position)))
        sums[:, :transit_count] = self._anchors[:transit_count, sources].T
        for lo, hi, parents, weights in self._levels:
            np.add(np.take(sums, parents, axis=1), weights, out=sums[:, lo:hi])
        # a kept column replaces a path sum once the node's children have
        # theirs, and a source's own domain reads the domain's table
        sums[:, self._kept_positions] = self._anchors[transit_count:, sources].T
        inside = np.flatnonzero(sources >= transit_count)
        domains, local = np.divmod(sources[inside, None] - transit_count, size)
        members = transit_count + domains * size + np.arange(size)
        sums[inside[:, None], self._position[members]] = self._tables[
            domains, np.arange(size), local
        ]
        return np.take(sums, self._position[targets], axis=1)

def _relax(block: np.ndarray, links: list[tuple[int, int, float]]) -> None:
    """Gauss-Seidel Bellman-Ford in place: ``block[v, s]`` is the delay
    from source ``s`` to target ``v``, and each undirected link ``(u, v,
    w)`` relaxes ``u -> v`` and then ``v -> u`` for every source at once.
    Sweeps alternate between the links' order and its reverse until one
    changes nothing: until no step is below the row it feeds."""
    rows = list(block)
    step = np.empty(block.shape[1])
    changed = True
    while changed:
        changed = False
        for u, v, w in links:
            np.add(rows[u], w, out=step)
            changed = changed or bool((step < rows[v]).any())
            np.minimum(rows[v], step, out=rows[v])
            np.add(rows[v], w, out=step)
            changed = changed or bool((step < rows[u]).any())
            np.minimum(rows[u], step, out=rows[u])
        links = links[::-1]


def _relax_domains(block: np.ndarray, steps: list) -> None:
    """:func:`_relax` for many independent graphs at once: each step
    ``(u, v, w)`` holds one link of every graph, ``u`` and ``v`` as arrays
    of rows and ``w`` as a column of delays."""
    changed = True
    while changed:
        changed = False
        for u, v, w in steps:
            near, far = block[u], block[v]
            step = near + w
            changed = changed or bool((step < far).any())
            block[v] = far = np.minimum(far, step, out=far)
            step = far + w
            changed = changed or bool((step < near).any())
            block[u] = np.minimum(near, step, out=near)
        steps = steps[::-1]


def _gateway_tree(
    delay: list[float], links: list[tuple[int, int, float]]
) -> list[tuple[int, int, float]]:
    """A stub domain's shortest-path tree from its gateway (node 0), as
    ``(node, parent, weight)`` breadth first.  A link joins the tree where
    the gateway's ``delay`` to its near end plus its weight is exactly the
    delay to its far end, so a branch summed from zero down the tree is
    the domain table's delay bit for bit.  A node no such chain reaches is
    left out, and the build's check then keeps its column."""
    adjacent: list[list[tuple[int, float]]] = [[] for _ in delay]
    for u, v, w in links:
        adjacent[u].append((v, w))
        adjacent[v].append((u, w))
    reached = [True] + [False] * (len(delay) - 1)
    tree = []
    queue = [0]
    for u in queue:
        for v, w in adjacent[u]:
            if not reached[v] and delay[u] + w == delay[v]:
                reached[v] = True
                tree.append((v, u, w))
                queue.append(v)
    return tree


def _shortest_paths(
    params: TransitStubParams, edges: list[tuple[int, int, float]]
) -> UnderlayDelays:
    """All-pairs shortest-path delays, as :class:`UnderlayDelays` parts.

    Every stub domain meets the rest of the underlay only at its gateway
    (its first node) through one uplink, so no path between two other
    nodes crosses it.  Three stages then give every pair: each domain's
    own table, every source to the transit nodes (entering the core from
    a stub through the gateway), and each domain relaxed from its gateway
    with every source's delay there, one ``(size, n)`` block at a time.
    The third stage keeps nothing but the columns where a target's path
    sum differs from it.  A delay is accumulated link by link from the
    source and IEEE addition is monotone, so the relaxation's fixed point
    is bit for bit what Dijkstra computes.
    """
    transit_count = params.transit_domains * params.transit_nodes_per_domain
    size = params.stub_nodes_per_domain
    domains = transit_count * params.stub_domains_per_transit
    n = params.total_nodes
    # A stub domain's chords may draw a link it already has.  Such a link
    # weighs the sum of its draws, added in draw order.  That is a defect,
    # but every result so far rests on it: keeping one draw instead (which
    # changes results) is a change of this one line.
    weights: dict[tuple[int, int], float] = {}
    for u, v, w in edges:
        key = (min(u, v), max(u, v))
        weights[key] = weights.get(key, 0.0) + w
    core: list[tuple[int, int, float]] = []
    uplinks: list[tuple[int, float]] = [(0, 0.0)] * domains
    local: list[list[tuple[int, int, float]]] = [[] for _ in range(domains)]
    for (u, v), w in weights.items():
        if v < transit_count:
            core.append((u, v, w))
        elif u < transit_count:
            uplinks[(v - transit_count) // size] = (u, w)
        else:
            domain, a = divmod(u - transit_count, size)
            local[domain].append((a, v - transit_count - domain * size, w))

    # Every domain's own table at once, row ``domain * size + node``: step
    # k relaxes the k-th link of each domain, and a domain with fewer
    # links takes an infinite self-loop, which changes nothing.  A node's
    # parent in the random tree precedes it, so links taken by their
    # later end from the last node back carry every delay up the tree in
    # the first sweep and down in the second.
    count = max(map(len, local))
    padded = np.array(
        [
            sorted(links, key=lambda link: -link[1]) + [(0, 0, np.inf)] * (count - len(links))
            for links in local
        ]
    ).reshape(domains, count, 3)
    ends = padded[..., :2].astype(np.intp) + (np.arange(domains) * size)[:, None, None]
    tables = np.full((domains, size, size), np.inf)
    tables[:, np.arange(size), np.arange(size)] = 0.0
    _relax_domains(
        tables.reshape(domains * size, size),
        list(zip(ends[..., 0].T, ends[..., 1].T, padded[..., 2].T[..., None])),
    )

    transit = np.full((transit_count, n), np.inf)
    np.fill_diagonal(transit[:, :transit_count], 0.0)
    for domain, (node, up) in enumerate(uplinks):
        start = transit_count + domain * size
        transit[node, start:start + size] = tables[domain, 0] + up
    _relax(transit, core)

    trees = [_gateway_tree(tables[d, :, 0].tolist(), links) for d, links in enumerate(local)]
    kept: dict[int, np.ndarray] = {}
    block = np.empty((size, n))
    sums = np.empty((size, n))
    for domain, (node, up) in enumerate(uplinks):
        start = transit_count + domain * size
        block.fill(np.inf)
        np.add(transit[node], up, out=block[0])
        block[:, start:start + size] = tables[domain]
        # nearest link first, each from its nearer end, as seen from the
        # gateway: the first sweep then usually reaches the fixed point
        gate = tables[domain, :, 0]
        links = sorted(
            ((u, v, w) if gate[u] <= gate[v] else (v, u, w) for u, v, w in local[domain]),
            key=lambda link: gate[link[1]],
        )
        _relax(block, links)
        # every path sum from every source, with the additions a read
        # makes, down the tree; a node the tree misses stays infinite, and
        # the domain's own sources read its table
        sums.fill(np.inf)
        np.add(transit[node], up, out=sums[0])
        for v, parent, w in trees[domain]:
            np.add(sums[parent], w, out=sums[v])
        sums[:, start:start + size] = tables[domain]
        for target in np.flatnonzero((sums != block).any(axis=1)).tolist():
            kept[start + target] = block[target].copy()
    return UnderlayDelays(transit, tables, uplinks, trees, kept)
