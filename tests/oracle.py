"""A reference partitioner written from the paper, not from the product.

Plain Python walking CuSP's Algorithms 1-4 (paper SIII-IV), calling the
policy's rules through their paper signatures one element at a time:
``getMaster`` = ``rule.assign(prop, v, mstate, masters)``, ``getEdgeOwner``
= ``rule.owner(prop, s, d, m_s, m_d, estate)``.  It shares the rule objects
and ``GraphProp`` with the product, and no executor, communicator, ledger,
owner grouping or ``CSRGraph.from_edges``.  Output is dicts and lists.
The semantics are stated here, not inherited:

Reading.  Host ``h`` of ``k`` reads a contiguous node range: edge-balanced
  blocks of ``B = ceil((|E| + 1) / k)`` edges that never split a node (range
  ``h`` starts at the first node whose first out-edge id is ``>= h * B``);
  node-balanced ``floor(linspace(0, |V|, k + 1))`` when ``|E| = 0``.  A
  ``"csc"`` policy streams the transpose: in-edges, in CSR order.
Masters.  A pure rule (no state, no ``masters`` argument) is ``assign(prop,
  v, None)`` per vertex.  A history-sensitive rule runs ``sync_rounds``
  rounds: in round ``r`` host ``h`` scores the ids ``[c[r], c[r+1])``, ``c =
  floor(linspace(start, stop, rounds + 1))``, in id order against *the loads
  and masters as of the end of round r-1 plus its own round-r updates*;
  everything else becomes visible at the round boundary.  Loads are the
  paper's ``mstate`` (``numNodes[p]``, ``numEdges[p]``), summed over hosts
  there.  Recorded quirk: a rule with a ``degree_threshold`` (FennelEB)
  first assigns a chunk's vertices of out-degree > threshold (they go to
  ContiguousEB and touch no state) and publishes them to the host's view
  *before* scoring any other row of the chunk.
Edges.  A stateless rule is ``owner(...)`` per edge with the final masters.
  A stateful rule (PGC, HDRF) is one global CSR-order stream against one
  state: hosts take turns in host order, each seeing all that the last one
  placed.  Recorded quirk: ``frozen_chunk=c`` scores each run of ``c``
  consecutive edges of a *host's* stream against the state at the run's
  start, its placements landing when the next run starts; ``HDRFRule``'s
  default ``chunk_size=256`` does that (1 is the plain stream).
Construction.  Partition ``j`` holds the edges it owns and a proxy for every
  vertex it masters or one of its edges touches.  Local ids list masters
  ascending by global id, then mirrors ascending.  Local edges are sorted by
  (local src, local dst), parallel edges and their weights in CSR order;
  ``"csc"`` output adds the same edges grouped by local dst, in that order.
"""

import numpy as np

from repro.core.prop import GraphProp


def _edges(graph):
    """Edges in CSR order, as ``(src, dst)`` or ``(src, dst, weight)``."""
    indptr = graph.indptr.tolist()
    cols = [[u for u in range(graph.num_nodes)
             for _ in range(indptr[u], indptr[u + 1])], graph.indices.tolist()]
    if graph.edge_data is not None:
        cols.append(graph.edge_data.tolist())
    return list(zip(*cols))


def streamed(graph, policy):
    """The graph the policy streams: the transpose for ``"csc"`` input."""
    if policy.input_format != "csc":
        return graph
    order = np.argsort(graph.indices, kind="stable")
    cuts = np.searchsorted(graph.indices[order], np.arange(graph.num_nodes + 1))
    src = np.array([e[0] for e in _edges(graph)], dtype=np.int64)[order]
    data = graph.edge_data
    return type(graph)(cuts, src, None if data is None else data[order])


def read_ranges(graph, k):
    n, m = graph.num_nodes, graph.num_edges
    if m == 0:
        cuts = np.floor(np.linspace(0, n, k + 1)).astype(int).tolist()
    else:
        block = -(-(m + 1) // k)
        cuts = [min(int(np.searchsorted(graph.indptr, h * block)), n)
                for h in range(k)] + [n]
    return list(zip(cuts[:-1], cuts[1:]))


class _Loads:
    """The paper's ``mstate`` (Algorithm 1): per-partition counts."""

    def __init__(self, counts):
        self.counts = counts.copy()
        self.numNodes, self.numEdges = self.counts  # row views

    def add_node(self, part, count=1):
        self.numNodes[part] += count

    def add_edges(self, part, count):
        self.numEdges[part] += count


def assign_masters(prop, rule, ranges, sync_rounds):
    n, k = prop.getNumNodes(), prop.getNumPartitions()
    if not (rule.uses_masters or rule.stateful):
        return [int(rule.assign(prop, v, None)) for v in range(n)]
    visible = np.full(n, -1, dtype=np.int32)
    loads = np.zeros((2, k), dtype=np.int64)
    chunks = [np.floor(np.linspace(a, b, sync_rounds + 1)).astype(int).tolist()
              for a, b in ranges]
    threshold = getattr(rule, "degree_threshold", None)
    for r in range(sync_rounds):
        views = []
        for c in chunks:
            mine, state = visible.copy(), _Loads(loads)
            known = mine if rule.uses_masters else None
            ids = list(range(c[r], c[r + 1]))
            if threshold is not None:
                # Stable: hubs first, then the rest, each in id order.
                ids.sort(key=lambda v: prop.getNodeOutDegree(v) <= threshold)
            for v in ids:
                mine[v] = rule.assign(prop, v, state, known)
            views.append((c[r], c[r + 1], mine, state))
        for lo, hi, mine, _ in views:
            visible[lo:hi] = mine[lo:hi]
        loads = loads + sum(state.counts - loads for *_, state in views)
    return visible.tolist()


class _Replicas:
    """The streaming vertex-cuts' ``estate``.  Placements wait for
    :meth:`commit`, so the caller decides when they become visible."""

    def __init__(self, k, n):
        self._replicas = np.zeros((k, n), dtype=bool)
        self.load = np.zeros(k, dtype=np.int64)
        self._degree = [0] * n
        self._held = []

    def replicas_of(self, node):
        return self._replicas[:, node].copy()

    def degree(self, node):
        return self._degree[node]

    def place(self, part, src, dst):
        self._held.append((part, src, dst))

    def commit(self):
        for part, src, dst in self._held:
            self._replicas[part, src] = self._replicas[part, dst] = True
            self.load[part] += 1
            self._degree[src] += 1
            self._degree[dst] += 1
        self._held = []


def assign_edges(prop, rule, ranges, masters, frozen_chunk=1):
    graph = prop.graph
    edges, indptr = _edges(graph), graph.indptr.tolist()
    k, n = prop.getNumPartitions(), graph.num_nodes
    estate, owners = _Replicas(k, n) if rule.stateful else None, []
    for start, stop in ranges:  # hosts take turns; one state throughout
        stream = edges[indptr[start]:indptr[stop]]
        for i, (s, d, *_) in enumerate(stream):
            if estate is not None and i % frozen_chunk == 0:
                estate.commit()  # a run starts: the last one's placements land
            owner = rule.owner(prop, s, d, masters[s], masters[d], estate)
            owners.append(int(owner))
    return owners


def build_partitions(graph, k, masters, owners, output):
    edges, parts = _edges(graph), []
    for j in range(k):
        mine = [e for e, owner in zip(edges, owners) if owner == j]
        proxies = {v for v, m in enumerate(masters) if m == j}
        proxies.update(v for e in mine for v in e[:2])
        gids = sorted(proxies, key=lambda v: (masters[v] != j, v))
        local = {g: i for i, g in enumerate(gids)}
        part = {"global_ids": gids,
                "num_masters": sum(masters[v] == j for v in gids),
                "edges": sorted(((local[e[0]], local[e[1]]) + e[2:] for e in mine),
                                key=lambda e: e[:2])}
        if output == "csc":
            part["in_edges"] = sorted(
                ((e[1], e[0]) + e[2:] for e in part["edges"]), key=lambda e: e[0]
            )
        parts.append(part)
    return parts


def partition(graph, policy, k, sync_rounds=100, output="csr", frozen_chunk=1):
    """Partition ``graph`` into ``k`` parts under ``policy``."""
    graph = streamed(graph, policy)
    prop, ranges = GraphProp(graph, k), read_ranges(graph, k)
    masters = assign_masters(prop, policy.master_rule, ranges, sync_rounds)
    owners = assign_edges(prop, policy.edge_rule, ranges, masters, frozen_chunk)
    parts = build_partitions(graph, k, masters, owners, output)
    return {"ranges": ranges, "masters": masters, "partitions": parts}


def as_lists(dg):
    """A product ``DistributedGraph`` in the oracle's output form."""
    parts = []
    for p in dg.partitions:
        part = {"global_ids": p.global_ids.tolist(), "num_masters": p.num_masters,
                "edges": _edges(p.local_graph)}
        if p.local_csc is not None:
            part["in_edges"] = _edges(p.local_csc)
        parts.append(part)
    return {"masters": dg.masters.tolist(), "partitions": parts}


def _balance(counts):
    mean = sum(counts) / len(counts)
    return max(counts) / mean if mean > 0 else 1.0


def check_paper_invariants(dg, graph, policy, ranges):
    """Assert the paper-level invariants of a fault-free product run from
    its edge lists and proxy tables; ``graph`` as :func:`streamed`."""
    got = as_lists(dg)
    masters, parts = got["masters"], got["partitions"]
    n, k = graph.num_nodes, len(parts)
    # One owner per edge: the partitions' edges are the input multiset.
    owned = [(p["global_ids"][e[0]], p["global_ids"][e[1]]) + e[2:]
             for p in parts for e in p["edges"]]
    assert sorted(owned) == sorted(_edges(graph))
    # One master per vertex, where the map says; no mirror of a local master.
    mastered = sorted((v, j) for j, p in enumerate(parts)
                      for v in p["global_ids"][:p["num_masters"]])
    assert mastered == list(enumerate(masters))
    for j, p in enumerate(parts):
        assert len(set(p["global_ids"])) == len(p["global_ids"])
        assert all(masters[v] != j for v in p["global_ids"][p["num_masters"]:])
    # Quality numbers, recomputed from the lists.
    proxies = sum(len(p["global_ids"]) for p in parts)
    assert dg.replication_factor() == (proxies / n if n else 0.0)
    assert dg.edge_balance() == _balance([len(p["edges"]) for p in parts])
    assert dg.node_balance() == _balance([p["num_masters"] for p in parts])
    rule = policy.edge_rule.name
    if (policy.master_rule.name, rule) == ("ContiguousEB", "Source"):
        # EEC (paper SV-A): nothing moves but 8-byte "nothing to send" notes.
        if graph.num_edges:
            assert masters == [h for h, (a, b) in enumerate(ranges)
                               for _ in range(a, b)]
        sent = {ph.name: ph.comm_bytes for ph in dg.breakdown.phases}
        assert sent["Master Assignment"] == sent["Graph Construction"] == 0
        assert sent["Edge Assignment"] == 8 * k * (k - 1)
    # The most square grid, as many columns as rows or more.
    cols = k // max(r for r in range(1, k + 1) if r * r <= k and k % r == 0)
    for j, p in enumerate(parts):
        if policy.invariant == "2d-cut":
            # Every edge lives in the grid row of its source's master.
            assert all(masters[p["global_ids"][e[0]]] // cols == j // cols
                       for e in p["edges"])
        if rule == "Cartesian":
            # Every proxy sits in the grid row or column of its master.
            assert all(masters[v] // cols == j // cols or
                       masters[v] % cols == j % cols for v in p["global_ids"])
