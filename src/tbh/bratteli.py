"""Ranked Bratteli diagram of the tower of centralizer algebras.

Rank 0 carries the single vertex (a^p); rank i >= 1 carries P_{i-1}.  The
rank 0 -> 1 edges are labeled by the gamma constant of the target, higher
edges by the content of the added box.  Tableaux start at rank 1, so a
tableau with k added boxes ends at rank k+1; ``paths_to`` hides the
off-by-one by returning Tableau objects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import InvariantViolation, VertexNotFound
from .params import HeckeParams
from .partitions import (
    Partition,
    Tableau,
    as_partition,
    content,
    gamma_rect,
    levels_Pk,
    plain_contents,
)
from .scalars import rational_from_str, rational_to_str


def _vertex_order(lams):
    return tuple(sorted(lams, reverse=True))


@dataclass(frozen=True)
class BratteliDiagram:
    params: HeckeParams
    max_height: object  # int or None
    levels: tuple  # levels[r] = ordered tuple of partitions at rank r
    edges: tuple  # edges[r] = tuple of (src_idx, dst_idx, label) from rank r to r+1;
    # labels are Fraction gamma constants at rank 0 and int contents above

    @property
    def num_ranks(self):
        return len(self.levels)

    def vertex_index(self, rank, lam):
        lam = as_partition(lam)
        try:
            return self.levels[rank].index(lam)
        except ValueError:
            raise VertexNotFound(f"{lam} not at rank {rank}") from None

    def __eq__(self, other):
        if not isinstance(other, BratteliDiagram):
            return NotImplemented
        return (
            self.levels == other.levels
            and self.edges == other.edges
            and (self.params.a, self.params.b, self.params.p, self.params.q, self.params.k)
            == (other.params.a, other.params.b, other.params.p, other.params.q, other.params.k)
        )

    __hash__ = None


def build_diagram(params: HeckeParams, max_height=None) -> BratteliDiagram:
    steps, last = levels_Pk(params, params.k, max_height)
    root = as_partition((params.a,) * params.p)
    levels = ((root,),) + tuple(_vertex_order(level) for level in steps + [last])

    edges = [tuple((0, idx, gamma_rect(lam, params)) for idx, lam in enumerate(levels[1]))]
    for successors, src_level, dst_level in zip(steps, levels[1:], levels[2:]):
        dst_index = {lam: i for i, lam in enumerate(dst_level)}
        rank_edges = []
        for si, lam in enumerate(src_level):
            for mu in sorted(successors[lam], reverse=True):
                rank_edges.append((si, dst_index[mu], _added_content(lam, mu)))
        edges.append(tuple(rank_edges))
    return BratteliDiagram(params, max_height, levels, tuple(edges))


def _added_content(lam, mu):
    for r in range(1, len(mu) + 1):
        a = mu[r - 1]
        b = lam[r - 1] if r <= len(lam) else 0
        if a != b:
            return content(r, a)
    raise InvariantViolation("shapes identical")


@dataclass(frozen=True)
class PathBasis:
    lam: Partition
    rank: int
    paths: tuple  # tuple of Tableau, deterministic order


def paths_to(diagram: BratteliDiagram, lam, rank: int) -> PathBasis:
    """All root-to-lam paths, as tableaux, ordered by shifted-content lists."""
    lam = as_partition(lam)
    if rank < 1 or rank >= diagram.num_ranks:
        raise VertexNotFound(f"rank {rank} out of range")
    diagram.vertex_index(rank, lam)
    chains = _walk(_predecessor_table(diagram), rank, lam, {})
    chains.sort(key=plain_contents)
    return PathBasis(lam, rank, tuple(Tableau(chain) for chain in chains))


def _walk(predecessors, rank, shape, memo):
    """Chains from rank 1 up to shape; memo maps (rank, shape) to them."""
    key = (rank, shape)
    if key not in memo:
        if rank == 1:
            memo[key] = [(shape,)]
        else:
            memo[key] = [
                chain + (shape,)
                for prev in predecessors[rank].get(shape, ())
                for chain in _walk(predecessors, rank - 1, prev, memo)
            ]
    return memo[key]


def _predecessor_table(diagram):
    table = {}
    for rank in range(1, diagram.num_ranks - 1):
        mapping = {}
        for si, di, _ in diagram.edges[rank]:
            src = diagram.levels[rank][si]
            dst = diagram.levels[rank + 1][di]
            mapping.setdefault(dst, []).append(src)
        table[rank + 1] = mapping
    return table


def dimension_vector(diagram: BratteliDiagram, rank: int):
    """Path counts per vertex at the given rank."""
    if rank < 0 or rank >= diagram.num_ranks:
        raise VertexNotFound(f"rank {rank} out of range")
    counts = {diagram.levels[0][0]: 1}
    for r in range(rank):
        nxt = {}
        for si, di, _ in diagram.edges[r]:
            src = diagram.levels[r][si]
            dst = diagram.levels[r + 1][di]
            nxt[dst] = nxt.get(dst, 0) + counts.get(src, 0)
        counts = nxt
    return counts


def to_json(diagram: BratteliDiagram) -> bytes:
    doc = {
        "params": {
            "a": diagram.params.a,
            "b": diagram.params.b,
            "p": diagram.params.p,
            "q": diagram.params.q,
            "k": diagram.params.k,
        },
        "max_height": diagram.max_height,
        "levels": [[list(lam) for lam in level] for level in diagram.levels],
        "edges": [
            [{"src": si, "dst": di, "label": rational_to_str(label)} for si, di, label in rank_edges]
            for rank_edges in diagram.edges
        ],
    }
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def from_json(data: bytes) -> BratteliDiagram:
    doc = json.loads(data)
    pd = doc["params"]
    params = HeckeParams(pd["a"], pd["b"], pd["p"], pd["q"], pd["k"])
    levels = tuple(tuple(as_partition(lam) for lam in level) for level in doc["levels"])
    edges = tuple(
        tuple((e["src"], e["dst"], rational_from_str(e["label"])) for e in rank_edges)
        for rank_edges in doc["edges"]
    )
    return BratteliDiagram(params, doc.get("max_height"), levels, edges)


def to_dot(diagram: BratteliDiagram) -> bytes:
    lines = ["digraph bratteli {", "  rankdir=TB;"]
    names = {}
    for rank, level in enumerate(diagram.levels):
        lines.append(f"  subgraph rank_{rank} {{")
        lines.append("    rank=same;")
        for idx, lam in enumerate(level):
            name = f"n{rank}_{idx}"
            names[(rank, idx)] = name
            label = ",".join(str(x) for x in lam) or "empty"
            lines.append(f'    {name} [label="{label}"];')
        lines.append("  }")
    for rank, rank_edges in enumerate(diagram.edges):
        for si, di, label in rank_edges:
            lines.append(
                f'  {names[(rank, si)]} -> {names[(rank + 1, di)]} [label="{rational_to_str(label)}"];'
            )
    lines.append("}")
    return ("\n".join(lines) + "\n").encode()


def export(diagram: BratteliDiagram, fmt: str) -> bytes:
    if fmt == "json":
        return to_json(diagram)
    if fmt == "dot":
        return to_dot(diagram)
    raise ValueError(f"unknown format {fmt!r}")
