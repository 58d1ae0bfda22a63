"""Control/data-flow graph (CDFG) extraction and model-shape matching.

The paper observes that, once Python's dynamism has been stripped away, the
CDFG of the generated IR "matches closely with the interconnection of nodes
in the model" (section 4).  That observation is what makes all the
model-level analyses possible.  This module makes the observation testable:

* :func:`build_cdfg` exports the instruction-level control and data flow of a
  function as a ``networkx`` graph;
* :func:`model_flow_graph` collapses that graph to one node per cognitive
  model node, using the ``source_node`` metadata the model code generator
  attaches to every emitted instruction; and
* :func:`matches_model_structure` checks that every projection of the
  original composition appears as a data-flow edge between the corresponding
  node regions of the IR — the property the paper's analyses rely on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Optional, Set, Tuple

from ..ir.instructions import Instruction, Phi
from ..ir.module import Function

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

# networkx is imported where a graph is built: it holds ~22k GC-tracked
# objects, which every full collection of a compiling process would walk.


def build_cdfg(function: Function) -> nx.DiGraph:
    """Instruction-level CDFG of ``function``.

    Nodes are instruction identifiers; edges are labelled ``kind="data"`` for
    SSA def-use edges and ``kind="control"`` for block-successor edges
    (attached between block terminators and the first instruction of each
    successor block).
    """
    import networkx as nx

    graph = nx.DiGraph(name=f"cdfg:{function.name}")

    def node_id(instr: Instruction) -> str:
        return f"{id(instr):x}"

    for block in function.blocks:
        for instr in block.instructions:
            graph.add_node(
                node_id(instr),
                opcode=instr.opcode,
                block=block.name,
                source_node=instr.metadata.get("source_node"),
                label=str(instr),
            )

    for block in function.blocks:
        for instr in block.instructions:
            for op in instr.operands:
                if isinstance(op, Instruction):
                    graph.add_edge(node_id(op), node_id(instr), kind="data")
        term = block.terminator
        if term is None:
            continue
        for succ in block.successors():
            if succ.instructions:
                graph.add_edge(node_id(term), node_id(succ.instructions[0]), kind="control")
    return graph


def model_flow_graph(function: Function) -> nx.DiGraph:
    """Model-level flow graph: one node per ``source_node`` tag.

    An edge ``a -> b`` is added whenever any instruction tagged ``a`` feeds an
    instruction tagged ``b`` through SSA def-use or through a store/load pair
    on the same buffer offset cannot be tracked statically — the code
    generator therefore also tags GEPs into the node-output structures, which
    is sufficient to recover the inter-node signal flow.
    """
    import networkx as nx

    graph = nx.DiGraph(name=f"model_flow:{function.name}")
    for block in function.blocks:
        for instr in block.instructions:
            tag = instr.metadata.get("source_node")
            if tag is not None and tag not in graph:
                graph.add_node(tag)

    for block in function.blocks:
        for instr in block.instructions:
            dst_tag = instr.metadata.get("source_node")
            if dst_tag is None:
                continue
            for op in instr.operands:
                if not isinstance(op, Instruction):
                    continue
                src_tag = op.metadata.get("source_node")
                if src_tag is None or src_tag == dst_tag:
                    continue
                graph.add_edge(src_tag, dst_tag)
            # Reads of another node's output buffer are tagged by the code
            # generator with ``reads_output_of``; add those edges as well.
            reads = instr.metadata.get("reads_output_of")
            if reads:
                for src_tag in reads if isinstance(reads, (list, tuple, set)) else [reads]:
                    if src_tag != dst_tag:
                        graph.add_edge(src_tag, dst_tag)
    return graph


def matches_model_structure(
    flow_graph: nx.DiGraph,
    expected_edges: Iterable[Tuple[str, str]],
    expected_nodes: Optional[Iterable[str]] = None,
) -> Tuple[bool, list]:
    """Check that the IR flow graph covers the model's projections.

    Returns ``(ok, missing)`` where ``missing`` lists projections of the model
    that have no corresponding data-flow edge in the IR — which would indicate
    the compiler dropped a signal path.
    """
    missing = []
    if expected_nodes is not None:
        for node in expected_nodes:
            if node not in flow_graph:
                missing.append((node, None))
    for src, dst in expected_edges:
        if not flow_graph.has_edge(src, dst):
            missing.append((src, dst))
    return (not missing), missing


def cdfg_statistics(function: Function) -> Dict[str, int]:
    """Summary statistics used by reports and tests."""
    graph = build_cdfg(function)
    data_edges = sum(1 for _, _, d in graph.edges(data=True) if d.get("kind") == "data")
    control_edges = sum(
        1 for _, _, d in graph.edges(data=True) if d.get("kind") == "control"
    )
    tagged = sum(1 for _, d in graph.nodes(data=True) if d.get("source_node"))
    return {
        "instructions": graph.number_of_nodes(),
        "data_edges": data_edges,
        "control_edges": control_edges,
        "tagged_instructions": tagged,
    }
