"""Constraint generation from the resource hypergraph (S4, Theorem 1).

Atomic propositions are ``rsrc(id)`` facts about resource-instance nodes.
Two constraint families are emitted:

1. a unit fact ``rsrc(id)`` for every instance the partial installation
   specification mentions, and
2. for each hyperedge with source ``v`` and targets ``v1..vn``::

       rsrc(v) -> (+){rsrc(v1), ..., rsrc(vn)}

   where ``(+)S`` is the exactly-one predicate.  Inside edges are the
   single-target case, which degenerates to the implication
   ``rsrc(v) -> rsrc(v')`` (the "final five" constraints of the S2
   example).

Theorem 1: a full installation specification extending the partial one
exists iff the conjunction is satisfiable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.hypergraph import ResourceGraph
from repro.sat.cnf import CnfFormula
from repro.sat.encodings import ExactlyOneEncoding, implies_exactly_one


@dataclass
class ConstraintStats:
    """Sizes reported by the E12 encoding ablation."""

    variables: int
    clauses: int
    facts: int
    hyperedges: int


def generate_constraints(
    graph: ResourceGraph,
    encoding: ExactlyOneEncoding = ExactlyOneEncoding.PAIRWISE,
    *,
    facts_as_assumptions: bool = False,
) -> tuple[CnfFormula, ConstraintStats]:
    """Build ``Generate(R, I)`` as a CNF formula over node-id variables.

    With ``facts_as_assumptions`` the family-1 unit facts are *omitted*
    from the clause database; callers pass the corresponding literals to
    ``solve(assumptions=...)`` instead (see :func:`fact_literals`).  The
    clause database then encodes only the graph's dependency structure,
    so it can be kept in a long-lived incremental solver and queried
    under different pinned-instance sets -- the mechanism behind both
    unsat-core shrinking (:mod:`repro.config.explain`) and warm
    configuration sessions (:mod:`repro.config.session`).
    """
    formula = CnfFormula()
    facts = 0

    # Allocate variables in deterministic node order.
    for node in graph.nodes():
        formula.var(node.instance_id)

    # Family 1: partial-spec instances must deploy.
    for node in graph.nodes():
        if node.from_partial:
            facts += 1
            if not facts_as_assumptions:
                formula.add_fact(formula.var(node.instance_id))

    # Family 2: dependency hyperedges.
    for edge in graph.edges():
        source = formula.var(edge.source_id)
        targets = [formula.var(t) for t in edge.targets]
        if len(targets) == 1:
            formula.add_implies(source, targets[0])
        else:
            implies_exactly_one(formula, source, targets, encoding)

    stats = ConstraintStats(
        variables=formula.num_vars,
        clauses=formula.num_clauses,
        facts=facts,
        hyperedges=len(graph.edges()),
    )
    return formula, stats


def fact_literals(graph: ResourceGraph, formula: CnfFormula) -> dict[str, int]:
    """The assumption literal asserting ``rsrc(id)`` for every pinned node.

    Companion to ``generate_constraints(..., facts_as_assumptions=True)``.
    """
    return {
        node.instance_id: formula.var(node.instance_id)
        for node in graph.nodes()
        if node.from_partial
    }


def selected_nodes(
    graph: ResourceGraph, model: dict[str, bool]
) -> tuple[set[str], dict[tuple[str, int], str]]:
    """Decode a model into the deployed node set and disjunct choices.

    A satisfying assignment may set variables of nodes that nothing
    selected depends on (SAT solvers assign every variable); we therefore
    take the *closure* of the partial-spec nodes under chosen hyperedge
    targets instead of trusting raw truth values.

    Returns the set of deployed node ids and, for every (source id, edge
    index among that source's edges) pair, the chosen target id.
    """
    deployed: set[str] = set()
    choices: dict[tuple[str, int], str] = {}
    frontier = [n.instance_id for n in graph.nodes() if n.from_partial]

    while frontier:
        current = frontier.pop()
        if current in deployed:
            continue
        deployed.add(current)
        for index, edge in enumerate(graph.edges_from(current)):
            if len(edge.targets) == 1:
                target = edge.targets[0]
            else:
                # Exactly-one holds under rsrc(current); defensive pick of
                # the first true target in declaration order.
                target = next(
                    (t for t in edge.targets if model.get(t, False)), None
                )
                if target is None:
                    raise AssertionError(
                        f"model selects no target for edge {edge} despite "
                        "satisfying the constraints"
                    )
            choices[(current, index)] = target
            if target not in deployed:
                frontier.append(target)
    return deployed, choices
