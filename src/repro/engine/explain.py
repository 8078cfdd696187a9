"""EXPLAIN rendering of physical plans (the Figure 4 artifact).

Renders an operator tree (or a planned pipeline with its optimizer
decisions) as an indented tree annotated with estimated and — after
execution — actual cardinalities, mirroring Figure 4's plan for Query 9.
"""

from __future__ import annotations

from .operators import Operator
from .optimizer import PlannedPipeline


def explain(root: Operator, show_actuals: bool = False) -> str:
    """Indented tree of the plan; optimizer estimates are rendered
    next to actual cardinalities once executed (``est=…`` / ``out=…``),
    so mis-estimates are visible per operator."""
    lines: list[str] = []

    def visit(op: Operator, depth: int) -> None:
        notes = []
        if op.estimated_rows is not None:
            notes.append(f"est={op.estimated_rows:.1f}")
        if show_actuals:
            notes.append(f"out={op.tuples_out}")
        note = f"  [{' '.join(notes)}]" if notes else ""
        # An INL join applies its pushed-down residual itself.
        residual = getattr(op, "residual", None)
        where = f" where {residual!r}" if residual is not None else ""
        lines.append("  " * depth + op.label + where + note)
        for child in op.children:
            visit(child, depth + 1)

    visit(root, 0)
    return "\n".join(lines)


def explain_pipeline(pipeline: PlannedPipeline,
                     show_actuals: bool = False) -> str:
    """Plan tree plus the per-join optimizer decisions (Fig. 4 style)."""
    parts = [explain(pipeline.root, show_actuals), "", "join decisions:"]
    for decision in pipeline.decisions:
        parts.append(
            f"  ⨝{decision.step_index + 1} {decision.inner_table:<12} "
            f"{decision.algorithm.upper():<5} "
            f"est_outer={decision.estimated_outer:10.1f} "
            f"est_out={decision.estimated_output:10.1f} "
            f"cost(inl)={decision.inl_cost:10.1f} "
            f"cost(hash)={decision.hash_cost:10.1f}")
    return "\n".join(parts)
