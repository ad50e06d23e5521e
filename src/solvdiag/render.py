"""DOT rendering of classified kernel-chain diagrams.

Two layouts.  "graph" draws three rows (kernels, members, symplectic
quotients) with inclusion edges between rows, rightward edges along the
member row, and a reduction edge labeled mw pointing left along the
quotient row on every descending step.  "diagram" draws the vertices in
one row with a single edge per ascending step and a pair of opposite
edges per descending step.
"""

from __future__ import annotations

from .diagram import StepDirection, WeightedDiagram, contract
from .document import rational_repr

STYLES = ("graph", "diagram")


def _vertex_label(prefix: str, v) -> str:
    return (
        f"{prefix}{v.index}\\n"
        f"dim {v.member.dim}, ker {v.kernel.dim}\\n"
        f"{v.vclass.value}, w={rational_repr(v.weight)}"
    )


def render_dot(diagram: WeightedDiagram, style: str = "graph") -> str:
    if style not in STYLES:
        raise ValueError(f"style must be one of {STYLES}")
    vs = diagram.vertices
    lines = ["digraph kernel_chain {", "  rankdir=LR;", '  node [shape=box, fontsize=10];']

    if style == "diagram" or len(vs) == 1:
        for v in vs:
            lines.append(f'  S{v.index} [label="{_vertex_label("S", v)}"];')
        for i, s in enumerate(diagram.steps):
            a, b = vs[i].index, vs[i + 1].index
            lines.append(f"  S{a} -> S{b};")
            if s is StepDirection.DOWN:
                lines.append(f"  S{b} -> S{a};")
    else:
        for v in vs:
            lines.append(f'  H{v.index} [label="H{v.index}\\ndim {v.kernel.dim}"];')
        for v in vs:
            lines.append(f'  G{v.index} [label="{_vertex_label("G", v)}"];')
        for v in vs:
            quot = v.member.dim - v.kernel.dim
            lines.append(f'  M{v.index} [label="M{v.index}\\ndim {quot}"];')
        for row in "HGM":
            ids = " ".join(f"{row}{v.index};" for v in vs)
            lines.append(f"  {{ rank=same; {ids} }}")
        for v in vs:
            lines.append(f"  H{v.index} -> G{v.index};")
            lines.append(f"  G{v.index} -> M{v.index};")
        for i, s in enumerate(diagram.steps):
            a, b = vs[i].index, vs[i + 1].index
            lines.append(f"  G{a} -> G{b};")
            if s is StepDirection.UP:
                lines.append(f"  H{a} -> H{b};")
                lines.append(f"  M{a} -> M{b};")
            else:
                lines.append(f"  H{b} -> H{a};")
                lines.append(f'  M{b} -> M{a} [label="mw"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def contracted_text(diagram: WeightedDiagram) -> str:
    """One-line arrow form of the contracted step sequence.

    Ascending runs print as ->, descending runs as <=>; the nodes are the
    run boundaries, annotated with their member dimensions.
    """
    vs = diagram.vertices
    parts = [f"O[{vs[0].index}]"]
    pos = 0
    for direction, n in contract(diagram):
        pos += n
        parts.append(" -> " if direction is StepDirection.UP else " <=> ")
        parts.append(f"O[{vs[pos].index}]")
    return "".join(parts)
