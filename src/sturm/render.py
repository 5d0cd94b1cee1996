"""Deterministic SVG drawings of canonical meanders.

Crossings sit at unit-spaced abscissae along a baseline, arcs are true
semicircles alternating sides, and every coordinate is emitted with a
fixed format, so identical input and style give byte-identical output.
"""
from __future__ import annotations

from typing import NamedTuple

from .errors import NotMeanderError
from .meander import build_diagram, is_meander
from .perm import SturmPermutation, _check_int

MAX_SCALE = 10**6  # px; far larger scales overflow the float coordinates
MARGIN = 40  # px around the drawing
DOT_RADIUS = 3  # px
STROKE_WIDTH = 2  # px, of the arcs


class RenderStyle(NamedTuple):
    """Drawing options of :func:`render_svg`."""

    scale: int = 40  # pixels between adjacent crossings
    show_morse: bool = False
    zero_based_labels: bool = False


def _fmt(v: float) -> str:
    return f"{v:.1f}"


def render_svg(p: SturmPermutation, style: RenderStyle = RenderStyle()) -> str:
    """Standalone SVG document for the canonical diagram of a meander.

    Raises :class:`NotMeanderError` for permutations whose arc families
    cross; drawings of those would be self-intersecting. Raises
    ``ValueError`` for a ``style.scale`` that is not an int in
    ``1..MAX_SCALE``.
    """
    _check_int(style.scale, "scale", 1, MAX_SCALE, "scale must be in 1..{hi}, got {value}")
    if not is_meander(p):
        raise NotMeanderError(f"not a meander permutation: {p}")
    n = p.n
    arcs = build_diagram(p).arcs
    scale = style.scale
    width = 2 * MARGIN + scale * (n - 1)
    max_radius = max(
        [scale * (abs(a.to_pos - a.from_pos)) / 2 for a in arcs],
        default=scale / 2,
    )
    height = int(2 * MARGIN + 2 * max_radius)
    y0 = height / 2

    def x(pos: int) -> float:
        return MARGIN + scale * (pos - 1)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'  <line x1="{_fmt(MARGIN / 2)}" y1="{_fmt(y0)}" x2="{_fmt(width - MARGIN / 2)}" '
        f'y2="{_fmt(y0)}" stroke="black" stroke-width="1"/>',
    ]
    for arc in arcs:
        x1, x2 = x(arc.from_pos), x(arc.to_pos)
        r = abs(x2 - x1) / 2
        # SVG sweep flag 1 walks clockwise on screen (y grows downward),
        # which bulges upward exactly when the arc runs left to right.
        sweep = 1 if (arc.side == "above") == (x2 > x1) else 0
        lines.append(
            f'  <path d="M {_fmt(x1)} {_fmt(y0)} A {_fmt(r)} {_fmt(r)} 0 0 {sweep} '
            f'{_fmt(x2)} {_fmt(y0)}" fill="none" stroke="black" '
            f'stroke-width="{STROKE_WIDTH}"/>'
        )
    for j in range(1, n + 1):
        cx = x(p.position(j))
        label = j - 1 if style.zero_based_labels else j
        lines.append(
            f'  <circle cx="{_fmt(cx)}" cy="{_fmt(y0)}" r="{DOT_RADIUS}" fill="black"/>'
        )
        lines.append(
            f'  <text x="{_fmt(cx)}" y="{_fmt(y0 + 16)}" font-size="11" '
            f'text-anchor="middle" font-family="sans-serif">{label}</text>'
        )
        if style.show_morse:
            lines.append(
                f'  <text x="{_fmt(cx)}" y="{_fmt(y0 - 8)}" font-size="9" '
                f'text-anchor="middle" font-family="sans-serif" fill="gray">'
                f"i={p.morse[j - 1]}</text>"
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
