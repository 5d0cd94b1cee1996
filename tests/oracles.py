"""Independent oracles for the combinatorial routines.

The two geometric oracles work on the rendered geometry of the canonical
diagram (crossings at integer abscissae, arcs as true semicircles) with
float arithmetic, so they share no code path with the sign-bookkeeping
they cross-check. The scan oracles recompute the connection set and the
signed target sets pair by pair from the scalar criterion, the reference
for the vectorized connection scan and the bucketed target sets.
"""
import math

from sturm import SturmPermutation, build_diagram, connects, is_z_adjacent


def geometric_crossing(p: SturmPermutation, j: int, k: int, ell: int) -> int:
    """Signed crossings of the curve segment with the vertical line at ell,
    counted from cross products at the actual intersection points."""
    lo, hi = min(j, k), max(j, k)
    x_line = float(p.position(ell))
    arcs = {a.curve_step: a for a in build_diagram(p).arcs}
    total = 0
    for m in range(lo, hi):
        arc = arcs[m]
        x1, x2 = float(arc.from_pos), float(arc.to_pos)
        if not min(x1, x2) < x_line < max(x1, x2):
            # Misses the line, or touches it only at the crossing point
            # ell itself, which is ignored by convention.
            continue
        center = (x1 + x2) / 2.0
        radius = abs(x2 - x1) / 2.0
        cos_phi = (x_line - center) / radius
        sin_phi = math.sqrt(max(0.0, 1.0 - cos_phi * cos_phi))
        if arc.side == "below":
            sin_phi = -sin_phi
        point_y = radius * sin_phi
        # Angle decreases along the motion exactly for above arcs that
        # run left to right (and below arcs right to left).
        dphi = -1.0 if (arc.side == "above") == (x2 > x1) else 1.0
        velocity = (-sin_phi * dphi, cos_phi * dphi)
        # Rotation sense around the line's base point: z-component of
        # (P - L) x V; clockwise (negative) counts +1.
        omega = 0.0 * velocity[1] - point_y * velocity[0]
        total += 1 if omega < 0 else -1
    return total if j <= k else -total


def _circles_cross(a, b) -> bool:
    c1 = (a.from_pos + a.to_pos) / 2.0
    r1 = abs(a.to_pos - a.from_pos) / 2.0
    c2 = (b.from_pos + b.to_pos) / 2.0
    r2 = abs(b.to_pos - b.from_pos) / 2.0
    d = abs(c1 - c2)
    return abs(r1 - r2) < d < r1 + r2


def geometric_is_meander(p: SturmPermutation) -> bool:
    """Meander test from circle intersections of same-side semicircles."""
    diagram = build_diagram(p)
    for side in ("above", "below"):
        arcs = diagram.side(side)
        for i in range(len(arcs)):
            for j in range(i + 1, len(arcs)):
                if _circles_cross(arcs[i], arcs[j]):
                    return False
    return True


def scan_target_set(model, base: int, k: int, sign: str) -> set[int]:
    """Signed target set by a scan over every label: signed zero number
    at the level, then the scalar connection criterion for each one."""
    return {
        w
        for w in range(1, model.n + 1)
        if w != base and model.signed_z(base, w) == (k, sign) and connects(model, base, w)
    }


def scalar_connections(model) -> set[tuple[int, int]]:
    """Connection set by the scalar criterion: Morse drop plus z-adjacency."""
    return {
        (j, k)
        for j in range(1, model.n + 1)
        for k in range(1, model.n + 1)
        if j != k and model.morse[j - 1] > model.morse[k - 1] and is_z_adjacent(model, j, k)[0]
    }
