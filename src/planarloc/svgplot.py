"""SVG rendering of problems and their solved results.

Drawing happens in data coordinates inside a y-flipped group, so lengths
in the file equal lengths in the plane: the covering circle's r attribute
is the radius, verbatim.  Stroke widths and marker sizes scale with the
drawing's span.  The renderer takes geometry, not a result document.
"""

from __future__ import annotations


def _f(v: float) -> str:
    return repr(float(v))


def render_svg(points, kind: str, solution, support, radius: float) -> str:
    """Draw points, solution, and the certificate geometry as SVG 1.1.

    ``solution`` is the location, or a median's segment ends; a covering
    circle is drawn with ``radius`` and rings on its ``support`` points.
    """
    pts = list(points)
    sol = list(solution)

    xs = [z.real for z in pts + sol]
    ys = [z.imag for z in pts + sol]
    if kind == "chebyshev":
        c = sol[0]
        xs += [c.real - radius, c.real + radius]
        ys += [c.imag - radius, c.imag + radius]
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    pad = 0.12 * span
    x0, x1 = min(xs) - pad, max(xs) + pad
    y0, y1 = min(ys) - pad, max(ys) + pad
    stroke = 0.004 * span
    dot = 0.012 * span

    parts: list[str] = []
    parts.append(
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_f(x0)} {_f(-y1)} {_f(x1 - x0)} {_f(y1 - y0)}" '
        'width="640" height="640" preserveAspectRatio="xMidYMid meet">'
    )
    parts.append('<g transform="scale(1,-1)">')
    parts.append(
        f'<rect x="{_f(x0)}" y="{_f(y0)}" width="{_f(x1 - x0)}" '
        f'height="{_f(y1 - y0)}" fill="white"/>'
    )

    if kind == "chebyshev":
        c = sol[0]
        parts.append(
            f'<circle class="radius" cx="{_f(c.real)}" cy="{_f(c.imag)}" '
            f'r="{_f(radius)}" fill="none" stroke="#7a7ad0" '
            f'stroke-width="{_f(stroke)}"/>'
        )
        for j in support:
            z = pts[j]
            parts.append(
                f'<circle class="support" cx="{_f(z.real)}" cy="{_f(z.imag)}" '
                f'r="{_f(1.8 * dot)}" fill="none" stroke="#d08030" '
                f'stroke-width="{_f(stroke)}"/>'
            )
    elif kind == "fermat":
        w = sol[0]
        gaps = [abs(z - w) for z in pts if abs(z - w) > 0.0]
        if gaps:
            ray_len = 0.35 * min(gaps)
            for z in pts:
                gap = abs(z - w)
                if gap == 0.0:
                    continue
                tip = w + (z - w) / gap * ray_len
                parts.append(
                    f'<line class="ray" x1="{_f(w.real)}" y1="{_f(w.imag)}" '
                    f'x2="{_f(tip.real)}" y2="{_f(tip.imag)}" '
                    f'stroke="#d08030" stroke-width="{_f(stroke)}"/>'
                )
        if len(sol) == 2:
            a, b = sol
            parts.append(
                f'<line class="solution-segment" x1="{_f(a.real)}" '
                f'y1="{_f(a.imag)}" x2="{_f(b.real)}" y2="{_f(b.imag)}" '
                f'stroke="#d03030" stroke-width="{_f(2.5 * stroke)}"/>'
            )

    for z in pts:
        parts.append(
            f'<circle class="pt" cx="{_f(z.real)}" cy="{_f(z.imag)}" '
            f'r="{_f(dot)}" fill="#303030"/>'
        )
    for z in sol:
        parts.append(
            f'<circle class="solution" cx="{_f(z.real)}" cy="{_f(z.imag)}" '
            f'r="{_f(0.8 * dot)}" fill="#d03030"/>'
        )

    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
