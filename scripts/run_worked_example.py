"""Run the five-point covering-circle example end to end.

Solves the instance {4+i, 1+2i, 2-i, 3+(1+sqrt(3))i, 2-sqrt(3)}, prints the
certified center with its support, cross-checks against the grid oracle, and
does the same for the sqrt(2) variant whose outer four points turn out
cocircular.  Optionally renders both to SVG.

    python3 scripts/run_worked_example.py --svg-dir out/
"""

import argparse
import math
import pathlib

import planarloc as pl
from planarloc.svgplot import render_svg

INSTANCES = {
    "sqrt3": [4 + 1j, 1 + 2j, 2 - 1j, 3 + (1 + math.sqrt(3)) * 1j, 2 - math.sqrt(3)],
    "sqrt2": [4 + 1j, 1 + 2j, 2 - 1j, 3 + (1 + math.sqrt(2)) * 1j, 2 - math.sqrt(2)],
}


def fmt(z: complex) -> str:
    return f"{z.real:+.12f} {z.imag:+.12f}i"


def run(name, pts, svg_dir):
    res = pl.solve_chebyshev(pts)
    _, oracle_radius = pl.oracle_cheby(pts)
    print(f"-- {name}")
    print(f"   center   {fmt(res.center)}")
    print(f"   radius   {res.radius:.12f}   (oracle {oracle_radius:.12f})")
    print(f"   support  {res.support}")
    print(f"   residual {res.certificate.residual:.3e}")
    mid = pl.circumcenter3(pts[0], pts[1], pts[2])
    print(f"   circumcenter of the first three  {fmt(mid)}")
    if svg_dir is not None:
        svg = render_svg(pts, "chebyshev", [res.center], res.support, res.radius)
        target = svg_dir / f"{name}.svg"
        target.write_text(svg, encoding="utf-8")
        print(f"   svg      {target}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--svg-dir", default=None, help="write one SVG per instance here")
    args = ap.parse_args()
    svg_dir = None
    if args.svg_dir is not None:
        svg_dir = pathlib.Path(args.svg_dir)
        svg_dir.mkdir(parents=True, exist_ok=True)
    for name, pts in INSTANCES.items():
        run(name, pts, svg_dir)


if __name__ == "__main__":
    main()
