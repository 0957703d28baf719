"""Deterministic SVG rendering of result tables.

Data-faithful, dependency-free plots: grid sweeps are drawn as one
polyline+markers per encoding dimension m (Schmidt number K against the
window size s, with a legend), loss tables as one curve of the loss
Δ = m − mean_K against m.  Error bars are vertical ±std segments; when a
table carries an analytic column it is overlaid as a dashed curve, in the
curve's colour for a sweep and in black for a loss table.  Output is a pure
function of the table, so re-rendering the same data yields byte-identical
files.
"""

from __future__ import annotations

from .errors import EntruncError
from .results import ResultTable, _write_text

__all__ = ["render_svg", "emit_plot"]

WIDTH, HEIGHT = 640, 440
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 64, 18, 30, 48

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)


def _px(value: float) -> str:
    return f"{value:.2f}"


class _Axes:
    """Linear data-to-pixel mapping with padded ranges."""

    def __init__(self, xs: list[float], ys: list[float]) -> None:
        self.xmin, self.xmax = _padded(min(xs), max(xs))
        self.ymin, self.ymax = _padded(min(ys), max(ys))

    def x(self, v: float) -> float:
        span = self.xmax - self.xmin
        return MARGIN_LEFT + (v - self.xmin) / span * (WIDTH - MARGIN_LEFT - MARGIN_RIGHT)

    def y(self, v: float) -> float:
        span = self.ymax - self.ymin
        return HEIGHT - MARGIN_BOTTOM - (v - self.ymin) / span * (
            HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
        )


def _padded(lo: float, hi: float) -> tuple[float, float]:
    if hi <= lo:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _line(x1, y1, x2, y2, color: str = "black") -> str:
    return (f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="{color}" stroke-width="1"/>')


def _text(x, y, size: int, anchor: str, body: str, extra: str = "") -> str:
    # escaped by hand: html.escape's import, with its entity tables, took 0.4 MB of peak RSS
    body = body.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return f'<text x="{x}" y="{y}" font-size="{size}" text-anchor="{anchor}"{extra}>{body}</text>'


def _polyline(xs, ys, color: str, style: str) -> list[str]:
    """One polyline through the points, or none for fewer than 2 points."""
    if len(xs) < 2:
        return []
    points = " ".join(f"{_px(x)},{_px(y)}" for x, y in zip(xs, ys))
    return [f'<polyline points="{points}" fill="none" stroke="{color}" {style}/>']


def _series_svg(xs, ys, errs, color: str) -> list[str]:
    parts = [_line(_px(x), _px(y - err), _px(x), _px(y + err), color)
             for x, y, err in zip(xs, ys, errs) if err]
    parts += _polyline(xs, ys, color, 'stroke-width="1.5"')
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{_px(x)}" cy="{_px(y)}" r="3" fill="{color}"/>')
    return parts


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _frame_svg(axes: _Axes, x_label: str, y_label: str, title: str) -> list[str]:
    x0, x1 = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    y0, y1 = HEIGHT - MARGIN_BOTTOM, MARGIN_TOP
    parts = [
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        _line(x0, y0, x1, y0),
        _line(x0, y0, x0, y1),
    ]
    for v in _ticks(axes.xmin, axes.xmax):
        px = _px(axes.x(v))
        parts += [_line(px, y0, px, y0 + 5), _text(px, y0 + 18, 11, "middle", f"{v:.4g}")]
    for v in _ticks(axes.ymin, axes.ymax):
        py = axes.y(v)
        parts += [_line(x0 - 5, _px(py), x0, _px(py)),
                  _text(x0 - 8, _px(py + 4), 11, "end", f"{v:.4g}")]
    mid_x, mid_y = (x0 + x1) // 2, (y0 + y1) // 2
    parts += [
        _text(mid_x, HEIGHT - 10, 13, "middle", x_label),
        _text(16, mid_y, 13, "middle", y_label, f' transform="rotate(-90 16 {mid_y})"'),
        _text(mid_x, 18, 13, "middle", title),
    ]
    return parts


def render_svg(table: ResultTable) -> str:
    if not table.rows:
        raise EntruncError("refusing to plot an empty result table")
    loss_mode = table.metadata.get("run_kind") == "loss"
    n = table.metadata.get("n", "?")
    kind = table.metadata.get("unitary_kind", "")
    # One curve of (x, y, std, model) points per m for a sweep, one curve in all for a loss table.
    curves: dict[int | None, list[tuple]] = {}
    for r in table.rows:
        if loss_mode:
            model = None if r.analytic_K is None else r.m - r.analytic_K
            point = (r.m, r.m - r.mean_K, r.std_K or 0.0, model)
        else:
            point = (r.s, r.mean_K, r.std_K or 0.0, r.analytic_K)
        curves.setdefault(None if loss_mode else r.m, []).append(point)
    points = [p for curve in curves.values() for p in curve]
    all_y = [y + e for _, y, e, _ in points] + [y - e for _, y, e, _ in points]
    axes = _Axes([x for x, *_ in points], all_y + [a for *_, a in points if a is not None])
    scale = (HEIGHT - MARGIN_TOP - MARGIN_BOTTOM) / (axes.ymax - axes.ymin)
    body: list[str] = []
    for index, (m, curve) in enumerate(curves.items()):
        color = PALETTE[index % len(PALETTE)]
        xs, ys, errs, model = zip(*curve)
        xs = [axes.x(x) for x in xs]
        body += _series_svg(xs, [axes.y(y) for y in ys], [e * scale for e in errs], color)
        if None not in model:
            body += _polyline(xs, [axes.y(a) for a in model], "black" if loss_mode else color,
                              'stroke-width="1" stroke-dasharray="5,3"')
        if not loss_mode:
            body.append(_text(WIDTH - MARGIN_RIGHT - 6, MARGIN_TOP + 16 + 15 * index, 12, "end",
                              f"m = {m}", f' fill="{color}"'))
    if loss_mode:
        frame = _frame_svg(axes, "encoding dimension m", "entanglement loss",
                           f"loss at s = m, n={n}")
    else:
        frame = _frame_svg(axes, "truncation dimension s", "Schmidt number K",
                           f"{kind} sweep, n={n}")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        *frame,
        *body,
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def emit_plot(table: ResultTable, path) -> None:
    """Render the table to an SVG file at ``path``."""
    _write_text(path, render_svg(table))
