"""Dependency-free SVG charts for the evaluation figures.

The paper's evaluation is communicated through bar charts (Figures 5 and 6:
grouped bars with the backward error printed above each bar) and line
charts (Figure 7: memory vs problem size; Figure 8: convergence on a log
scale).  This module renders both chart families as standalone SVG files so
``benchmarks/make_figures.py`` can regenerate the *figures themselves* —
not just their numbers — without any plotting dependency.

Only the features those figures need are implemented: grouped bars,
optional per-bar labels, linear/log y axes, legends, reference lines —
plus :func:`gantt_chart`, which renders the kernel spans of a
:class:`~repro.runtime.spans.SpanProfiler` document on one time lane
(the runtime-observability view of ``docs/observability.md``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, List, Mapping, Optional, Sequence, Tuple, Union

#: categorical palette (colour-blind friendly)
PALETTE = ["#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee",
           "#aa3377", "#bbbbbb"]

_FONT = 'font-family="Helvetica, Arial, sans-serif"'


@dataclass
class Series:
    """One legend entry: a name plus one value per category/x-position."""

    name: str
    values: Sequence[float]
    labels: Optional[Sequence[str]] = None  # per-value annotations


def _esc(s: str) -> str:
    return (str(s).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


class _Canvas:
    def __init__(self, width: int, height: int) -> None:
        self.width = width
        self.height = height
        self.parts: List[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">',
            f'<rect width="{width}" height="{height}" fill="white"/>',
        ]

    def rect(self, x: float, y: float, w: float, h: float, fill: str,
             opacity: float = 1.0) -> None:
        self.parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" '
            f'height="{h:.2f}" fill="{fill}" fill-opacity="{opacity}"/>')

    def line(self, x1: float, y1: float, x2: float, y2: float,
             stroke: str = "#444", width: float = 1.0,
             dash: Optional[str] = None) -> None:
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" '
            f'y2="{y2:.2f}" stroke="{stroke}" stroke-width="{width}"{d}/>')

    def polyline(self, points: Sequence[Tuple[float, float]], stroke: str,
                 width: float = 2.0) -> None:
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width}"/>')

    def circle(self, x: float, y: float, r: float, fill: str) -> None:
        self.parts.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r:.2f}" fill="{fill}"/>')

    def text(self, x: float, y: float, s: str, size: int = 12,
             anchor: str = "middle", rotate: Optional[float] = None,
             color: str = "#222") -> None:
        rot = (f' transform="rotate({rotate} {x:.2f} {y:.2f})"'
               if rotate else "")
        self.parts.append(
            f'<text x="{x:.2f}" y="{y:.2f}" {_FONT} font-size="{size}" '
            f'text-anchor="{anchor}" fill="{color}"{rot}>{_esc(s)}</text>')

    def save(self, path: Union[str, Path]) -> Path:
        self.parts.append("</svg>")
        path = Path(path)
        path.write_text("\n".join(self.parts))
        return path


def _nice_ticks(lo: float, hi: float, n: int = 5) -> List[float]:
    """Round tick positions covering [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(n, 1)
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 2.5, 5, 10):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.floor(lo / step) * step
    end = math.ceil(hi / step) * step
    ticks = []
    t = start
    while t <= end + 1e-12:
        if t >= lo - 1e-12:
            ticks.append(round(t, 10))
        t += step
    return ticks or [lo, hi]


def bar_chart(path: Union[str, Path], categories: Sequence[str],
              series: Sequence[Series], title: str = "",
              ylabel: str = "", width: int = 900, height: int = 480,
              reference_line: Optional[float] = None) -> Path:
    """Grouped bar chart with optional per-bar labels (Figures 5/6 style).

    ``reference_line`` draws a dashed horizontal line (the paper's ratio-1
    guide).  Per-bar ``Series.labels`` are printed vertically above the
    bars, like the backward errors of Figures 5 and 6.
    """
    margin_l, margin_r, margin_t, margin_b = 70, 20, 50, 60
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b
    cv = _Canvas(width, height)

    vmax = max((max(s.values) for s in series if len(s.values)), default=1.0)
    if reference_line is not None:
        vmax = max(vmax, reference_line)
    vmax *= 1.25  # headroom for labels
    ticks = _nice_ticks(0.0, vmax)
    vmax = ticks[-1]

    def ypix(v: float) -> float:
        return margin_t + plot_h * (1.0 - v / vmax)

    # axes + ticks
    cv.line(margin_l, margin_t, margin_l, margin_t + plot_h)
    cv.line(margin_l, margin_t + plot_h, margin_l + plot_w,
            margin_t + plot_h)
    for t in ticks:
        y = ypix(t)
        cv.line(margin_l - 4, y, margin_l, y)
        cv.line(margin_l, y, margin_l + plot_w, y, stroke="#ddd", width=0.5)
        cv.text(margin_l - 8, y + 4, f"{t:g}", size=11, anchor="end")
    if title:
        cv.text(width / 2, 24, title, size=15)
    if ylabel:
        cv.text(18, margin_t + plot_h / 2, ylabel, size=12, rotate=-90)

    ncat = len(categories)
    nser = max(len(series), 1)
    group_w = plot_w / max(ncat, 1)
    bar_w = 0.8 * group_w / nser
    for ci, cat in enumerate(categories):
        gx = margin_l + ci * group_w
        for si, s in enumerate(series):
            if ci >= len(s.values):
                continue
            v = s.values[ci]
            x = gx + 0.1 * group_w + si * bar_w
            y = ypix(v)
            cv.rect(x, y, bar_w * 0.92, margin_t + plot_h - y,
                    PALETTE[si % len(PALETTE)], opacity=0.9)
            if s.labels is not None and ci < len(s.labels):
                cv.text(x + bar_w / 2, y - 6, s.labels[ci], size=9,
                        rotate=-60)
        cv.text(gx + group_w / 2, margin_t + plot_h + 18, cat, size=12)

    if reference_line is not None:
        y = ypix(reference_line)
        cv.line(margin_l, y, margin_l + plot_w, y, stroke="#999",
                width=1.0, dash="6,4")

    # legend
    lx = margin_l + 8
    for si, s in enumerate(series):
        cv.rect(lx, margin_t - 18, 12, 12, PALETTE[si % len(PALETTE)])
        cv.text(lx + 16, margin_t - 8, s.name, size=11, anchor="start")
        lx += 26 + 7 * len(s.name)
    return cv.save(path)


def line_chart(path: Union[str, Path], x_values: Sequence[float],
               series: Sequence[Series], title: str = "",
               xlabel: str = "", ylabel: str = "", log_y: bool = False,
               width: int = 900, height: int = 480,
               markers: bool = True) -> Path:
    """Multi-series line chart (Figures 7/8 style); ``log_y`` for Fig 8."""
    margin_l, margin_r, margin_t, margin_b = 80, 20, 50, 60
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b
    cv = _Canvas(width, height)

    all_vals = [v for s in series for v in s.values
                if v is not None and (not log_y or v > 0)]
    if not all_vals:
        all_vals = [1.0]
    vmin, vmax = min(all_vals), max(all_vals)
    if log_y:
        lo = math.floor(math.log10(max(vmin, 1e-300)))
        hi = math.ceil(math.log10(vmax))
        if hi == lo:
            hi = lo + 1
        ticks = [10.0 ** e for e in range(lo, hi + 1)]

        def ypix(v: float) -> float:
            f = (math.log10(v) - lo) / (hi - lo)
            return margin_t + plot_h * (1.0 - f)
    else:
        ticks = _nice_ticks(0.0 if vmin >= 0 else vmin, vmax)
        lo2, hi2 = ticks[0], ticks[-1]

        def ypix(v: float) -> float:
            return margin_t + plot_h * (1.0 - (v - lo2) / (hi2 - lo2))

    xmin, xmax = min(x_values), max(x_values)
    span = (xmax - xmin) or 1.0

    def xpix(x: float) -> float:
        return margin_l + plot_w * (x - xmin) / span

    cv.line(margin_l, margin_t, margin_l, margin_t + plot_h)
    cv.line(margin_l, margin_t + plot_h, margin_l + plot_w,
            margin_t + plot_h)
    for t in ticks:
        y = ypix(t)
        cv.line(margin_l - 4, y, margin_l, y)
        cv.line(margin_l, y, margin_l + plot_w, y, stroke="#ddd", width=0.5)
        label = f"1e{int(math.log10(t))}" if log_y else f"{t:g}"
        cv.text(margin_l - 8, y + 4, label, size=11, anchor="end")
    for x in x_values:
        cv.text(xpix(x), margin_t + plot_h + 18, f"{x:g}", size=11)
    if title:
        cv.text(width / 2, 24, title, size=15)
    if xlabel:
        cv.text(margin_l + plot_w / 2, height - 14, xlabel, size=12)
    if ylabel:
        cv.text(20, margin_t + plot_h / 2, ylabel, size=12, rotate=-90)

    for si, s in enumerate(series):
        color = PALETTE[si % len(PALETTE)]
        pts = [(xpix(x), ypix(v)) for x, v in zip(x_values, s.values)
               if v is not None and (not log_y or v > 0)]
        if len(pts) > 1:
            cv.polyline(pts, color)
        if markers:
            for x, y in pts:
                cv.circle(x, y, 3.2, color)

    ly = margin_t + 6
    for si, s in enumerate(series):
        color = PALETTE[si % len(PALETTE)]
        cv.line(margin_l + plot_w - 150, ly, margin_l + plot_w - 126, ly,
                stroke=color, width=2.5)
        cv.text(margin_l + plot_w - 120, ly + 4, s.name, size=11,
                anchor="start")
        ly += 18
    return cv.save(path)


#: the span names a Gantt lane shows, with a stable colour each: the
#: classic factor/update pair plus "compress" (a compression pass over a
#: column block's panels, drawn over the factor span it nests in)
_GANTT_KIND_COLORS = {"factor": PALETTE[0], "update": PALETTE[1],
                      "compress": PALETTE[2]}


def gantt_chart(path: Union[str, Path],
                spans: Sequence[Mapping[str, Any]], title: str = "",
                width: int = 1000, lane_height: int = 26) -> Path:
    """Render the kernel spans of a span document as a Gantt chart.

    ``spans`` is a sequence of span dicts (``SpanProfiler.to_json()["spans"]``
    or the same list read back from a file): one lane — the one thread
    that ran the tasks — and one rectangle per ``factor`` / ``update`` /
    ``compress`` span, coloured by name; every other span (phases, the
    enclosing ``task``) is skipped.  Rectangles wide enough to be
    readable are labelled with their column block id.
    """
    # document order is start order, so a compress span lands on top of
    # the factor span it nests in
    evs = [(str(s["name"]), s["attrs"]["cblk"], float(s["t0"]),
            float(s["t1"]))
           for s in spans if s["name"] in _GANTT_KIND_COLORS]
    margin_l, margin_r, margin_t, margin_b = 70, 20, 50, 46
    plot_w = width - margin_l - margin_r
    height = margin_t + margin_b + lane_height
    cv = _Canvas(width, height)

    t_lo = min((t0 for *_, t0, _ in evs), default=0.0)
    t_hi = max((t1 for *_, t1 in evs), default=1.0)
    span = (t_hi - t_lo) or 1.0

    def xpix(t: float) -> float:
        return margin_l + plot_w * (t - t_lo) / span

    y_axis = margin_t + lane_height
    cv.text(margin_l - 8, margin_t + lane_height * 0.65, "tasks",
            size=11, anchor="end")
    cv.line(margin_l, margin_t, margin_l + plot_w, margin_t, stroke="#eee",
            width=0.5)
    cv.line(margin_l, y_axis, margin_l + plot_w, y_axis)

    kinds_seen = []
    for kind, cblk, t0, t1 in evs:
        if kind not in kinds_seen:
            kinds_seen.append(kind)
        y = margin_t + 3
        x0, x1 = xpix(t0), xpix(t1)
        w = max(x1 - x0, 0.6)
        cv.rect(x0, y, w, lane_height - 6, _GANTT_KIND_COLORS[kind],
                opacity=0.85)
        if w > 26:
            cv.text(x0 + w / 2, y + (lane_height - 6) * 0.72, str(cblk),
                    size=9, color="white")

    # time axis (seconds from the profiler origin)
    for t in _nice_ticks(t_lo, t_hi):
        x = xpix(t)
        if x > margin_l + plot_w + 1:
            continue
        cv.line(x, y_axis, x, y_axis + 4)
        cv.text(x, y_axis + 16, f"{t:g}", size=10)
    cv.text(margin_l + plot_w / 2, height - 6, "seconds", size=11)
    if title:
        cv.text(width / 2, 24, title, size=15)
    lx = margin_l + 8
    for kind in kinds_seen:
        cv.rect(lx, margin_t - 18, 12, 12, _GANTT_KIND_COLORS[kind])
        cv.text(lx + 16, margin_t - 8, kind, size=11, anchor="start")
        lx += 30 + 7 * len(kind)
    return cv.save(path)
