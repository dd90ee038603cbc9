"""Deterministic report writers: JSON records, CSV tables, SVG line plots.

Byte-for-byte stability is the point.  No timestamps, no environment
probes, sorted JSON keys, fixed float formatting in plots, and every file
lands via write-to-temp-then-rename so a crash never leaves a half-written
report behind.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import tempfile
from typing import Iterable, Sequence

SCHEMA_VERSION = 1

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

# canvas size in pixels, and the most points drawn per series (longer series
# are thinned by a uniform stride)
_WIDTH, _HEIGHT, _MAX_POINTS = 720, 440, 1500


def plot_stride(count: int) -> int:
    """The stride that thins a series of `count` points for `line_plot_svg`;
    callers that compute their series can compute only every stride-th point
    and get the same plot."""
    return max(1, -(-count // _MAX_POINTS))


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def descriptor_hash(descriptor: dict) -> str:
    """Stable identity of an operator build, for cross-referencing reports."""
    return hashlib.sha256(canonical_json(descriptor).encode("ascii")).hexdigest()


def make_record(kind: str, config: dict, payload: dict) -> dict:
    return {
        "record": kind,
        "schemaVersion": SCHEMA_VERSION,
        "config": config,
        "payload": payload,
    }


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_json(path: str, record: dict) -> None:
    atomic_write_text(path, json.dumps(record, sort_keys=True, indent=2, allow_nan=False) + "\n")


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """csv writes None as an empty field and a float as its repr."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    atomic_write_text(path, buf.getvalue())


# ---------------------------------------------------------------------------
# SVG line plots


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    return [lo + i * (hi - lo) / (n - 1) for i in range(n)]


def _tick_label(v: float, log_axis: bool) -> str:
    if log_axis:
        return f"1e{v:.1f}" if abs(v - round(v)) > 1e-9 else f"1e{int(round(v))}"
    return f"{v:.4g}"


def line_plot_svg(title: str, xlabel: str, ylabel: str,
                  series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
                  log_y: bool = False) -> str:
    """Minimal self-contained SVG chart; output depends only on the inputs."""
    margin_l, margin_r, margin_t, margin_b = 72.0, 24.0, 44.0, 56.0
    plot_w = _WIDTH - margin_l - margin_r
    plot_h = _HEIGHT - margin_t - margin_b

    cleaned: list[tuple[str, list[float], list[float]]] = []
    for name, xs, ys in series:
        pts = [(float(x), float(y)) for x, y in zip(xs, ys)
               if math.isfinite(x) and math.isfinite(y)]
        if log_y:
            pts = [(x, y) for x, y in pts if y > 0]
        pts = pts[::plot_stride(len(pts))]
        if pts:
            cleaned.append((name, [p[0] for p in pts],
                            [math.log10(p[1]) if log_y else p[1] for p in pts]))

    if cleaned:
        all_x = [x for _, xs, _ in cleaned for x in xs]
        all_y = [y for _, _, ys in cleaned for y in ys]
        x_lo, x_hi = min(all_x), max(all_x)
        y_lo, y_hi = min(all_y), max(all_y)
    else:
        x_lo = y_lo = 0.0
        x_hi = y_hi = 1.0
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def sx(x: float) -> float:
        return margin_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return margin_t + (y_hi - y) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_fmt(_WIDTH / 2)}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15" font-weight="bold">{title}</text>',
    ]
    # frame
    out.append(f'<rect x="{_fmt(margin_l)}" y="{_fmt(margin_t)}" width="{_fmt(plot_w)}" '
               f'height="{_fmt(plot_h)}" fill="none" stroke="#333" stroke-width="1"/>')
    for tx in _ticks(x_lo, x_hi):
        px = sx(tx)
        out.append(f'<line x1="{_fmt(px)}" y1="{_fmt(margin_t + plot_h)}" '
                   f'x2="{_fmt(px)}" y2="{_fmt(margin_t + plot_h + 5)}" stroke="#333"/>')
        out.append(f'<text x="{_fmt(px)}" y="{_fmt(margin_t + plot_h + 20)}" '
                   f'text-anchor="middle" font-family="sans-serif" font-size="11">'
                   f'{_tick_label(tx, False)}</text>')
    for ty in _ticks(y_lo, y_hi):
        py = sy(ty)
        out.append(f'<line x1="{_fmt(margin_l - 5)}" y1="{_fmt(py)}" '
                   f'x2="{_fmt(margin_l)}" y2="{_fmt(py)}" stroke="#333"/>')
        out.append(f'<text x="{_fmt(margin_l - 8)}" y="{_fmt(py + 4)}" '
                   f'text-anchor="end" font-family="sans-serif" font-size="11">'
                   f'{_tick_label(ty, log_y)}</text>')
    out.append(f'<text x="{_fmt(margin_l + plot_w / 2)}" y="{_fmt(_HEIGHT - 14)}" '
               f'text-anchor="middle" font-family="sans-serif" font-size="12">{xlabel}</text>')
    out.append(f'<text x="18" y="{_fmt(margin_t + plot_h / 2)}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="12" '
               f'transform="rotate(-90 18 {_fmt(margin_t + plot_h / 2)})">{ylabel}</text>')

    for i, (name, xs, ys) in enumerate(cleaned):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(xs, ys))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')
        if len(xs) <= 60:
            for x, y in zip(xs, ys):
                out.append(f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="2.5" '
                           f'fill="{color}"/>')
        ly = margin_t + 16 + 16 * i
        out.append(f'<line x1="{_fmt(margin_l + 10)}" y1="{_fmt(ly - 4)}" '
                   f'x2="{_fmt(margin_l + 34)}" y2="{_fmt(ly - 4)}" stroke="{color}" '
                   f'stroke-width="2"/>')
        out.append(f'<text x="{_fmt(margin_l + 40)}" y="{_fmt(ly)}" '
                   f'font-family="sans-serif" font-size="11">{name}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_svg(path: str, svg_text: str) -> None:
    atomic_write_text(path, svg_text)
