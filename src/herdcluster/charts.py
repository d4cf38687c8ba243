"""Standalone SVG charts for the pipeline report: elbow curve, cluster
scatter and per-cluster boxplots.

Charts are plain structural SVG with class-tagged elements (point,
centroid, box, whisker, ...) so tests can parse and count them instead of
diffing images."""

from __future__ import annotations

import numpy as np

from .clustering import ElbowResult, KMeansModel
from .errors import ValidationError

_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)

_W, _H = 640, 480
_MARGIN = 60


def _color(cluster: int) -> str:
    return _PALETTE[(cluster - 1) % len(_PALETTE)]


class _Scale:
    """Linear data-to-pixel mapping with a small padding fraction."""

    def __init__(self, lo: float, hi: float, px_lo: float, px_hi: float, pad=0.05):
        span = hi - lo or 1.0
        lo -= pad * span
        hi += pad * span
        self.lo, self.hi = lo, hi
        self.px_lo, self.px_hi = px_lo, px_hi

    def __call__(self, v: float) -> float:
        frac = (v - self.lo) / (self.hi - self.lo)
        return self.px_lo + frac * (self.px_hi - self.px_lo)


def _write_svg(path, body: list[str], title: str) -> None:
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="24" text-anchor="middle" font-size="16" '
        f'font-family="sans-serif">{title}</text>',
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(head + body + ["</svg>"]) + "\n")


def _axes(x_label: str, y_label: str) -> list[str]:
    return [
        f'<line x1="{_MARGIN}" y1="{_H - _MARGIN}" x2="{_W - _MARGIN}" '
        f'y2="{_H - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_H - _MARGIN}" stroke="black"/>',
        f'<text x="{_W / 2}" y="{_H - 16}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif">{x_label}</text>',
        f'<text x="18" y="{_H / 2}" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif" transform="rotate(-90 18 {_H / 2})">'
        f"{y_label}</text>",
    ]


def _legend(clusters: list[int]) -> list[str]:
    parts = []
    for row, c in enumerate(clusters):
        y = _MARGIN + 18 * row
        parts.append(
            f'<circle class="legend-swatch" cx="{_W - _MARGIN + 14}" cy="{y}" '
            f'r="5" fill="{_color(c)}"/>'
        )
        parts.append(
            f'<text x="{_W - _MARGIN + 24}" y="{y + 4}" font-size="12" '
            f'font-family="sans-serif">cluster {c}</text>'
        )
    return parts


def emit_elbow_svg(elbow: ElbowResult, path) -> None:
    """Distortion-vs-k polyline with one vertex per evaluated k and a
    marker on the detected knee."""
    sx = _Scale(min(elbow.k_values), max(elbow.k_values), _MARGIN, _W - _MARGIN)
    sy = _Scale(min(elbow.distortions), max(elbow.distortions),
                _H - _MARGIN, _MARGIN)
    pts = " ".join(
        f"{sx(k):.2f},{sy(d):.2f}"
        for k, d in zip(elbow.k_values, elbow.distortions)
    )
    body = _axes("number of clusters k", "distortion")
    body.append(
        f'<polyline class="elbow-curve" points="{pts}" fill="none" '
        f'stroke="{_PALETTE[0]}" stroke-width="2"/>'
    )
    for k, d in zip(elbow.k_values, elbow.distortions):
        body.append(
            f'<circle class="elbow-point" cx="{sx(k):.2f}" cy="{sy(d):.2f}" '
            f'r="3" fill="{_PALETTE[0]}"/>'
        )
        body.append(
            f'<text x="{sx(k):.2f}" y="{_H - _MARGIN + 16}" '
            f'text-anchor="middle" font-size="11" font-family="sans-serif">{k}</text>'
        )
    if elbow.knee is not None:
        i = elbow.k_values.index(elbow.knee)
        kx, ky = sx(elbow.knee), sy(elbow.distortions[i])
        body.append(
            f'<line class="knee-marker" x1="{kx:.2f}" y1="{_MARGIN}" '
            f'x2="{kx:.2f}" y2="{_H - _MARGIN}" stroke="{_PALETTE[3]}" '
            f'stroke-dasharray="5,4"/>'
        )
        body.append(
            f'<text class="knee-label" x="{kx + 6:.2f}" y="{ky - 8:.2f}" '
            f'font-size="12" font-family="sans-serif">knee k={elbow.knee}</text>'
        )
    _write_svg(path, body, "Elbow method")


def emit_scatter_svg(model: KMeansModel, z, path) -> None:
    """Cluster scatter over the first two standardized features, centroids
    marked with an X, one legend entry per cluster."""
    X = np.asarray(getattr(z, "z", z), dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.shape[0] != model.labels.size:
        raise ValidationError("points and labels disagree in length")
    two_d = X.shape[1] >= 2
    xs = X[:, 0]
    ys = X[:, 1] if two_d else np.zeros(X.shape[0])
    cx = model.centroids[:, 0]
    cy = model.centroids[:, 1] if two_d else np.zeros(model.k)

    sx = _Scale(float(min(xs.min(), cx.min())), float(max(xs.max(), cx.max())),
                _MARGIN, _W - _MARGIN)
    sy = _Scale(float(min(ys.min(), cy.min())), float(max(ys.max(), cy.max())),
                _H - _MARGIN, _MARGIN)

    names = getattr(z, "keys", ("feature 1", "feature 2"))
    body = _axes(names[0], names[1] if two_d and len(names) > 1 else "")
    for i in range(X.shape[0]):
        c = int(model.labels[i])
        body.append(
            f'<circle class="point cluster-{c}" cx="{sx(xs[i]):.2f}" '
            f'cy="{sy(ys[i]):.2f}" r="4" fill="{_color(c)}" fill-opacity="0.8"/>'
        )
    for c in range(1, model.k + 1):
        px, py = sx(cx[c - 1]), sy(cy[c - 1])
        arm = 7
        body.append(
            f'<g class="centroid" stroke="black" stroke-width="2.5">'
            f'<line x1="{px - arm:.2f}" y1="{py - arm:.2f}" '
            f'x2="{px + arm:.2f}" y2="{py + arm:.2f}"/>'
            f'<line x1="{px - arm:.2f}" y1="{py + arm:.2f}" '
            f'x2="{px + arm:.2f}" y2="{py - arm:.2f}"/></g>'
        )
    body += _legend(list(range(1, model.k + 1)))
    _write_svg(path, body, "k-means clusters")


def emit_boxplot_svg(values, labels, value_name: str, path) -> None:
    """One box per cluster in label order; whiskers reach the farthest
    point within 1.5 IQR of the box, points beyond drawn as outliers."""
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if values.shape != labels.shape:
        raise ValidationError("values and labels disagree in length")
    clusters = sorted(int(c) for c in np.unique(labels))

    sy = _Scale(float(values.min()), float(values.max()), _H - _MARGIN, _MARGIN)
    slot = (_W - 2 * _MARGIN) / len(clusters)
    box_w = slot * 0.5

    body = _axes("cluster", value_name)
    for pos, c in enumerate(clusters):
        group = values[labels == c]
        q1, q2, q3 = np.quantile(group, [0.25, 0.5, 0.75])
        iqr = q3 - q1
        in_lo = group[group >= q1 - 1.5 * iqr]
        in_hi = group[group <= q3 + 1.5 * iqr]
        lo_w = float(in_lo.min()) if in_lo.size else float(q1)
        hi_w = float(in_hi.max()) if in_hi.size else float(q3)
        cx = _MARGIN + slot * (pos + 0.5)
        left = cx - box_w / 2

        body.append(
            f'<g class="boxgroup cluster-{c}">'
            f'<line class="whisker" x1="{cx:.2f}" y1="{sy(lo_w):.2f}" '
            f'x2="{cx:.2f}" y2="{sy(q1):.2f}" stroke="black"/>'
            f'<line class="whisker" x1="{cx:.2f}" y1="{sy(q3):.2f}" '
            f'x2="{cx:.2f}" y2="{sy(hi_w):.2f}" stroke="black"/>'
            f'<line class="whisker-cap" x1="{cx - box_w / 4:.2f}" '
            f'y1="{sy(lo_w):.2f}" x2="{cx + box_w / 4:.2f}" y2="{sy(lo_w):.2f}" '
            f'stroke="black"/>'
            f'<line class="whisker-cap" x1="{cx - box_w / 4:.2f}" '
            f'y1="{sy(hi_w):.2f}" x2="{cx + box_w / 4:.2f}" y2="{sy(hi_w):.2f}" '
            f'stroke="black"/>'
            f'<rect class="box" x="{left:.2f}" y="{sy(q3):.2f}" '
            f'width="{box_w:.2f}" height="{abs(sy(q1) - sy(q3)):.2f}" '
            f'fill="{_color(c)}" fill-opacity="0.6" stroke="black"/>'
            f'<line class="median" x1="{left:.2f}" y1="{sy(q2):.2f}" '
            f'x2="{left + box_w:.2f}" y2="{sy(q2):.2f}" stroke="black" '
            f'stroke-width="2"/>'
            + "".join(
                f'<circle class="outlier" cx="{cx:.2f}" cy="{sy(v):.2f}" '
                f'r="3" fill="none" stroke="black"/>'
                for v in group[(group < q1 - 1.5 * iqr) | (group > q3 + 1.5 * iqr)]
            )
            + "</g>"
        )
        body.append(
            f'<text x="{cx:.2f}" y="{_H - _MARGIN + 16}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{c}</text>'
        )
    _write_svg(path, body, f"{value_name} by cluster")
