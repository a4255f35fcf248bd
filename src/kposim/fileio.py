"""Deterministic file emission: CSV tables, JSON summaries, SVG plots.

Everything here is byte-reproducible: floats are written with 17 significant
digits (enough to round-trip IEEE doubles exactly), JSON keys are sorted,
and the hand-rolled SVG output contains no timestamps or generated ids.
Every writer creates the directory of its file, so a directory exists only
once an artifact is written into it.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import UsageError

FLOAT_FMT = "%.17g"


def _write_text(path, text):
    """Write ``text`` to ``path``, creating its directory first."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


def write_csv(path, columns):
    """Write named columns (dict of equal-length 1-d arrays) as CSV."""
    names = list(columns.keys())
    arrays = [np.asarray(columns[n], dtype=float).ravel() for n in names]
    if not arrays:
        raise UsageError("write_csv needs at least one column")
    n = arrays[0].size
    for name, arr in zip(names, arrays):
        if arr.size != n:
            raise UsageError(f"column {name!r} has length {arr.size}, expected {n}")
    row = ",".join([FLOAT_FMT] * len(names)) + "\n"
    cells = tuple(np.column_stack(arrays).ravel().tolist())
    _write_text(path, ",".join(names) + "\n" + (row * n) % cells)


def read_csv(path):
    """Load a write_csv file back into a dict of float arrays."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    if not lines:
        raise UsageError(f"empty CSV file {path}")
    names = lines[0].split(",")
    data = np.array([[float(tok) for tok in ln.split(",")] for ln in lines[1:]],
                    dtype=float).reshape(len(lines) - 1, len(names))
    return {name: data[:, j].copy() for j, name in enumerate(names)}


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):  # before int: bool subclasses int
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": float(obj.real), "im": float(obj.imag)}
    return obj


def write_json(path, obj):
    _write_text(path, json.dumps(_jsonable(obj), sort_keys=True, indent=2)
                + "\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_record_jsonl(path, record):
    """Persist a tomography measurement record, one point per line."""
    _write_text(path, "".join(
        json.dumps({"re": float(alpha.real), "im": float(alpha.imag),
                    "parity": float(parity)}, sort_keys=True) + "\n"
        for alpha, parity in zip(record.alphas, record.parities)))


def read_record_jsonl(path):
    res, ims, pars = [], [], []
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            d = json.loads(line)
            res.append(d["re"])
            ims.append(d["im"])
            pars.append(d["parity"])
    alphas = np.asarray(res, dtype=float) + 1j * np.asarray(ims, dtype=float)
    return alphas, np.asarray(pars, dtype=float)


def write_chi_json(path, process_matrix):
    chi = process_matrix.chi
    write_json(path, {
        "labels": list(process_matrix.labels),
        "real": chi.real,
        "imag": chi.imag,
        "herm_residual": process_matrix.herm_residual,
        "tp_residual": process_matrix.tp_residual,
    })


def write_chi_csv(path, process_matrix):
    chi = process_matrix.chi.reshape(-1)
    row, col = np.divmod(np.arange(chi.size), 4)
    write_csv(path, {"row": row, "col": col, "real": chi.real,
                     "imag": chi.imag})


# ---------------------------------------------------------------------------
# SVG plotting (no dependency on a plotting library; deterministic output)

_VIRIDIS = [
    (0.267004, 0.004874, 0.329415),
    (0.282623, 0.140926, 0.457517),
    (0.253935, 0.265254, 0.529983),
    (0.206756, 0.371758, 0.553117),
    (0.163625, 0.471133, 0.558148),
    (0.127568, 0.566949, 0.550556),
    (0.134692, 0.658636, 0.517649),
    (0.266941, 0.748751, 0.440573),
    (0.477504, 0.821444, 0.318195),
    (0.741388, 0.873449, 0.149561),
    (0.993248, 0.906157, 0.143936),
]


def _color(v):
    """Map v in [0, 1] to a viridis-like hex color."""
    v = min(max(float(v), 0.0), 1.0)
    x = v * (len(_VIRIDIS) - 1)
    i = min(int(x), len(_VIRIDIS) - 2)
    f = x - i
    rgb = [(1 - f) * _VIRIDIS[i][c] + f * _VIRIDIS[i + 1][c] for c in range(3)]
    return "#%02x%02x%02x" % tuple(int(round(255 * c)) for c in rgb)


def _svg_header(width, height):
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">\n'
            f'<rect width="{width}" height="{height}" fill="white"/>\n')


def _text(x, y, s, size=12, anchor="middle"):
    return (f'<text x="{x:.1f}" y="{y:.1f}" font-family="sans-serif" '
            f'font-size="{size}" text-anchor="{anchor}">{s}</text>\n')


#: left and top margins, width and height of the plot box of an SVG plot
_LEFT, _TOP, _PW, _PH = 70, 40, 480, 360


def _write_plot(path, marks, title, xlabel, ylabel, x_ends, y_ends, note=""):
    """Write ``marks`` in the plot frame: title, box, axis end values, axis
    labels and a ``note`` line at the bottom."""
    ml, mt, pw, ph = _LEFT, _TOP, _PW, _PH
    w, h = ml + pw + 30, mt + ph + 55
    parts = [_svg_header(w, h)]
    if title:
        parts.append(_text(ml + pw / 2, mt - 15, title, size=14))
    parts += marks
    parts.append(f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" '
                 f'fill="none" stroke="black"/>\n')
    parts.append(_text(ml, mt + ph + 18, "%.3g" % x_ends[0]))
    parts.append(_text(ml + pw, mt + ph + 18, "%.3g" % x_ends[1]))
    parts.append(_text(ml - 8, mt + ph, "%.3g" % y_ends[0], anchor="end"))
    parts.append(_text(ml - 8, mt + 10, "%.3g" % y_ends[1], anchor="end"))
    if xlabel:
        parts.append(_text(ml + pw / 2, mt + ph + 40, xlabel))
    if ylabel:
        parts.append(f'<g transform="translate(15,{mt + ph / 2}) rotate(-90)">'
                     + _text(0, 0, ylabel) + "</g>\n")
    if note:
        parts.append(_text(ml + pw / 2, h - 6, note, size=10))
    parts.append("</svg>\n")
    _write_text(path, "".join(parts))


def svg_heatmap(path, x, y, values, title="", xlabel="", ylabel=""):
    """Grid heatmap; values[i, j] drawn at (x[j], y[i]), row-major."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    v = np.asarray(values, dtype=float)
    if v.shape != (y.size, x.size):
        raise UsageError(f"heatmap shape {v.shape} != (len(y), len(x)) = "
                         f"({y.size}, {x.size})")
    vmin, vmax = float(np.min(v)), float(np.max(v))
    span = vmax - vmin if vmax > vmin else 1.0
    cw, ch = _PW / x.size, _PH / y.size
    cells = []
    for i in range(y.size):
        # row 0 at the bottom (ascending y upward)
        cy = _TOP + _PH - (i + 1) * ch
        for j in range(x.size):
            col = _color((v[i, j] - vmin) / span)
            cells.append(f'<rect x="{_LEFT + j * cw:.2f}" y="{cy:.2f}" '
                         f'width="{cw + 0.5:.2f}" height="{ch + 0.5:.2f}" '
                         f'fill="{col}"/>\n')
    _write_plot(path, cells, title, xlabel, ylabel, (x[0], x[-1]),
                (y[0], y[-1]), "range [%.3g, %.3g]" % (vmin, vmax))


def svg_lines(path, x, series, title="", xlabel="", ylabel=""):
    """Simple multi-line plot; series is a dict name -> y array."""
    x = np.asarray(x, dtype=float)
    ys = {k: np.asarray(v, dtype=float) for k, v in series.items()}
    all_y = np.concatenate([v for v in ys.values()])
    ymin, ymax = float(np.min(all_y)), float(np.max(all_y))
    if ymax <= ymin:
        ymax = ymin + 1.0
    xmin, xmax = float(x[0]), float(x[-1])
    if xmax <= xmin:
        xmax = xmin + 1.0
    ml, mt, pw, ph = _LEFT, _TOP, _PW, _PH
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
               "#8c564b", "#e377c2", "#7f7f7f"]
    marks = []
    for k, (name, yv) in enumerate(ys.items()):
        pts = " ".join(
            f"{ml + (xi - xmin) / (xmax - xmin) * pw:.2f},"
            f"{mt + ph - (yi - ymin) / (ymax - ymin) * ph:.2f}"
            for xi, yi in zip(x, yv))
        col = palette[k % len(palette)]
        marks.append(f'<polyline points="{pts}" fill="none" stroke="{col}" '
                     f'stroke-width="1.5"/>\n')
        marks.append(f'<g><rect x="{ml + pw - 150}" y="{mt + 8 + 16 * k}" '
                     f'width="12" height="3" fill="{col}"/></g>\n')
        marks.append(_text(ml + pw - 132, mt + 14 + 16 * k, name, size=10,
                           anchor="start"))
    _write_plot(path, marks, title, xlabel, ylabel, (xmin, xmax), (ymin, ymax))


def svg_chi_bars(path, process_matrix, part="real", title=""):
    """16-bar plot of one part of a chi matrix, labeled by operator pairs."""
    chi = process_matrix.chi
    labels = process_matrix.labels
    vals = (chi.real if part == "real" else chi.imag).reshape(-1)
    names = [f"{labels[i]}{labels[j]}" for i in range(4) for j in range(4)]
    ml, mt, mr, mb = 60, 40, 20, 70
    pw, ph = 520, 300
    w, h = ml + pw + mr, mt + ph + mb
    lim = max(1.0, float(np.max(np.abs(vals))))
    zero_y = mt + ph / 2
    scale = (ph / 2) / lim
    bw = pw / 16.0
    parts = [_svg_header(w, h)]
    if title:
        parts.append(_text(ml + pw / 2, mt - 15, title, size=14))
    parts.append(f'<line x1="{ml}" y1="{zero_y:.1f}" x2="{ml + pw}" '
                 f'y2="{zero_y:.1f}" stroke="#888"/>\n')
    for k, v in enumerate(vals):
        bh = abs(v) * scale
        by = zero_y - bh if v >= 0 else zero_y
        parts.append(f'<rect x="{ml + k * bw + 2:.2f}" y="{by:.2f}" '
                     f'width="{bw - 4:.2f}" height="{bh:.2f}" '
                     f'fill="#1f77b4" stroke="black" stroke-width="0.5"/>\n')
        parts.append(f'<g transform="translate({ml + (k + 0.5) * bw:.1f},'
                     f'{mt + ph + 12}) rotate(-60)">'
                     + _text(0, 0, names[k], size=9, anchor="end") + "</g>\n")
    parts.append(_text(ml - 8, zero_y + 4, "0", anchor="end"))
    parts.append(_text(ml - 8, zero_y - lim * scale + 4, "%.2g" % lim,
                       anchor="end"))
    parts.append(_text(ml - 8, zero_y + lim * scale + 4, "%.2g" % -lim,
                       anchor="end"))
    parts.append("</svg>\n")
    _write_text(path, "".join(parts))
