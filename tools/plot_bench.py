#!/usr/bin/env python3
"""Render kgacc-bench-v2 JSON artifacts to SVG, one SVG per input file.

The renderer is picked by the artifact's "bench" field:

 - serve_latency (bench_serve_latency): grouped horizontal bars of p50 /
   p95 / p99 latency per request type on a log-ms axis, with the run's
   mode and throughput in the title;
 - async_annotate (bench_async_annotate): pipelined-over-serial speedup
   versus simulated annotator latency, one line per in-flight window, with
   a dashed 1x reference; cells that were not bit-identical to their
   synchronous baseline are hollow red markers;
 - fleet_scheduler (bench_fleet_scheduler): a row of panels per policy,
   every tenant's CI-width trajectory against its cumulative charged spend
   (label reuse shows up as tenants dropping without moving right) beside
   each tenant's share of the fleet's spend.

Standard library only, so CI jobs can render artifacts without installing
anything:

    tools/plot_bench.py BENCH_fleet_scheduler.json -o bench-artifacts/

writes <name>.svg next to the JSON (or into -o DIR).
"""

import argparse
import json
import math
import os
import sys

COLORS = [
    "#2563eb", "#16a34a", "#d97706", "#9333ea", "#0891b2",
    "#dc2626", "#4d7c0f", "#db2777", "#7c3aed", "#b45309",
]
COLOR_GRID = "#d4d4d8"
COLOR_TEXT = "#3f3f46"
COLOR_BAD = "#dc2626"
COLOR_GOOD = "#16a34a"


def color(index):
    return COLORS[index % len(COLORS)]


def text(x, y, label, size=11, anchor="start", fill=COLOR_TEXT):
    return (
        f'<text x="{x:.1f}" y="{y:.1f}" font-size="{size}" '
        f'text-anchor="{anchor}" fill="{fill}" '
        f'font-family="sans-serif">{label}</text>'
    )


def line(x1, y1, x2, y2, stroke=COLOR_GRID, extra=""):
    return (
        f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
        f'stroke="{stroke}" {extra}/>'
    )


def rect(x, y, w, h, fill, extra=""):
    return (
        f'<rect x="{x:.1f}" y="{y:.1f}" width="{w:.1f}" height="{h:.1f}" '
        f'fill="{fill}" {extra}/>'
    )


def circle(x, y, r, fill, extra=""):
    return f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{r}" fill="{fill}" {extra}/>'


def polyline(points, stroke, width=2, extra=""):
    coords = " ".join(f"{x:.1f},{y:.1f}" for x, y in points)
    return (
        f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
        f'stroke-width="{width}" {extra}/>'
    )


def document(width, height, title, parts):
    return "\n".join(
        [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">',
            rect(0, 0, width, height, "white"),
            text(16, 20, title, size=13),
        ]
        + parts
        + ["</svg>"]
    )


def fmt_ms(value):
    """Axis label for a millisecond value: 12µs, 3.4ms, 1.2s."""
    if value <= 0:
        return "0"
    if value >= 1000:
        return f"{value / 1000:.3g}s"
    if value >= 1:
        return f"{value:.3g}ms"
    return f"{value * 1000:.3g}µs"


def render_serve_latency(doc, name):
    width, left, right, top, bottom = 640, 120, 24, 44, 42
    group_h, bar_h = 58, 14
    ops = [r for r in doc["rows"] if r.get("count", 0) > 0]
    if not ops:
        raise ValueError("no request types with requests recorded")
    height = top + group_h * len(ops) + bottom
    plot_w = width - left - right
    series = (("p50_ms", COLORS[1], "p50"), ("p95_ms", COLORS[2], "p95"),
              ("p99_ms", COLORS[5], "p99"))

    # Log axis floored well below the data so sub-ms bars keep visible length.
    values = [r[key] for r in ops for key, _, _ in series]
    lo = max(min(v for v in values if v > 0) / 4, 1e-4)
    log_lo, log_hi = math.log10(lo), math.log10(max(values) * 1.3)

    def x_of(ms):
        if ms <= lo:
            return left
        return left + (math.log10(ms) - log_lo) / (log_hi - log_lo) * plot_w

    parts = []
    for decade in range(math.ceil(log_lo), math.floor(log_hi) + 1):
        x = x_of(10**decade)
        parts.append(line(x, top, x, height - bottom))
        parts.append(text(x, height - bottom + 16, fmt_ms(10**decade),
                          anchor="middle"))
    for i, op in enumerate(ops):
        y0 = top + i * group_h
        parts.append(text(left - 8, y0 + group_h / 2, op["op"], anchor="end"))
        parts.append(text(left - 8, y0 + group_h / 2 + 13,
                          f'{op["count"]:.0f} reqs', size=9, anchor="end"))
        for j, (key, fill, _) in enumerate(series):
            y = y0 + 4 + j * (bar_h + 2)
            w = max(x_of(op[key]) - left, 1.0)
            parts.append(rect(left, y, w, bar_h, fill))
            parts.append(text(left + w + 4, y + bar_h - 3, fmt_ms(op[key]),
                              size=9))
    for j, (_, fill, label) in enumerate(series):
        parts.append(rect(left + 60 * j, height - 14, 10, 10, fill))
        parts.append(text(left + 60 * j + 14, height - 5, label, size=10))
    config = doc["config"]
    title = (f"{name} — {config.get('mode', '?')} loop, "
             f"{config.get('clients', '?')} clients, "
             f"{doc['metrics'].get('serve_latency.qps', 0):.0f} req/s")
    return document(width, height, title, parts)


def render_async_annotate(doc, name):
    width, height, left, right, top, bottom = 640, 400, 64, 130, 44, 48
    rows = doc["rows"]
    if not rows:
        raise ValueError("no matrix rows recorded")
    latencies = sorted({r["latency_ms"] for r in rows})
    windows = sorted({r["max_concurrent"] for r in rows})
    cell = {(r["latency_ms"], r["max_concurrent"]): r for r in rows}
    plot_w, plot_h = width - left - right, height - top - bottom
    ceiling = max(max(r["speedup"] for r in rows) * 1.15, 1.5)

    # Latency is categorical (the swept values), evenly spaced, so a 0 ms
    # cell sits at a real position instead of collapsing a log axis.
    def x_of(latency):
        if len(latencies) == 1:
            return left + plot_w / 2
        return left + latencies.index(latency) * plot_w / (len(latencies) - 1)

    def y_of(speedup):
        return top + plot_h * (1 - speedup / ceiling)

    parts = []
    step = max(1, int(ceiling / 6))
    for tick in range(step, int(ceiling) + 1, step):
        parts.append(line(left, y_of(tick), width - right, y_of(tick)))
        parts.append(text(left - 8, y_of(tick) + 4, f"{tick}x", anchor="end"))
    parts.append(line(left, y_of(1.0), width - right, y_of(1.0), COLOR_TEXT,
                      'stroke-dasharray="4 3"'))
    for latency in latencies:
        parts.append(text(x_of(latency), height - bottom + 18,
                          f"{latency:g}ms", anchor="middle"))
    parts.append(text((left + width - right) / 2, height - 10,
                      "mean simulated annotator latency", anchor="middle"))
    legend_x = width - right + 12
    for si, window in enumerate(windows):
        fill = color(si)
        points = [(x_of(lat), y_of(cell[(lat, window)]["speedup"]),
                   cell[(lat, window)])
                  for lat in latencies if (lat, window) in cell]
        parts.append(polyline([(x, y) for x, y, _ in points], fill))
        for x, y, row in points:
            if row.get("identical", True):
                parts.append(circle(x, y, 3.5, fill))
            else:
                parts.append(circle(x, y, 4.5, "white",
                                    f'stroke="{COLOR_BAD}" stroke-width="2"'))
            parts.append(text(x + 6, y - 6, f'{row["speedup"]:.2f}x', size=9,
                              fill=fill))
        legend_y = top + 8 + si * 18
        parts.append(line(legend_x, legend_y, legend_x + 18, legend_y, fill,
                          'stroke-width="2"'))
        parts.append(text(legend_x + 24, legend_y + 4, f"window {window}",
                          size=10))
    if any(not r.get("identical", True) for r in rows):
        legend_y = top + 8 + len(windows) * 18
        parts.append(circle(legend_x + 9, legend_y, 4.5, "white",
                            f'stroke="{COLOR_BAD}" stroke-width="2"'))
        parts.append(text(legend_x + 24, legend_y + 4, "not identical",
                          size=10, fill=COLOR_BAD))
    config = doc["config"]
    title = (f"{name} — {config.get('dataset', '?')}/"
             f"{config.get('design', '?')}, {config.get('max_units', '?')} "
             "units, pipelined / serial wall clock")
    return document(width, height, title, parts)


FLEET_PANEL_W, FLEET_PANEL_H, FLEET_BAR_W = 420, 260, 300
FLEET_LEFT, FLEET_RIGHT, FLEET_TOP, FLEET_BOTTOM = 56, 16, 36, 40


def fleet_trajectories(row, ox, oy):
    """CI width vs cumulative charged spend, one polyline per tenant."""
    plot_w = FLEET_PANEL_W - FLEET_LEFT - FLEET_RIGHT
    plot_h = FLEET_PANEL_H - FLEET_TOP - FLEET_BOTTOM
    points = [pt for t in row["tenants"] for pt in t.get("trajectory", [])]
    max_spent = max([s for s, _ in points] + [1.0])
    max_width = max([w for _, w in points] + [0.1]) * 1.08

    def x_of(spent):
        return ox + FLEET_LEFT + plot_w * spent / max_spent

    def y_of(width):
        return oy + FLEET_TOP + plot_h * (1 - width / max_width)

    parts = [text(ox + FLEET_LEFT, oy + 20,
                  f'{row["policy"]} — {row["grants"]} grants, '
                  f'avg CI {row["budget_avg_ci_width"]:.3f}, '
                  f'final mean {row["mean_ci_width"]:.3f}', size=12)]
    for frac in (0.25, 0.5, 0.75, 1.0):
        y = y_of(max_width * frac)
        parts.append(line(ox + FLEET_LEFT, y, ox + FLEET_PANEL_W - FLEET_RIGHT,
                          y))
        parts.append(text(ox + FLEET_LEFT - 6, y + 4,
                          f"{max_width * frac:.2f}", size=9, anchor="end"))
    for frac in (0.0, 0.5, 1.0):
        parts.append(text(ox + FLEET_LEFT + plot_w * frac,
                          oy + FLEET_PANEL_H - FLEET_BOTTOM + 16,
                          f"{max_spent * frac / 1000.0:.0f}k", size=9,
                          anchor="middle"))
    parts.append(text(ox + FLEET_LEFT + plot_w / 2, oy + FLEET_PANEL_H - 8,
                      "cumulative charged annotation seconds", size=10,
                      anchor="middle"))
    for ti, tenant in enumerate(row["tenants"]):
        trajectory = [(x_of(s), y_of(w))
                      for s, w in tenant.get("trajectory", [])]
        if not trajectory:
            continue
        parts.append(polyline(trajectory, color(ti), 1.6, 'opacity="0.85"'))
        x, y = trajectory[-1]
        if tenant.get("converged"):
            parts.append(circle(x, y, 3.5, "white",
                                f'stroke="{COLOR_GOOD}" stroke-width="2"'))
        else:
            parts.append(circle(x, y, 3, color(ti)))
    return parts


def fleet_cost_shares(row, ox, oy):
    """Per-tenant slice of the fleet's charged spend, as horizontal bars."""
    plot_w = FLEET_BAR_W - FLEET_LEFT - FLEET_RIGHT
    tenants = row["tenants"]
    max_share = max([t["cost_share"] for t in tenants] + [1e-9])
    bar_h = min(16, (FLEET_PANEL_H - FLEET_TOP - FLEET_BOTTOM)
                / max(1, len(tenants)) - 3)
    parts = [text(ox + FLEET_LEFT, oy + 20,
                  f'cost share — Jain {row["jain_fairness"]:.3f}', size=12)]
    for ti, tenant in enumerate(tenants):
        y = oy + FLEET_TOP + ti * (bar_h + 3)
        w = plot_w * tenant["cost_share"] / max_share
        parts.append(rect(ox + FLEET_LEFT, y, w, bar_h, color(ti),
                          'opacity="0.85"'))
        parts.append(text(ox + FLEET_LEFT - 6, y + bar_h / 2 + 4,
                          tenant["tenant"], size=9, anchor="end",
                          fill=color(ti)))
        parts.append(text(ox + FLEET_LEFT + w + 4, y + bar_h / 2 + 4,
                          f'{100.0 * tenant["cost_share"]:.1f}%', size=9))
    return parts


def render_fleet_scheduler(doc, name):
    rows = doc["rows"]
    if not rows:
        raise ValueError("no policy rows recorded")
    row_gap, col_gap, header = 18, 28, 30
    width = FLEET_PANEL_W + col_gap + FLEET_BAR_W + 16
    height = header + len(rows) * (FLEET_PANEL_H + row_gap)
    parts = []
    for ri, row in enumerate(rows):
        oy = header + ri * (FLEET_PANEL_H + row_gap)
        parts += fleet_trajectories(row, 8, oy)
        parts += fleet_cost_shares(row, 8 + FLEET_PANEL_W + col_gap, oy)
    config = doc["config"]
    title = (f"{name} — {config.get('num_tenants', '?')} tenants / "
             f"{config.get('num_graphs', '?')} graphs, budget "
             f"{config.get('budget_seconds', 0.0) / 1000.0:g}k annotation "
             f"seconds, seed {config.get('seed', '?')}")
    return document(width, height, title, parts)


RENDERERS = {
    "serve_latency": render_serve_latency,
    "async_annotate": render_async_annotate,
    "fleet_scheduler": render_fleet_scheduler,
}


def main():
    parser = argparse.ArgumentParser(
        description="Render kgacc-bench-v2 artifacts to SVG."
    )
    parser.add_argument("inputs", nargs="+", help="BENCH_*.json")
    parser.add_argument("-o", "--outdir", help="output directory")
    args = parser.parse_args()

    failed = False
    for path in args.inputs:
        try:
            with open(path) as f:
                doc = json.load(f)
            if doc.get("schema") != "kgacc-bench-v2":
                raise ValueError(
                    f"not a kgacc-bench-v2 document: {doc.get('schema')}"
                )
            render = RENDERERS.get(doc.get("bench"))
            if render is None:
                raise ValueError(
                    f"no renderer for bench '{doc.get('bench')}' (have: "
                    f"{', '.join(sorted(RENDERERS))})"
                )
            name = os.path.splitext(os.path.basename(path))[0]
            svg = render(doc, name)
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as err:
            print(f"{path}: {err}", file=sys.stderr)
            failed = True
            continue
        outdir = args.outdir or os.path.dirname(path) or "."
        os.makedirs(outdir, exist_ok=True)
        out = os.path.join(outdir, name + ".svg")
        with open(out, "w") as f:
            f.write(svg)
        print(f"{path} -> {out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
