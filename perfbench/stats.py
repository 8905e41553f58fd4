"""The benchmark's arithmetic: exact percentiles over raw samples, the
geometric mean, and span self time. Kept apart from run.py so that
perfbench/tests/test_stats.py can check it on hand-made inputs."""

import math
import statistics
from collections import defaultdict, namedtuple

# One span as perfbench writes it: ids, the operation it belongs to, the
# thread and pass that recorded it, "<layer>.<what>", and its interval in ns.
Span = namedtuple("Span", "id parent op thread pass_ name start end")


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p percent of
    the samples at or below it. Always one of the samples, so it lies inside
    [min, max] whatever the sample count."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError("percentile rank must be in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def median(values):
    """Median of a few repetitions (the middle value, or the mean of the two
    middle values)."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def geomean(values):
    """Geometric mean of positive values. Summing logs with fsum makes the
    result independent of the order the values come in."""
    if not values:
        raise ValueError("geometric mean of no values")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive values")
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


CHUNKS = 20
MIN_CHUNK = 100  # samples, so a chunk's p90 has ten beyond it.


def chunk_throughput(done_s, quantum=1, chunks=CHUNKS):
    """Operations per second as the median over consecutive equal-work chunks
    of the script (in completion order) of each chunk's own rate. A chunk
    holds a whole multiple of `quantum` operations and runs from the previous
    chunk's last completion (or the script's start) to its own last one, so
    together the chunks tile the script; a stall in one chunk (another
    process taking the CPU) moves only that chunk's rate."""
    t = sorted(done_s)
    size = max(quantum, len(t) // chunks // quantum * quantum)
    k = len(t) // size
    if k < 1:
        raise ValueError("fewer operations than one chunk")
    rates = []
    prev = 0.0
    for i in range(k):
        end = t[(i + 1) * size - 1]
        rates.append(size / (end - prev) if end > prev else float("inf"))
        prev = end
    return median(rates)


def chunk_percentile(samples, ends, p, chunks=CHUNKS, min_chunk=MIN_CHUNK):
    """The p-th percentile as the median over consecutive chunks of the
    script (ordered by completion time `ends`) of each chunk's exact
    percentile. Chunks hold at least `min_chunk` samples; with fewer than two
    such chunks it is the exact percentile of all samples."""
    k = min(chunks, len(samples) // min_chunk)
    if k < 2:
        return percentile(samples, p)
    order = sorted(range(len(samples)), key=ends.__getitem__)
    size = len(samples) // k
    return median([percentile([samples[i] for i in order[j * size:(j + 1) * size]], p)
                   for j in range(k)])


def covered(intervals, start, end):
    """Length of the part of [start, end) that the union of `intervals` covers."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its child spans cover. Overlapping or out-of-range children are
    counted once and only inside the parent."""
    children = defaultdict(list)
    for s in spans:
        if s.parent:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def layer(name):
    return name.split(".", 1)[0]


def layer_self_ns(spans):
    """Self time summed per layer."""
    own = self_times(spans)
    out = defaultdict(int)
    for s in spans:
        out[layer(s.name)] += own[s.id]
    return dict(out)


def name_table(spans):
    """Per span name: how many, total duration and total self time (ns)."""
    own = self_times(spans)
    table = {}
    for s in spans:
        row = table.setdefault(s.name, [0, 0, 0])
        row[0] += 1
        row[1] += s.end - s.start
        row[2] += own[s.id]
    return table


def read_spans(path):
    spans = []
    with open(path) as f:
        for line in f:
            i, parent, op, thread, pass_, name, start, end = line.rstrip("\n").split("\t")
            spans.append(Span(int(i), int(parent), int(op), int(thread),
                              int(pass_), name, int(start), int(end)))
    return spans
