"""Seeded `.rvset` bodies for the serving workloads.

Everything the programs under test receive is generated here from the
`--seed` of run.py: the same seed gives byte-identical bodies, and a
different seed gives different cell parameters, hence new cache keys.

* `working_set(seed)` is one large rendezvous grid (a few thousand
  cells).  Set-up computes it once with `rv_batch` to pre-warm the
  `serve-cold-mix` cache directory.
* `hit_bodies(seed)` cuts that grid into small 4-cell bodies.  Every
  cell of every hit body is a cell of the working set, so a daemon
  warm-loaded from the pre-warmed directory answers them from cache.
* `miss_body(seed, k)` is the k-th fresh body: a small rendezvous,
  search, linear or coverage grid (never gather) whose parameters no
  other (seed, k) shares.
* `mix_schedule(seed, n)` is the seeded request sequence of the open
  loop: 80% hits, 20% misses, csv and json; `arrivals(seed, rate, n)`
  its seeded Poisson send times.
"""

import random

# Working-set grid shape: 6 speeds x 5 time units x 8 orientations x
# 2 chiralities x 6 distances = 2880 cells.
_SPEEDS = 6
_TIME_UNITS = 5
_ORIENTATIONS = 8
_DISTANCES = 6
# Short horizon: infeasible cells (which run to the horizon) stay cheap.
_RENDEZVOUS_HORIZON = "400"

MISS_FAMILIES = ("rendezvous", "search", "linear", "coverage")
HIT_SHARE = 0.8


def _num(x):
    """Decimal text of a generated parameter (stable across runs)."""
    return "%.6g" % x


def _distinct(rng, count, lo, hi):
    values = set()
    while len(values) < count:
        values.add(_num(rng.uniform(lo, hi)))
    return sorted(values, key=float)


def working_axes(seed):
    """The working-set grid axes, as decimal strings."""
    rng = random.Random("working-set-%d" % seed)
    return {
        "speeds": _distinct(rng, _SPEEDS, 1.0, 2.5),
        "time_units": _distinct(rng, _TIME_UNITS, 0.5, 2.0),
        "orientations": _distinct(rng, _ORIENTATIONS, 0.0, 6.28),
        "distances": _distinct(rng, _DISTANCES, 0.5, 2.0),
    }


def _rendezvous_body(name, speeds, time_units, orientations, distances,
                     visibility="0.25"):
    return (
        "name = %s\n"
        "[rendezvous]\n"
        "visibility = %s\n"
        "max_time = %s\n"
        "algorithm = algorithm7\n"
        "speeds = %s\n"
        "time_units = %s\n"
        "orientations = %s\n"
        "chiralities = 1 -1\n"
        "distances = %s\n"
        % (name, visibility, _RENDEZVOUS_HORIZON, " ".join(speeds),
           " ".join(time_units), " ".join(orientations), " ".join(distances)))


def working_set(seed):
    """The pre-warm body: one rendezvous grid of `working_set_cells()`."""
    axes = working_axes(seed)
    return _rendezvous_body("mix-warm-%d" % seed, axes["speeds"],
                            axes["time_units"], axes["orientations"],
                            axes["distances"])


def working_set_cells():
    return _SPEEDS * _TIME_UNITS * _ORIENTATIONS * 2 * _DISTANCES


def hit_bodies(seed):
    """4-cell bodies that partition the working set, in a fixed order."""
    axes = working_axes(seed)
    bodies = []
    o = axes["orientations"]
    for s in axes["speeds"]:
        for t in axes["time_units"]:
            for d in axes["distances"]:
                for j in range(0, len(o), 2):
                    name = "mix-hit-%d" % len(bodies)
                    bodies.append(_rendezvous_body(name, [s], [t], o[j:j + 2],
                                                   [d]))
    return bodies


def miss_body(seed, k):
    """The k-th fresh body of `seed`: cells no other (seed, k) shares."""
    rng = random.Random("miss-%d-%d" % (seed, k))
    family = MISS_FAMILIES[k % len(MISS_FAMILIES)]
    name = "mix-miss-%d-%d" % (seed, k)
    u = rng.uniform(0.0, 1.0)
    if family == "rendezvous":
        return _rendezvous_body(name, [_num(1.0 + u)], ["1", "2"], ["0.3"],
                                ["1"], visibility=_num(0.2 + 0.1 * u))
    if family == "search":
        return ("name = %s\n[search]\nangles = 2\nangle_offset = %s\n"
                "distances = 1\nradii = 0.25\nprograms = algorithm4\n"
                "horizon_rule = guaranteed-rounds+1\n" % (name, _num(u)))
    if family == "linear":
        return ("name = %s\n[linear]\nmode = zigzag-search\n"
                "visibility = 1e-3\ndistances = %s %s\n"
                "horizon_rule = zigzag-reach+1\n"
                % (name, _num(0.5 + 2.0 * u), _num(-0.5 - 2.0 * u)))
    return ("name = %s\n[coverage]\ndisk_radius = 1\nvisibility = %s\n"
            "cell = 0.1\ncheckpoints = 8\nprograms = algorithm4\n"
            "horizon_rule = 2x-guaranteed-rounds\n" % (name, _num(0.2 + 0.1 * u)))


def fork_probe_body():
    """The 8-cell cold rendezvous body the traced run dispatches with
    one and with two shard processes."""
    return _rendezvous_body("fork-probe", ["1.3", "1.7"], ["1", "2"], ["0.3"],
                            ["1"])


def mix_schedule(seed, count):
    """Seeded open-loop request list: (kind, index, format) tuples.

    kind is "hit" (index into `hit_bodies(seed)`) or "miss" (k of
    `miss_body(seed, k)`, numbered in order of appearance).  Every
    block of five requests holds exactly one miss at a seeded position,
    so the hit share is 80% and misses never cluster by chance."""
    rng = random.Random("mix-%d" % seed)
    hits = len(hit_bodies(seed))
    block = round(1.0 / (1.0 - HIT_SHARE))
    schedule = []
    misses = 0
    miss_at = 0
    for i in range(count):
        if i % block == 0:
            miss_at = i + rng.randrange(block)
        fmt = "json" if i % 2 else "csv"
        if i == miss_at:
            schedule.append(("miss", misses, fmt))
            misses += 1
        else:
            schedule.append(("hit", rng.randrange(hits), fmt))
    return schedule


def arrivals(seed, rate, count):
    """Send times (s from the start) of a Poisson process at `rate`:
    seeded exponential gaps, so hits meet misses in service at random
    phases instead of at one fixed spacing."""
    rng = random.Random("arrivals-%d" % seed)
    t = 0.0
    out = []
    for _ in range(count):
        out.append(t)
        t += rng.expovariate(rate)
    return out
