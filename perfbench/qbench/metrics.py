"""End-to-end metrics and run-validity diagnostics of one measured window."""

import bisect

from . import stats
from .harness import OBJECT_BYTES, BenchError

# A load thread busier than this sets the pace itself: the run is invalid.
LOAD_SATURATION = 0.85

END_TO_END = {  # name -> (unit, better)
    "cps": ("1/s", "higher"),
    "goodput_mb_s": ("MB/s", "higher"),
    "lat_p50_ms": ("ms", "lower"),
    "lat_p90_ms": ("ms", "lower"),
    "server_cpu_ms_per_unit": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}


def threads_delta(p0, p1, tids=None):
    """Per-thread counter deltas between two /proc samples, keyed by tid."""
    before = {t["tid"]: t for t in p0["threads"]}
    out = {}
    for t in p1["threads"]:
        if t["tid"] not in before or (tids is not None and t["tid"] not in tids):
            continue
        b = before[t["tid"]]
        out[t["tid"]] = dict(
            {k: t[k] - b[k] for k in ("cpu_ns", "runq_wait_ns", "nivcsw")},
            comm=t["comm"])
    return out


def window(load):
    """(t0, t1, units completed in [t0, t1)) as the load process saw it."""
    t0 = load["window"][0]["t_ns"]
    t1 = load["window"][1]["t_ns"]
    return t0, t1, [u for u in load["units"] if t0 <= u[2] < t1]


# Which part of the window the throughput, latency and server-CPU metrics
# count, per workload: slices of `samples` consecutive host samples (the load
# process takes one every 250 ms) and the quietest `share` of them. A
# handshake (35-70 ms) fits inside a 250-ms slice; a 1 MiB response
# (~450 ms) needs 1-s slices, and the half keeps >= 10 samples beyond p90.
QUIET = {  # workload -> (samples per slice, share of slices kept)
    "full_handshake": (1, 0.25),
    "resumed_handshake": (1, 0.25),
    "bulk_download": (4, 0.5),
}


def quiet_slices(workload, load):
    """The quietest slices of the window, in time order.

    Each slice is (start ns, end ns, host steal share, server CPU ns). Slices
    are ranked by the share of guest CPU the host stole in them (ties by
    time); a unit belongs to the slice it completed in. Host steal here
    comes in episodes of seconds to minutes that move throughput and tail
    latency by up to 3x (NOTES.md, Noise), so the metrics count only the
    quietest slices: the ranking uses a host measurement only, never the
    program's own figures. A window without samples (the self-tests'
    counted runs) gives [].
    """
    samples, share = QUIET[workload]
    points = load.get("host_samples", [])[::samples]
    slices = [((sb - sa) / (nb - na) if nb > na else 0.0, ta, tb, cb - ca)
              for (ta, sa, na, ca), (tb, sb, nb, cb) in zip(points, points[1:])]
    kept = sorted(slices)[:max(1, int(len(slices) * share + 0.5))]
    return sorted((ta, tb, steal, cpu) for steal, ta, tb, cpu in kept)


def quiet_window(workload, load):
    """(seconds, units, steal share, server CPU ns) of the quietest slices.

    A window without samples is used whole; its server CPU is then None
    (end_to_end reads it from the server's window marks).
    """
    t0, t1, units = window(load)
    kept = quiet_slices(workload, load)
    if not kept:
        return (t1 - t0) / 1e9, units, 0.0, None
    starts = [k[0] for k in kept]
    chosen = []
    for u in units:
        i = bisect.bisect_right(starts, u[2]) - 1
        if i >= 0 and u[2] < kept[i][1]:
            chosen.append(u)
    seconds = sum(tb - ta for ta, tb, _s, _c in kept) / 1e9
    steal = sum(s for _a, _b, s, _c in kept) / len(kept)
    return seconds, chosen, steal, sum(c for _a, _b, _s, c in kept)


def end_to_end(workload, setup_times, server, load):
    seconds, units, _steal, server_cpu_ns = quiet_window(workload, load)
    if not units:
        raise BenchError("no unit completed in the window")
    lat_ms = [(u[2] - u[0]) / 1e6 for u in units]
    marks = server["marks"]
    if len(marks) != 2:
        raise BenchError("server saw %d window marks, not 2" % len(marks))
    n = len(units)
    if server_cpu_ns is None:
        # Counters are read at the window marks, so CPU covers the window.
        cpu = threads_delta(marks[0]["proc"], marks[1]["proc"])
        server_cpu_ns = sum(t["cpu_ns"] for t in cpu.values())
        n_cpu = len(window(load)[2])
    else:
        n_cpu = n
    return {
        "cps": n / seconds,
        "goodput_mb_s": n * OBJECT_BYTES[workload] / seconds / 1e6,
        "lat_p50_ms": stats.percentile(lat_ms, 50),
        "lat_p90_ms": stats.percentile(lat_ms, 90),
        "server_cpu_ms_per_unit": server_cpu_ns / n_cpu / 1e6,
        "peak_rss_mb": server["proc_final"]["peak_rss_kb"] / 1024.0,
        "setup_s": stats.median(setup_times),
    }


def diagnostics(workload, setup_times, server, load):
    """Whether the window measured the server; failures make a run invalid."""
    t0, t1, units = window(load)
    window_ns = t1 - t0
    lp0, lp1 = load["window"]
    load_threads = threads_delta(lp0, lp1, set(load["load_tids"]))
    busy = sorted(t["cpu_ns"] / window_ns for t in load_threads.values())
    sp0, sp1 = server["marks"][0]["proc"], server["marks"][1]["proc"]
    srv = threads_delta(sp0, sp1)
    cpu = sum(t["cpu_ns"] for t in srv.values())
    wait = sum(t["runq_wait_ns"] for t in srv.values())
    host_total = sp1["host_total"] - sp0["host_total"]
    quiet_s, quiet_units, quiet_steal, _cpu = quiet_window(workload, load)
    n = len(quiet_units)
    diag = {
        "window_s": window_ns / 1e9,
        "units": len(units),
        "quiet_s": quiet_s,
        "quiet_steal_share": quiet_steal,
        "load_busy_share": busy,
        "host_steal_share": (sp1["host_steal"] - sp0["host_steal"]) / host_total
        if host_total else 0.0,
        "server_runqueue_wait_share": wait / (cpu + wait) if cpu + wait else 0.0,
        "server_threads": {
            "%s/%d" % (t["comm"], tid): {
                "busy_share": round(t["cpu_ns"] / window_ns, 4),
                "runqueue_wait_share": round(
                    t["runq_wait_ns"] / (t["cpu_ns"] + t["runq_wait_ns"]), 4)
                if t["cpu_ns"] + t["runq_wait_ns"] else 0.0,
                "nonvoluntary_ctxt_switches": t["nivcsw"],
            } for tid, t in sorted(srv.items())},
        "latency_samples": n,
        "lat_p90_samples_beyond": stats.beyond(n, 90),
        "setup_times_s": [round(t, 4) for t in setup_times],
    }
    problems = []
    if busy and busy[-1] > LOAD_SATURATION:
        problems.append("load thread %.0f%% busy, above the %.0f%% saturation "
                        "threshold" % (100 * busy[-1], 100 * LOAD_SATURATION))
    if not stats.tail_supported(n, 90):
        problems.append("lat_p90_ms has %d samples beyond it, fewer than 10"
                        % stats.beyond(n, 90))
    if workload == "resumed_handshake":
        offered = sum(u[4] for u in units)
        resumed = sum(u[5] for u in units)
        diag["resumption_hit_rate"] = resumed / offered if offered else 0.0
        if offered == 0 or resumed != offered:
            problems.append("resumed %d of %d offers" % (resumed, offered))
    return diag, problems
