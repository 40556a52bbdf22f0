"""Per-layer metrics and the traced-run report.

The traced run records, from the benchmark's own files: a span per
Worker::run_once pass (with its event count), a span per CryptoProvider call
(call -> return, parked fiber included; parent = the pass it started in),
every op's obs trace-ring record (sample period 1), client spans per
connection (connect -> handshake done -> response verified) and per-thread
/proc counters at the window marks.
"""

import bisect
from array import array

from . import stats
from .metrics import END_TO_END, threads_delta, window

# obs::Stage indices in a trace-ring record's timestamps.
SUBMIT, ENQUEUE, CLAIM, SERVICE_START, SERVICE_DONE, POLL_DRAIN, RESUME = range(7)
CLASSES = ("asym", "cipher", "prf")
OPS = ("rsa_sign", "ecdhe_keygen", "ecdhe_derive", "prf_tls12",
       "cipher_seal_batch", "cipher_open", "aead_seal_batch", "aead_open")
OP_CLASS = {"rsa_sign": 0, "rsa_decrypt": 0, "ecdhe_keygen": 0,
            "ecdhe_derive": 0, "ecdsa_sign": 0, "prf_tls12": 2}  # else cipher

PER_LAYER = {  # name -> (unit, better)
    "crypto.service_us.asym": ("us", "lower"),
    "crypto.service_us.cipher": ("us", "lower"),
    "crypto.service_us.prf": ("us", "lower"),
    "qat.queue_wait_p50_us": ("us", "lower"),
    "qat.engine_busy_share": ("ratio", "lower"),
    "engine.records_per_seal_batch": ("count", "higher"),
    "engine.submit_retries_per_unit": ("count", "lower"),
    "server.loop_passes_per_unit": ("count", "lower"),
    "server.loop_pass_p50_us": ("us", "lower"),
    "server.empty_pass_share": ("ratio", "lower"),
    "server.worker_cpu_ms_per_unit": ("ms", "lower"),
    "server.poll_wait_p50_us": ("us", "lower"),
    "server.responses_per_poll": ("count", "higher"),
    "server.failover_polls_per_unit": ("count", "lower"),
    "asyncx.parks_per_unit": ("count", "lower"),
    "asyncx.resume_wait_p50_us": ("us", "lower"),
    "tls.handshake_p50_ms": ("ms", "lower"),
    "tls.bytes_copied_per_byte": ("ratio", "lower"),
    "tls.resumption_hit_rate": ("ratio", "higher"),
    "net.worker_syscalls_per_unit": ("count", "lower"),
    "net.accepts_per_unit": ("count", "lower"),
    "common.bytes_per_conn": ("B", "lower"),
    "client.busy_share": ("ratio", "lower"),
    "client.cpu_ms_per_unit": ("ms", "lower"),
    "host.steal_share": ("ratio", "lower"),
    "host.server_runqueue_wait_share": ("ratio", "lower"),
}
for _op in OPS:
    PER_LAYER["engine.%s.calls_per_unit" % _op] = ("count", "lower")
    PER_LAYER["engine.%s.wait_p50_us" % _op] = ("us", "lower")
for _name in END_TO_END:
    PER_LAYER["overhead." + _name] = ("ratio", "lower")


def _p50(values):
    return stats.percentile(values, 50) if values else 0.0


def _spans(path, kind, width):
    """Records of `width` uint64s that the server wrote beside its JSON."""
    data = array("Q")
    with open("%s.%s" % (path, kind), "rb") as f:
        data.frombytes(f.read())
    return (data[i:i + width] for i in range(0, len(data), width))


def _union(intervals):
    total, end = 0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def _self_times(trace, path, calls, records):
    """Server-side self time per layer: span time minus what children cover.

    Children: a pass's provider calls (clipped to the pass); a call's trace
    records (submit -> fiber resume; a record belongs to the latest call of
    its op class that started before its submit, and one call's records
    overlap, so together they cover [first submit, last resume]); a
    record's device service. Client spans have no server-side children yet:
    linking a server span to the connection it served needs spans inside
    the program.
    """
    by_pass = {}
    for start, end, _cls, _op, pid, _records in calls:
        by_pass.setdefault(pid, []).append((start, end))
    covered = 0
    for pid, start, end, _events in _spans(path, "passes", 4):
        covered += _union((max(a, start), min(b, end))
                          for a, b in by_pass.get(pid, ()) if a < end)
    starts = {k: [] for k in range(len(CLASSES))}
    for i, c in enumerate(calls):
        starts[c[2]].append((c[0], i))
    first = array("Q", bytes(8 * len(calls)))
    last = array("Q", bytes(8 * len(calls)))
    for cls, t in records:
        k = bisect.bisect_right(starts[cls], (t[SUBMIT], len(calls))) - 1
        if k < 0 or t[SUBMIT] > calls[starts[cls][k][1]][1]:
            continue
        i = starts[cls][k][1]
        first[i] = min(first[i], t[SUBMIT]) if first[i] else t[SUBMIT]
        last[i] = max(last[i], t[RESUME] or t[POLL_DRAIN])
    return {
        "server": trace["pass_ns_total"] - covered,
        "engine": sum(c[1] - c[0] - (last[i] - first[i] if first[i] else 0)
                      for i, c in enumerate(calls)),
        "qat": sum(t[SERVICE_START] - t[SUBMIT] + t[POLL_DRAIN] - t[SERVICE_DONE]
                   for _c, t in records),
        "asyncx": sum(t[RESUME] - t[POLL_DRAIN] for _c, t in records if t[RESUME]),
        "crypto": sum(t[SERVICE_DONE] - t[SERVICE_START] for _c, t in records),
    }


def per_layer(workload, untraced, traced):
    """(per-layer metrics, report) from an untraced and a traced pass."""
    e2e0, diag0 = untraced[0], untraced[1]
    e2e1, diag1, _setups, server, load = traced
    t0, t1, units = window(load)
    n = len(units)
    m0, m1 = server["marks"]
    w0, w1 = m0["worker"], m1["worker"]
    dw = {k: w1[k] - w0[k] for k in w1}
    lo, hi = w0["t_ns"], w1["t_ns"]
    srv = threads_delta(m0["proc"], m1["proc"])
    main_tid = min(srv)
    engine_threads = [t for tid, t in srv.items()
                      if t["comm"] == "qtls_bench" and tid != main_tid]
    worker = [t for t in srv.values() if t["comm"] == "qb-worker"]
    lp0, lp1 = load["window"]
    load_threads = threads_delta(lp0, lp1, set(load["load_tids"]))

    # The window's provider calls, (start, end, class, op, pass, records) in
    # start order, and trace records, (class, stage stamps).
    trace, path = server["trace"], server["path"]
    ops = trace["ops"]
    calls = sorted((c[2], c[3], OP_CLASS.get(ops[c[0]], 1), ops[c[0]], c[1], c[4])
                   for c in _spans(path, "calls", 5) if lo <= c[2] < hi)
    records = [(r[1], r[2:]) for r in _spans(path, "ring", 2 + trace["stages"])
               if lo <= r[2 + SUBMIT] < hi]

    def stage_p50(a, b, cls=None):
        return _p50([(t[b] - t[a]) / 1e3 for c, t in records
                     if (cls is None or c == cls) and t[b]])

    out = {}
    for k, name in enumerate(CLASSES):
        out["crypto.service_us." + name] = stage_p50(SERVICE_START, SERVICE_DONE, k)
    out["qat.queue_wait_p50_us"] = stage_p50(ENQUEUE, CLAIM)
    out["qat.engine_busy_share"] = (
        sum(t["cpu_ns"] for t in engine_threads) / (hi - lo) / len(engine_threads)
        if engine_threads else 0.0)
    for op in OPS:
        waits = [(c[1] - c[0]) / 1e3 for c in calls if c[3] == op]
        out["engine.%s.calls_per_unit" % op] = len(waits) / n
        out["engine.%s.wait_p50_us" % op] = _p50(waits)
    batches = [c[5] for c in calls if c[3].endswith("_seal_batch")]
    out["engine.records_per_seal_batch"] = (
        sum(batches) / len(batches) if batches else 0.0)
    out["engine.submit_retries_per_unit"] = dw["submit_retries"] / n
    out["server.loop_passes_per_unit"] = dw["passes"] / n
    out["server.loop_pass_p50_us"] = trace["pass_p50_ns"] / 1e3
    out["server.empty_pass_share"] = (
        dw["empty_passes"] / dw["passes"] if dw["passes"] else 0.0)
    out["server.worker_cpu_ms_per_unit"] = (
        sum(t["cpu_ns"] for t in worker) / n / 1e6)
    out["server.poll_wait_p50_us"] = stage_p50(SERVICE_DONE, POLL_DRAIN)
    out["server.responses_per_poll"] = (
        dw["retrieved"] / dw["polls"] if dw["polls"] else 0.0)
    out["server.failover_polls_per_unit"] = dw["failover_triggers"] / n
    out["asyncx.parks_per_unit"] = dw["async_parks"] / n
    out["asyncx.resume_wait_p50_us"] = stage_p50(POLL_DRAIN, RESUME)
    # Every handshake of the run: bulk_download's four happen in warm-up.
    out["tls.handshake_p50_ms"] = _p50(
        [(u[1] - u[6]) / 1e6 for u in load["units"] if u[1]])
    out["tls.bytes_copied_per_byte"] = (
        dw["bytes_copied"] / dw["bytes_sent"] if dw["bytes_sent"] else 0.0)
    offered = sum(u[4] for u in units)
    out["tls.resumption_hit_rate"] = (
        sum(u[5] for u in units) / offered if offered else 0.0)
    out["net.worker_syscalls_per_unit"] = dw["syscalls"] / n
    out["net.accepts_per_unit"] = dw["accepted"] / n
    out["common.bytes_per_conn"] = trace["bytes_per_conn_mean"]
    out["client.busy_share"] = max(
        t["cpu_ns"] / (t1 - t0) for t in load_threads.values())
    out["client.cpu_ms_per_unit"] = (
        sum(t["cpu_ns"] for t in load_threads.values()) / n / 1e6)
    out["host.steal_share"] = diag1["host_steal_share"]
    out["host.server_runqueue_wait_share"] = diag1["server_runqueue_wait_share"]
    for name, (_unit, better) in END_TO_END.items():
        base, seen = e2e0[name], e2e1[name]
        worse = seen - base if better == "lower" else base - seen
        out["overhead." + name] = worse / base if base else 0.0

    self_ns = _self_times(trace, path, calls, records)
    report = {
        "workload": workload,
        "units": {"untraced": diag0["units"], "traced": n},
        "layer_self_ms_per_unit": {k: v / n / 1e6 for k, v in self_ns.items()},
        "client_spans_ms_per_unit": {
            "connect_to_handshake_done":
                sum(u[1] - u[6] for u in units if u[1]) / n / 1e6,
            "to_response_verified":
                sum(u[2] - (u[1] or u[0]) for u in units) / n / 1e6},
        "end_to_end": {"untraced": e2e0, "traced": e2e1},
        "tracing_overhead": {k[len("overhead."):]: v for k, v in out.items()
                             if k.startswith("overhead.")},
        "spans": {"calls": len(calls), "ring_records": len(records),
                  "dropped": trace["dropped_spans"],
                  "ring_full_copies": trace["ring_full_copies"]},
    }
    missing = sorted(set(PER_LAYER) - set(out))
    if missing:
        raise AssertionError("per-layer metrics not computed: %s" % missing)
    return out, report
