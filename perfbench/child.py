"""One benchmark process: set a workload up, then measure or trace it.

``run.py`` starts this script once per set-up sample.  The protocol on
stdout is line based: diagnostic lines are relayed as they are, ``READY``
marks the end of set-up (imports, model or daemon construction and one
untimed warm-up item), and ``RESULT <json>`` carries the measurement.
With ``--setup-only`` the process stops after ``READY``.

A workload module (``fig6_sweep``, ``service_mixed``, ``cosim_fig2``)
exposes a ``Workload`` class with ``setup()``, ``measure()``,
``trace()`` and ``close()``.  Inputs come from :func:`work_list`, a pure
function of the workload name, the seed and the item count.
"""

import argparse
import hashlib
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

#: Fields of a BER row that are pure functions of (scenario, point,
#: batch).  ``ber`` and the interval are derived from them, so the
#: digest leaves the floats out.
ROW_FIELDS = ("rate_mbps", "snr_db", "errors", "trials", "packets",
              "batches", "packet_errors", "stop_reason")


def digest(obj):
    """Short content hash of a JSON-able object."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def rows_digest(rows):
    """Digest of BER rows, ordered by SNR, over :data:`ROW_FIELDS`."""
    picked = [[row.get(name) for name in ROW_FIELDS] for row in rows]
    return digest(sorted(picked, key=lambda r: (r[0], r[1])))


def work_list(name, seed, count, make_cold):
    """The fixed item list of one run.

    Items 0 and 1 are cold; after that each pair of positions holds one
    cold and one warm item in seeded order.  A warm item repeats a cold
    item at least two positions back, and no cold item is repeated
    twice, so the warm items carry the same input mix as the cold ones.
    ``make_cold(rng, index)`` returns the parameters of the
    ``index``-th cold item.
    """
    rng = random.Random("%s:%d" % (name, seed))
    items = []
    unrepeated = []
    colds = []

    def add_cold():
        unrepeated.append(len(items))
        colds.append(len(items))
        items.append({"kind": "cold", "params": make_cold(rng, len(colds) - 1),
                      "source": None})

    def add_warm():
        eligible = [i for i in unrepeated if i <= len(items) - 2]
        if not eligible:
            add_cold()
            return
        source = eligible[rng.randrange(len(eligible))]
        unrepeated.remove(source)
        items.append({"kind": "warm", "params": items[source]["params"],
                      "source": source})

    while len(items) < count:
        if len(items) < 2:
            add_cold()
            continue
        pair = [add_cold, add_warm]
        rng.shuffle(pair)
        for add in pair:
            if len(items) < count:
                add()
    return items


class Item:
    """Outcome of one timed item."""

    __slots__ = ("kind", "seconds", "ttfr", "digest", "error")

    def __init__(self, kind, seconds=None, ttfr=None, digest=None, error=None):
        self.kind = kind
        self.seconds = seconds
        self.ttfr = ttfr
        self.digest = digest
        self.error = error


def p50(values):
    """Median; 0 when every item failed (the run is then incorrect)."""
    return statistics.median(values) if values else 0.0


def p90(values):
    """Upper decile; needs at least two samples."""
    return statistics.quantiles(values, n=10)[8]


class Recorder:
    """Phase hook and span sink kept in memory until the run ends.

    Installed with ``repro.obs.phases.set_phase_hook``; every call is
    one ``(thread, name, ts, dur, attrs)`` tuple.  ``span`` records the
    benchmark's own spans around calls into a layer.
    """

    def __init__(self):
        self.events = []
        self.spans = []

    def __call__(self, name, ts, dur, attrs):
        self.events.append((threading.get_ident(), name, ts, dur, attrs))

    def span(self, name, start, seconds, **attrs):
        self.spans.append({"name": name, "ts": start, "dur": seconds,
                           "attrs": attrs})

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for thread, name, ts, dur, attrs in self.events:
                handle.write(json.dumps({"kind": "phase", "thread": thread,
                                         "name": name, "ts": ts, "dur": dur,
                                         "attrs": attrs}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(dict(span, kind="span")) + "\n")


def phase_totals(events):
    """Sum recorded kernel phase ``events`` into per-layer totals.

    BCJR sweeps fire inside a ``decode`` (fused path) or a
    ``link-simulate`` (per-batch path) on the same thread, before the
    enclosing phase reports, so each enclosing phase's self time is
    its duration minus the sweeps that preceded it on its thread.
    """
    totals = dict.fromkeys(
        ("transmit", "channel", "front-end", "decode_other",
         "bcjr.forward", "bcjr.seed", "bcjr.backward", "unfused_self",
         "kernel", "fused_packets", "unfused_packets", "fused_groups"),
        0.0)
    pending = {}
    for thread, name, _ts, dur, attrs in events:
        inner = pending.setdefault(thread, {})
        packets = (attrs or {}).get("packets", 0)
        if name.startswith("bcjr."):
            inner[name] = inner.get(name, 0.0) + dur
            continue
        if name in ("decode", "link-simulate"):
            swept = sum(inner.values())
            for phase, seconds in inner.items():
                totals[phase] += seconds
            inner.clear()
            if name == "decode":
                totals["decode_other"] += dur - swept
            else:
                totals["unfused_self"] += dur - swept
                totals["unfused_packets"] += packets
        else:
            totals[name] = totals.get(name, 0.0) + dur
            if name == "transmit":
                totals["fused_groups"] += 1
                totals["fused_packets"] += packets
        if name in ("transmit", "channel", "front-end", "decode",
                    "link-simulate"):
            totals["kernel"] += dur
    return totals


class Context:
    """What a workload needs from the harness."""

    def __init__(self, args, checkout):
        self.name = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.checkout = checkout
        self.run_dir = os.path.join(checkout, ".perfbench_run",
                                    "%s-%d-%d" % (args.workload, args.seed,
                                                  os.getpid()))
        self.out_dir = os.path.join(checkout, ".perfbench_out")
        os.makedirs(self.run_dir, exist_ok=True)

    def log(self, text):
        print(text, flush=True)


def check_record(ctx, items, counts):
    """Compare digests and exact counts with the recorded ones, if any.

    Returns the run-level problems found; per-item digest mismatches are
    written into the items' ``error``.
    """
    try:
        with open(EXPECTED_PATH) as handle:
            record = json.load(handle)
    except FileNotFoundError:
        record = {}
    entry = record.get(ctx.name, {}).get("seed=%d,n=%d" % (ctx.seed,
                                                          len(items)))
    if entry is None:
        ctx.log("record: none for seed %d with %d items; only the "
                "internal checks ran" % (ctx.seed, len(items)))
        return []
    mismatched = 0
    for item, expected in zip(items, entry["items"]):
        if item.error is None and item.digest != expected:
            item.error = "digest %s != recorded %s" % (item.digest, expected)
            mismatched += 1
    problems = []
    if counts != entry["counts"]:
        problems.append("counts %s != recorded %s"
                        % (json.dumps(counts, sort_keys=True),
                           json.dumps(entry["counts"], sort_keys=True)))
    ctx.log("record: seed %d checked, %d item digest mismatches, %d count "
            "mismatches" % (ctx.seed, mismatched, len(problems)))
    return problems


def save_record(ctx, path, items, counts):
    try:
        with open(path) as handle:
            record = json.load(handle)
    except FileNotFoundError:
        record = {}
    key = "seed=%d,n=%d" % (ctx.seed, len(items))
    record.setdefault(ctx.name, {})[key] = {
        "items": [item.digest for item in items], "counts": counts}
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")


def end_to_end(ctx, items, failed, wall, sim_bits, rss_mb):
    """The end-to-end metrics every workload reports (set-up aside)."""
    ok = [item for item in items if item.error is None]
    cold = [item for item in ok if item.kind == "cold"]
    warm = [item for item in ok if item.kind == "warm"]
    metrics = {
        "rss_peak_mb": (rss_mb, "MB"),
        "ok_frac": ((len(items) - failed) / len(items), "frac"),
        "sim_kbps": (sim_bits / 1e3 / wall, "kb/s"),
        "cold_p50_s": (p50([item.seconds for item in cold]), "s"),
        "warm_p50_s": (p50([item.seconds for item in warm]), "s"),
    }
    ctx.log("samples: items=%d cold=%d warm=%d failed=%d wall=%.3f s"
            % (len(items), len(cold), len(warm), failed, wall))
    ctx.log("diagnostic: items_per_s=%.6f 1/s (n=%d)"
            % (len(items) / wall, len(items)))
    ctx.log("diagnostic: item_p50_s=%.6f s (n=%d, cold and warm)"
            % (p50([item.seconds for item in ok]), len(ok)))
    if cold and cold[0].ttfr is not None:
        ctx.log("diagnostic: ttfr_p50_s=%.6f s (n=%d)"
                % (p50([item.ttfr for item in cold]), len(cold)))
    for label, group in (("cold", cold), ("warm", warm)):
        if len(group) >= 2:
            values = [item.seconds for item in group]
            upper = p90(values)
            beyond = sum(1 for v in values if v > upper)
            ctx.log("diagnostic: %s_p90_s=%.6f s (n=%d, %d beyond)"
                    % (label, upper, len(values), beyond))
    return metrics


#: Per-layer metrics and their units, reported by every traced run.  A
#: layer the workload does not touch reads 0.
PER_LAYER = {
    "phy.bcjr_forward_s": "s", "phy.bcjr_seed_s": "s",
    "phy.bcjr_backward_s": "s", "phy.decode_other_s": "s",
    "phy.transmit_s": "s", "channel.awgn_s": "s", "phy.front_end_s": "s",
    "phy.viterbi_decode_s": "s",
    "analysis.fused_packet_share": "frac", "analysis.fused_groups": "count",
    "analysis.unfused_batch_s": "s", "analysis.experiment_self_s": "s",
    "analysis.packets_simulated": "count",
    "analysis.batches_simulated": "count",
    "store.get_s": "s", "store.put_s": "s", "store.hits": "count",
    "store.misses": "count",
    "service.broker_self_s": "s", "service.http_self_s": "s",
    "service.stage_simulate_s": "s", "service.stage_deliver_s": "s",
    "service.batches_cached": "count", "service.batches_simulated": "count",
    "service.batches_shared": "count", "service.batches_delivered": "count",
    "service.cache_hit_ratio": "frac", "service.rejected_429": "count",
    "fleet.retried": "count", "service.ttfr_p50_s": "s",
    "service.cold_p90_s": "s", "service.warm_p90_s": "s",
    "core.build_s": "s", "core.scheduler_self_s": "s", "core.hw_busy_s": "s",
    "core.sw_busy_s": "s", "core.firings": "count", "core.link_bytes": "B",
    "obs.trace_overhead_frac": "frac",
}


def per_layer(ctx, self_times, extras, untraced):
    """All per-layer metrics; checks that self times add up to an item."""
    values = dict.fromkeys(PER_LAYER, 0)
    values.update(self_times)
    values.update(extras)
    if self_times:
        total = sum(self_times.values())
        ctx.log("layer sum: %.6f s per item = %.1f%% of the untraced item "
                "p50 %.6f s and %.1f%% of its mean %.6f s (n=%d)"
                % (total, 100.0 * total / p50(untraced), p50(untraced),
                   100.0 * total / statistics.mean(untraced),
                   statistics.mean(untraced), len(untraced)))
    return {name: (value, PER_LAYER[name]) for name, value in values.items()}


def rss_self_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", default=None)
    args = parser.parse_args()
    checkout = os.getcwd()
    module = importlib.import_module(args.workload)
    ctx = Context(args, checkout)
    workload = module.Workload(ctx)
    try:
        workload.setup()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        import numpy

        ctx.log("host: numpy=%s" % numpy.__version__)
        if args.trace:
            recorder = Recorder()
            metrics = per_layer(ctx, *workload.trace(recorder))
            recorder.write(os.path.join(
                ctx.out_dir, "trace-%s-%d.jsonl" % (ctx.name, ctx.seed)))
            items, problems = workload.trace_items, []
            failed = sum(1 for item in items if item.error is not None)
        else:
            items, (wall, sim_bits, rss_mb), counts, problems = \
                workload.measure()
            ctx.log("counts: %s" % json.dumps(counts, sort_keys=True))
            problems += check_record(ctx, items, counts)
            failed = min(len(items), len(problems) + sum(
                1 for item in items if item.error is not None))
            metrics = end_to_end(ctx, items, failed, wall, sim_bits, rss_mb)
            if args.record and failed == 0:
                save_record(ctx, args.record, items, counts)
        for item in items:
            if item.error is not None:
                ctx.log("FAILED %s item: %s" % (item.kind, item.error))
        for problem in problems:
            ctx.log("FAILED run check: %s" % problem)
        result = {
            "correct": failed == 0,
            "attempted": len(items),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
        print("RESULT " + json.dumps(result), flush=True)
    finally:
        workload.close()
        shutil.rmtree(ctx.run_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
