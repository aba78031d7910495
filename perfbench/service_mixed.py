"""``service_mixed``: the HTTP daemon under a warm/cold request mix.

The real daemon (``python -m repro.service``, default thread fleet with
one worker per CPU) serves two closed-loop streaming clients that pull
from one seeded request list.  A cold request carries a fresh seed, so
the service simulates it and appends to the store; a warm request
repeats a request at least two positions back that has already
finished, so it is a pure store read and never coalesces with an
in-flight twin.  Per-request compute is small, so HTTP, broker, fleet
and store costs are visible, and reads and writes share the store and
the interpreter lock in one workload.
"""

import re
import subprocess
import sys
import threading
import time
import urllib.request

from child import (Item, Recorder, p50, p90, phase_totals, rows_digest,
                   work_list)

from repro.analysis import ResultStore, Scenario, StopRule
from repro.analysis.sweep import SweepExecutor
from repro.obs.phases import set_phase_hook
from repro.service import (CharacterisationRequest, Service, ServiceError,
                           fetch_json, stream_request)

GRID = [4.0 + 0.5 * i for i in range(11)]
WINDOWS = len(GRID) - 2
STOP = StopRule(rel_half_width=0.3, min_errors=20, max_packets=32)
PACKET_BITS = 600
BATCH_PACKETS = 8
CLIENTS = 2
#: Requests per measured second, sized so a run takes about ``--seconds``
#: on a quiet 2-vCPU host.
REQUESTS_PER_SECOND = 45
#: Cold requests re-run in process after the timed phase and compared
#: with the rows the daemon streamed.
REFERENCE_SAMPLE = 4
#: Cold requests the traced run times through ``Experiment.run`` with
#: and without the phase hook, one caller, for the tracing overhead.
OVERHEAD_SAMPLE = 40
TIMEOUT_S = 120.0


def request_body(seed, window):
    return CharacterisationRequest(
        scenario=Scenario(decoder="bcjr", packet_bits=PACKET_BITS),
        axes={"rate_mbps": [24], "snr_db": GRID[window:window + 3]},
        stop=STOP, seed=seed, batch_packets=BATCH_PACKETS).to_dict()


def cold_maker():
    """Cold requests: a fresh seed each, and the windows cycle through
    every 3-point window equally, so each run has the same mix."""
    order = []

    def make_cold(rng, index):
        if index % WINDOWS == 0:
            order[:] = rng.sample(range(WINDOWS), WINDOWS)
        return {"seed": rng.randrange(1, 2 ** 31),
                "window": order[index % WINDOWS]}

    return make_cold


def prometheus_sums(text):
    """``{(family, label-text): value}`` for every ``_sum`` sample."""
    sums = {}
    for line in text.splitlines():
        match = re.match(r"(repro_\w+)_sum\{(.*)\} (\S+)$", line)
        if match:
            sums[(match.group(1), match.group(2))] = float(match.group(3))
    return sums


class Daemon:
    """``python -m repro.service`` on a fresh store and a free port."""

    def __init__(self, store):
        self.url = None
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--store", store,
             "--port", "0"],
            stdout=subprocess.PIPE, text=True)
        announce = self.proc.stdout.readline()
        match = re.search(r"listening on (http://\S+)", announce)
        if match is None:
            self.stop()
            raise RuntimeError("daemon did not announce: %r" % announce)
        self.url = match.group(1)

    def metrics(self):
        doc = fetch_json(self.url + "/v1/metrics")
        with urllib.request.urlopen(
                self.url + "/v1/metrics?format=prometheus",
                timeout=30) as response:
            doc["prometheus"] = prometheus_sums(response.read().decode())
        return doc

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the daemon")

    def stop(self):
        if self.proc.poll() is not None:
            return
        try:
            if self.url is None:
                raise OSError("no URL to shut down")
            fetch_json(self.url + "/v1/shutdown", data={}, timeout=10)
            self.proc.communicate(timeout=30)
        except (OSError, ServiceError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.communicate()


def http_call(url, body):
    """One streamed request: ``(seconds, ttfr, rows, progress)``."""
    started = time.perf_counter()
    first = None
    rows = []
    progress = None
    for event in stream_request(url, body, timeout=TIMEOUT_S):
        kind = event["event"]
        if kind == "row":
            if first is None:
                first = time.perf_counter() - started
            rows.append(event["row"])
        elif kind == "done":
            progress = event["progress"]
        elif kind in ("error", "failed", "cancelled"):
            raise ServiceError("%s event: %s" % (
                kind, event.get("error") or event.get("reason")))
    seconds = time.perf_counter() - started
    if progress is None:
        raise ServiceError("stream ended without a done event")
    return seconds, first, rows, progress


def delta(after, before, *path):
    for key in path:
        after, before = after[key], before[key]
    return after - before


class Workload:

    def __init__(self, ctx):
        self.ctx = ctx
        count = REQUESTS_PER_SECOND * ctx.seconds
        self.items = work_list(ctx.name, ctx.seed, count, cold_maker())
        self.bodies = [request_body(**spec["params"]) for spec in self.items]
        self.daemon = None
        self.trace_items = []

    def setup(self):
        self.daemon = Daemon(self.ctx.run_dir + "/daemon-store")
        warmup = request_body(seed=0, window=0)
        http_call(self.daemon.url, warmup)
        http_call(self.daemon.url, warmup)

    # ------------------------------------------------------------------ #
    def _closed_loop(self, call, kinds=("cold", "warm"), spans=None):
        """Run the list items of ``kinds`` through ``call(body)`` from
        ``CLIENTS`` threads; returns ``(outcomes, progress, wall)``.
        ``spans``, a ``(recorder, layer)`` pair, records one span per item.

        A warm request waits, before it is sent, until its source has
        finished, so it never coalesces with an in-flight twin.
        """
        outcomes = [None] * len(self.items)
        progress = [None] * len(self.items)
        finished = [threading.Event() for _ in self.items]
        cursor = iter([index for index, spec in enumerate(self.items)
                       if spec["kind"] in kinds])
        lock = threading.Lock()

        def client():
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                spec = self.items[index]
                if spec["source"] is not None:
                    finished[spec["source"]].wait(TIMEOUT_S)
                try:
                    started = time.perf_counter()
                    seconds, ttfr, rows, done = call(self.bodies[index])
                    if spans is not None:
                        spans[0].span(spans[1], started, seconds,
                                      kind=spec["kind"], item=index)
                    item = Item(spec["kind"], seconds, ttfr, rows_digest(rows))
                    progress[index] = dict(done or {}, row_errors=sum(
                        row["errors"] for row in rows), rows=rows)
                except Exception as exc:  # counted as a failed item
                    item = Item(spec["kind"], error="%s: %s"
                                % (type(exc).__name__, exc))
                finally:
                    outcomes[index] = item
                    finished[index].set()

        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return outcomes, progress, time.perf_counter() - started

    def _check_pairs(self, outcomes, progress):
        for index, spec in enumerate(self.items):
            item = outcomes[index]
            if item.error is not None:
                continue
            done = progress[index]
            if spec["kind"] == "cold" and done["batches_cached"]:
                item.error = "cold request answered %d batches from the " \
                             "store" % done["batches_cached"]
            if spec["kind"] == "warm":
                source = outcomes[spec["source"]]
                if done["batches_simulated"] or done["batches_shared"]:
                    item.error = "warm request simulated or shared batches"
                elif item.digest != source.digest:
                    item.error = "warm rows %s != first rows %s" % (
                        item.digest, source.digest)

    def _reference(self, outcomes):
        """Re-run the first cold requests in process; rows must match."""
        checked = 0
        for index, spec in enumerate(self.items):
            if checked == REFERENCE_SAMPLE:
                break
            if spec["kind"] != "cold" or outcomes[index].error is not None:
                continue
            request = CharacterisationRequest.from_dict(self.bodies[index])
            rows = request.experiment().run(SweepExecutor("serial"))
            if rows_digest(rows) != outcomes[index].digest:
                outcomes[index].error = (
                    "HTTP rows %s != Experiment.run rows %s"
                    % (outcomes[index].digest, rows_digest(rows)))
            checked += 1

    @staticmethod
    def _counts(outcomes, progress, before, after):
        return {
            "requests": len(outcomes),
            "batches_simulated": delta(after, before, "batches", "simulated"),
            "batches_cached": delta(after, before, "batches", "cached"),
            "batches_shared": delta(after, before, "batches", "shared"),
            "batches_delivered": delta(after, before, "batches", "delivered"),
            "packets": sum(done["packets_spent"] for done in progress if done),
            "bit_errors": sum(done["row_errors"] for done in progress if done),
        }

    def _count_problems(self, counts, progress):
        cold = sum(done["batches"] for done, spec in zip(progress, self.items)
                   if done and spec["kind"] == "cold")
        warm = sum(done["batches"] for done, spec in zip(progress, self.items)
                   if done and spec["kind"] == "warm")
        problems = []
        if counts["batches_simulated"] != cold:
            problems.append("daemon simulated %d batches, cold requests "
                            "needed %d" % (counts["batches_simulated"], cold))
        if counts["batches_cached"] != warm:
            problems.append("daemon served %d cached batches, warm requests "
                            "needed %d" % (counts["batches_cached"], warm))
        if counts["batches_shared"]:
            problems.append("%d batches shared between in-flight requests"
                            % counts["batches_shared"])
        return problems

    def measure(self):
        url = self.daemon.url
        before = self.daemon.metrics()
        outcomes, progress, wall = self._closed_loop(
            lambda body: http_call(url, body))
        self._check_pairs(outcomes, progress)
        after = self.daemon.metrics()
        rss_mb = self.daemon.peak_rss_mb()
        self.daemon.stop()
        self._reference(outcomes)
        counts = self._counts(outcomes, progress, before, after)
        problems = self._count_problems(counts, progress)
        sim_bits = counts["batches_simulated"] * BATCH_PACKETS * PACKET_BITS
        return outcomes, (wall, sim_bits, rss_mb), counts, problems

    # ------------------------------------------------------------------ #
    def _in_process(self, store, recorder):
        """The list through an in-process ``Service``, phase hook on."""
        def call(body):
            request = CharacterisationRequest.from_dict(body)
            started = time.perf_counter()
            rows = service.submit(request).result(timeout=TIMEOUT_S)
            return time.perf_counter() - started, None, rows, None

        with Service(ResultStore(store)) as service:
            call(request_body(seed=0, window=0))
            previous = set_phase_hook(recorder)
            try:
                return self._closed_loop(call, spans=(recorder, "service"))
            finally:
                set_phase_hook(previous)

    @staticmethod
    def _experiment_call(store):
        def call(body):
            run = CharacterisationRequest.from_dict(body).experiment(
                store=ResultStore(store))
            started = time.perf_counter()
            rows = run.run(SweepExecutor("serial"))
            return time.perf_counter() - started, None, rows, None
        return call

    def _experiments(self, store, recorder):
        """The cold requests straight through ``Experiment.run``."""
        previous = set_phase_hook(recorder)
        try:
            return self._closed_loop(self._experiment_call(store),
                                     kinds=("cold",),
                                     spans=(recorder, "experiment.run"))
        finally:
            set_phase_hook(previous)

    def _hook_overhead(self, store):
        """Share by which the phase hook slows ``Experiment.run`` on the
        first cold requests, one caller, each run without then with it."""
        bodies = [body for spec, body in zip(self.items, self.bodies)
                  if spec["kind"] == "cold"][:OVERHEAD_SAMPLE]
        plain = self._experiment_call(store + "/plain")
        hooked = self._experiment_call(store + "/hooked")
        recorder = Recorder()
        base = traced = 0.0
        for body in bodies:
            base += plain(body)[0]
            previous = set_phase_hook(recorder)
            try:
                traced += hooked(body)[0]
            finally:
                set_phase_hook(previous)
        return (traced - base) / base

    def trace(self, recorder):
        """Replay the list layer by layer, each under the same two-client
        load: HTTP, the in-process ``Service`` with the phase hook, then
        ``Experiment.run`` with the hook on the cold requests.  A layer's
        self time is its median minus the median of the layer below on
        the same requests; the hook fires in kernel phases only, so warm
        requests carry none of its cost."""
        url = self.daemon.url
        before = self.daemon.metrics()
        http, progress, http_wall = self._closed_loop(
            lambda body: http_call(url, body), spans=(recorder, "http"))
        self._check_pairs(http, progress)
        after = self.daemon.metrics()
        self.daemon.stop()
        run_dir = self.ctx.run_dir
        hooked, _p, hooked_wall = self._in_process(run_dir + "/service-store",
                                                   recorder)
        kernel = Recorder()
        direct, direct_rows, direct_wall = self._experiments(
            run_dir + "/experiment-store", kernel)
        recorder.events.extend(kernel.events)
        recorder.spans.extend(kernel.spans)
        overhead = self._hook_overhead(run_dir + "/overhead-store")
        for label, wall in (("http", http_wall), ("service", hooked_wall),
                            ("experiment (cold only)", direct_wall)):
            self.ctx.log("layer %s: %.3f s wall" % (label, wall))

        self.trace_items = []
        for index, item in enumerate(http):
            layers = [item, hooked[index]]
            if direct[index] is not None:
                layers.append(direct[index])
            errors = [layer.error for layer in layers if layer.error]
            digests = {layer.digest for layer in layers}
            if not errors and len(digests) > 1:
                errors.append("layers disagree on rows: %s" % sorted(digests))
            self.trace_items.append(Item(item.kind, item.seconds,
                                         error="; ".join(errors) or None))

        def times(layer, kind, field="seconds"):
            return [getattr(item, field) for item in layer
                    if item is not None and item.error is None
                    and item.kind == kind]

        totals = phase_totals(kernel.events)
        cold_n = sum(1 for spec in self.items if spec["kind"] == "cold")
        requests = len(self.items)
        direct_runs = [rows for rows in direct_rows if rows is not None]
        fused = totals["fused_packets"]
        packets = fused + totals["unfused_packets"]
        prom_before, prom_after = before["prometheus"], after["prometheus"]

        def prom(family, labels):
            return sum(value - prom_before.get(key, 0.0)
                       for key, value in prom_after.items()
                       if key[0] == family and labels in key[1])

        def store_total(field):
            return sum(ns[field] for ns in after["stores"].values()) - sum(
                ns[field] for ns in before["stores"].values())

        cached = delta(after, before, "batches", "cached")
        simulated = delta(after, before, "batches", "simulated")
        direct_s = sum(times(direct, "cold"))
        extras = {
            "phy.bcjr_forward_s": totals["bcjr.forward"] / cold_n,
            "phy.bcjr_seed_s": totals["bcjr.seed"] / cold_n,
            "phy.bcjr_backward_s": totals["bcjr.backward"] / cold_n,
            "phy.decode_other_s": totals["decode_other"] / cold_n,
            "phy.transmit_s": totals["transmit"] / cold_n,
            "channel.awgn_s": totals["channel"] / cold_n,
            "phy.front_end_s": totals["front-end"] / cold_n,
            "analysis.unfused_batch_s": totals["unfused_self"] / cold_n,
            "analysis.experiment_self_s": (direct_s - totals["kernel"])
            / cold_n,
            "analysis.fused_packet_share": fused / packets if packets else 0.0,
            "analysis.fused_groups": int(totals["fused_groups"]),
            "analysis.packets_simulated": sum(
                row["packets"] for run in direct_runs for row in run["rows"]),
            "analysis.batches_simulated": sum(
                row["batches"] for run in direct_runs for row in run["rows"]),
            "store.get_s": prom("repro_store_seconds", 'op="get"') / requests,
            "store.put_s": prom("repro_store_seconds", 'op="put"') / cold_n,
            "store.hits": store_total("hits"),
            "store.misses": store_total("misses"),
            "service.broker_self_s": p50(times(hooked, "cold"))
            - p50(times(direct, "cold")),
            "service.http_self_s": p50(times(http, "warm"))
            - p50(times(hooked, "warm")),
            "service.stage_simulate_s": prom("repro_stage_seconds",
                                             'stage="simulate"') / cold_n,
            "service.stage_deliver_s": prom("repro_stage_seconds",
                                            'stage="deliver"') / requests,
            "service.batches_cached": cached,
            "service.batches_simulated": simulated,
            "service.batches_shared": delta(after, before, "batches",
                                            "shared"),
            "service.batches_delivered": delta(after, before, "batches",
                                               "delivered"),
            "service.cache_hit_ratio": cached / (cached + simulated),
            "service.rejected_429": delta(after, before, "admission",
                                          "rejected_saturated"),
            "fleet.retried": delta(after, before, "fleet", "retried"),
            "service.ttfr_p50_s": p50(times(http, "cold", "ttfr")),
            "service.cold_p90_s": p90(times(http, "cold")),
            "service.warm_p90_s": p90(times(http, "warm")),
            "obs.trace_overhead_frac": overhead,
        }
        return {}, extras, times(http, "cold")

    def close(self):
        if self.daemon is not None:
            self.daemon.stop()
