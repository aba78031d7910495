"""``cosim_fig2``: the Figure-2 co-simulation at all eight 802.11g rates.

One item is a *pass*: for each rate, ``build_cosimulation(rate,
packet_bits=1704, decoder="viterbi", snr_db=20)`` and ``run_packets`` on
two seeded payloads.  This is the paper's co-simulation-speed path: the
dataflow scheduler, FIFOs and host-link metering of ``repro.core`` and
the per-packet Viterbi receiver.  It bypasses BCJR, ``analysis``, the
store and the service.  A warm pass repeats an earlier pass's payloads
on fresh models and must reproduce its outputs and counts.
"""

import time

import numpy as np

from child import Item, digest, p50, rss_self_mb, work_list

from repro.phy.params import RATE_TABLE
from repro.system.pipelines import build_cosimulation

PACKET_BITS = 1704
PACKETS = 2
SNR_DB = 20.0
#: Passes per measured second (a pass takes about 1 s on a 2-vCPU host).
PASSES_PER_SECOND = 1.0


def run_pass(payload_seed, recorder=None):
    """One pass; returns (seconds, outputs digest, counts, layers)."""
    rng = np.random.default_rng(payload_seed)
    payloads = [[rng.integers(0, 2, PACKET_BITS, dtype=np.uint8)
                 for _ in range(PACKETS)] for _ in RATE_TABLE]
    layers = dict.fromkeys(("build", "sched_self", "hw", "sw", "viterbi"),
                           0.0)
    counts = {"payload_bits": 0, "firings": 0, "link_bytes": 0,
              "bit_errors": 0}
    decoded = []
    started = time.perf_counter()
    for rate, packets in zip(RATE_TABLE, payloads):
        t0 = time.perf_counter()
        model = build_cosimulation(rate, packet_bits=PACKET_BITS,
                                   decoder="viterbi", snr_db=SNR_DB,
                                   seed=payload_seed)
        built = time.perf_counter()
        outputs, report = model.run_packets(packets)
        errors = sum(int(np.count_nonzero(out["bits"] != sent))
                     for out, sent in zip(outputs, packets))
        if len(outputs) != len(packets):
            errors += PACKET_BITS * abs(len(packets) - len(outputs))
        if recorder is not None:
            recorder.span("cosim.build", t0, built - t0, rate=rate.name)
            recorder.span("cosim.run_packets", built, report.wall_seconds,
                          rate=rate.name)
            layers["build"] += built - t0
            layers["hw"] += report.hardware_busy_seconds
            layers["sw"] += report.software_busy_seconds
            layers["sched_self"] += (report.wall_seconds
                                     - report.hardware_busy_seconds
                                     - report.software_busy_seconds)
            decoder = model.network.modules["rx_decoder"]
            layers["viterbi"] += decoder.busy_seconds
        counts["payload_bits"] += report.payload_bits
        counts["firings"] += report.hardware_firings + report.software_firings
        counts["link_bytes"] += report.link_bytes
        counts["bit_errors"] += errors
        decoded.append([np.packbits(out["bits"]).tobytes().hex()
                        for out in outputs])
    seconds = time.perf_counter() - started
    return seconds, digest([decoded, counts]), counts, layers


class Workload:

    def __init__(self, ctx):
        self.ctx = ctx
        count = max(4, round(PASSES_PER_SECOND * ctx.seconds))
        self.items = work_list(ctx.name, ctx.seed, count,
                               lambda rng, _i: rng.randrange(1, 2 ** 31))
        self.trace_items = []

    def setup(self):
        run_pass(0)

    def _item(self, spec, result, earlier):
        """The pass's outcome: no bit errors, and a warm pass must decode
        exactly like its source."""
        seconds, out_digest, counts, _layers = result
        item = Item(spec["kind"], seconds, digest=out_digest)
        if counts["bit_errors"]:
            item.error = "%d bit errors at %.0f dB" % (counts["bit_errors"],
                                                       SNR_DB)
        elif spec["source"] is not None and \
                item.digest != earlier[spec["source"]].digest:
            item.error = "repeat of pass %d decoded differently" % (
                spec["source"])
        return item

    def measure(self):
        items = []
        counts = {"passes": len(self.items), "payload_bits": 0, "firings": 0,
                  "link_bytes": 0, "bit_errors": 0}
        started = time.perf_counter()
        for spec in self.items:
            result = run_pass(spec["params"])
            items.append(self._item(spec, result, items))
            for key, value in result[2].items():
                counts[key] += value
        wall = time.perf_counter() - started
        return (items, (wall, counts["payload_bits"], rss_self_mb()), counts,
                [])

    def trace(self, recorder):
        """Each pass runs untraced, then traced, so host drift between the
        two cancels.  A layer's value is its median per pass."""
        untraced, traced, per_pass = [], [], []
        firings = link_bytes = 0
        for spec in self.items:
            untraced.append(self._item(spec, run_pass(spec["params"]),
                                       untraced))
            result = run_pass(spec["params"], recorder)
            traced.append(self._item(spec, result, traced))
            per_pass.append(result[3])
            firings += result[2]["firings"]
            link_bytes += result[2]["link_bytes"]
        self.trace_items = [plain if plain.error else hooked
                            for plain, hooked in zip(untraced, traced)]
        base_s = sum(item.seconds for item in untraced)
        run_s = sum(item.seconds for item in traced)

        def median(layer):
            return p50([layers[layer] for layers in per_pass])

        self_times = {
            "core.build_s": median("build"),
            "core.scheduler_self_s": median("sched_self"),
            "core.hw_busy_s": median("hw"),
            "core.sw_busy_s": median("sw"),
        }
        extras = {
            "phy.viterbi_decode_s": median("viterbi"),
            "core.firings": firings,
            "core.link_bytes": link_bytes,
            "obs.trace_overhead_frac": (run_s - base_s) / base_s,
        }
        return self_times, extras, [item.seconds for item in untraced]

    def close(self):
        pass
