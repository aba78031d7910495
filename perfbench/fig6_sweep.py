"""``fig6_sweep``: Figure-6 BER curves through ``Experiment.run``.

One caller in a closed loop runs whole curves at the paper's Figure-6
operating point (24 Mb/s QAM16 1/2, BCJR, 1704-bit packets, 4-9 dB)
through the serial executor with no store.  The run is bound by the
BCJR kernel and touches no store, broker or HTTP code, so it is the
bypass workload for those layers.  A warm item repeats an earlier item;
with no store it is simulated again and must reproduce the same rows.

An item is a pair of curves with independent seeds.  A single curve's
cost is bimodal (the 9 dB point either converges or runs to
``max_packets``), so a median over single curves flips between the two
modes from one seed to the next; the cost of a pair is unimodal enough
for its median to hold still.
"""

import time

from child import (Item, digest, p50, phase_totals, rows_digest, rss_self_mb,
                   work_list)

from repro.analysis import Experiment, Scenario, StopRule, SweepSpec
from repro.analysis.sweep import SweepExecutor
from repro.obs.phases import set_phase_hook

SNRS = [4.0, 5.0, 6.0, 7.0, 8.0, 9.0]
STOP = StopRule(rel_half_width=0.25, min_errors=30, ber_floor=1e-4,
                max_packets=96)
PACKET_BITS = 1704
#: Curves per measured second, sized so a run takes about ``--seconds``
#: on a 2-vCPU host; the list stays fixed for a given seed and length.
CURVES_PER_SECOND = 3.2
CURVES_PER_ITEM = 2


def run_curve(curve_seed):
    experiment = Experiment(
        scenario=Scenario(decoder="bcjr", packet_bits=PACKET_BITS),
        sweep=SweepSpec({"rate_mbps": [24], "snr_db": SNRS}, seed=curve_seed),
        stop=STOP, batch_packets=8)
    return experiment.run(SweepExecutor("serial"))


class Workload:

    def __init__(self, ctx):
        self.ctx = ctx
        count = max(4, round(CURVES_PER_SECOND * ctx.seconds
                             / CURVES_PER_ITEM))
        self.items = work_list(
            ctx.name, ctx.seed, count,
            lambda rng, _i: [rng.randrange(1, 2 ** 31)
                             for _ in range(CURVES_PER_ITEM)])
        self.trace_items = []

    def setup(self):
        run_curve(0)

    @staticmethod
    def _run_item(spec, recorder=None):
        """One item; returns (seconds, rows per curve)."""
        started = time.perf_counter()
        rows = []
        for curve_seed in spec["params"]:
            curve_t0 = time.perf_counter()
            rows.append(run_curve(curve_seed))
            if recorder is not None:
                recorder.span("experiment.run", curve_t0,
                              time.perf_counter() - curve_t0,
                              kind=spec["kind"])
        return time.perf_counter() - started, rows

    @staticmethod
    def _item(spec, seconds, rows, earlier):
        """The item's outcome; a warm one must repeat its source's rows."""
        item = Item(spec["kind"], seconds,
                    digest=digest([rows_digest(curve) for curve in rows]))
        if spec["source"] is not None:
            source = earlier[spec["source"]]
            if item.digest != source.digest:
                item.error = ("repeat of item %d gave rows %s, first run "
                              "gave %s" % (spec["source"], item.digest,
                                           source.digest))
        return item

    def _pass(self):
        """Run the work list once; returns (items, rows per curve per
        item, wall)."""
        outcomes = []
        all_rows = []
        started = time.perf_counter()
        for spec in self.items:
            seconds, rows = self._run_item(spec)
            outcomes.append(self._item(spec, seconds, rows, outcomes))
            all_rows.append(rows)
        return outcomes, all_rows, time.perf_counter() - started

    @staticmethod
    def _counts(items, all_rows):
        rows = [row for item in all_rows for curve in item for row in curve]
        return {
            "curves": len(items) * CURVES_PER_ITEM,
            "packets": sum(row["packets"] for row in rows),
            "batches": sum(row["batches"] for row in rows),
            "bit_errors": sum(row["errors"] for row in rows),
        }

    def measure(self):
        items, all_rows, wall = self._pass()
        counts = self._counts(items, all_rows)
        sim_bits = counts["packets"] * PACKET_BITS
        return items, (wall, sim_bits, rss_self_mb()), counts, []

    def trace(self, recorder):
        """Each item runs untraced, then traced with the phase hook, so
        host drift between the two cancels.  A layer's value is its
        median self time per item."""
        untraced, traced, all_rows, per_item = [], [], [], []
        for spec in self.items:
            seconds, rows = self._run_item(spec)
            untraced.append(self._item(spec, seconds, rows, untraced))
            first = len(recorder.events)
            previous = set_phase_hook(recorder)
            try:
                seconds, rows = self._run_item(spec, recorder)
            finally:
                set_phase_hook(previous)
            traced.append(self._item(spec, seconds, rows, traced))
            all_rows.append(rows)
            totals = phase_totals(recorder.events[first:])
            per_item.append({
                "phy.bcjr_forward_s": totals["bcjr.forward"],
                "phy.bcjr_seed_s": totals["bcjr.seed"],
                "phy.bcjr_backward_s": totals["bcjr.backward"],
                "phy.decode_other_s": totals["decode_other"],
                "phy.transmit_s": totals["transmit"],
                "channel.awgn_s": totals["channel"],
                "phy.front_end_s": totals["front-end"],
                "analysis.unfused_batch_s": totals["unfused_self"],
                "analysis.experiment_self_s": seconds - totals["kernel"],
            })
        self.trace_items = [plain if plain.error else hooked
                            for plain, hooked in zip(untraced, traced)]
        counts = self._counts(traced, all_rows)
        totals = phase_totals(recorder.events)
        packets = totals["fused_packets"] + totals["unfused_packets"]
        base_s = sum(item.seconds for item in untraced)
        run_s = sum(item.seconds for item in traced)
        layers = {name: p50([item[name] for item in per_item])
                  for name in per_item[0]}
        return layers, {
            "analysis.fused_packet_share": (
                totals["fused_packets"] / packets if packets else 0.0),
            "analysis.fused_groups": int(totals["fused_groups"]),
            "analysis.packets_simulated": counts["packets"],
            "analysis.batches_simulated": counts["batches"],
            "obs.trace_overhead_frac": (run_s - base_s) / base_s,
        }, [item.seconds for item in untraced]

    def close(self):
        pass
