"""One run's outcome: counts, end-to-end and per-layer metrics, report text."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from harness import (
    block_factors, correlation, median, pct, quantile_slowdown, slowdown,
)

#: End-to-end metrics, in print order, with their units.
END_TO_END = {
    "ticks_per_s": "1/s",
    "solution_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics every traced run prints (0 where a layer is not used).
#: The first three are end-to-end in kind but sit here because their
#: run-to-run spread was too wide for a regression bound: under heavy
#: host contention the shape of the tick- and job-time distributions
#: changes, which no reference tracks (see ttsbench/README.md).
PER_LAYER = {
    "tick_ms_p50": "ms",
    "tick_ms_p99": "ms",
    "solution_ms_p95": "ms",
    "compile.s": "s",
    "compile.synapses": "count",
    "engine.select_s": "s",
    "engine.workers": "count",
    "engine.gated": "bool",
    "stage.s": "s",
    "stage.events": "count",
    "tick.deliver_us": "us",
    "tick.integrate_us": "us",
    "tick.update_us": "us",
    "tick.route_us": "us",
    "tick.other_us": "us",
    "tick.spikes": "count",
    "tick.syn_events": "count",
    "tick.messages": "count",
    "gate.active_frac": "frac",
    "parallel.wait_us": "us",
    "record.s": "s",
    "serve.demux_us": "us",
    "serve.queue_wait_ms_p50": "ms",
    "serve.occupancy": "frac",
    "serve.pass_ms_plain_p50": "ms",
    "serve.pass_ms_admit_p50": "ms",
    "ckpt.snapshot_ms": "ms",
    "ckpt.restore_ms": "ms",
    "ckpt.save_ms": "ms",
    "ckpt.load_ms": "ms",
    "ckpt.bytes": "bytes",
    "obs.overhead_frac": "frac",
    "obs.flight_rtf": "ratio",
    "tick.over_budget_frac": "frac",
    "selfcheck.flight_gap_frac": "frac",
    "selfcheck.ok": "bool",
    "ref.corr": "ratio",
}

_ENGINES = {
    "FastCompassSimulator": "fast",
    "ParallelCompassSimulator": "parallel",
    "BatchedCompassSimulator": "batched",
}


def decision_of(sim) -> dict:
    """The engine, worker count and gating that ``auto`` settled on."""
    return {
        "engine": _ENGINES.get(type(sim).__name__, type(sim).__name__),
        "workers": int(getattr(sim, "n_workers", 1)),
        "gated": bool(sim.gated),
    }


@dataclass
class Result:
    """Everything one run measured and checked."""

    workload: str
    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)
    decision: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)  # name -> normalised value
    raw: dict = field(default_factory=dict)  # name -> raw host value
    samples: dict = field(default_factory=dict)  # name -> sample count
    layers: dict = field(default_factory=dict)  # name -> (value, unit)
    ref_corr: dict = field(default_factory=dict)
    ref_share: float = 0.0
    notes: list = field(default_factory=list)

    def add_end_to_end(self, *, ref, mixes, ticks, busy_ns, tick_ns, solution_ns,
                       solution_block, setup_raw, setup_factors, peak_rss_mb,
                       reference=None) -> None:
        """Fill every end-to-end metric from per-block measurements.

        *ref* holds the reference component times measured after each
        block; *mixes* names, per metric group (``throughput``, ``tick``,
        ``tick_tail``, ``solution``), the component mix whose speed that
        group's work follows.  *ticks*, *busy_ns* and *tick_ns* are per
        block; solution times carry the index of the block they finished
        in.  With *reference* given, tick percentiles are normalised by
        the same percentile of its tick-sized pieces instead
        (:func:`harness.quantile_slowdown`).  Raw values are kept beside
        the normalised ones for the report.
        """
        fac = {g: block_factors(ref, mixes[g])
               for g in ("throughput", "tick", "tick_tail", "solution")}
        busy = np.asarray(busy_ns, dtype=np.float64)
        n_ticks = float(np.sum(ticks))
        ticks_raw = np.concatenate([np.asarray(t, dtype=np.float64) for t in tick_ns])

        def scaled(group):
            return np.concatenate([np.asarray(t, dtype=np.float64) * f
                                   for t, f in zip(tick_ns, fac[group])])

        sol = np.asarray(solution_ns, dtype=np.float64)
        sol_norm = sol * fac["solution"][np.asarray(solution_block, dtype=np.int64)]
        self.metrics["ticks_per_s"] = n_ticks / (np.sum(busy * fac["throughput"]) * 1e-9)
        self.raw["ticks_per_s"] = n_ticks / (np.sum(busy) * 1e-9)
        for q, name, group in ((50, "tick_ms_p50", "tick"), (99, "tick_ms_p99", "tick_tail")):
            if reference is None:
                value = pct(scaled(group), q) * 1e-6
            else:
                value = pct(ticks_raw, q) * 1e-6 / quantile_slowdown(reference, mixes[group], q)
            self.layers[name] = (value, "ms")
        self.metrics["solution_ms_p50"] = pct(sol_norm, 50) * 1e-6
        self.raw["solution_ms_p50"] = pct(sol, 50) * 1e-6
        self.layers["solution_ms_p95"] = (pct(sol_norm, 95) * 1e-6, "ms")
        self.metrics["setup_s"] = median([r * f for r, f in zip(setup_raw, setup_factors)])
        self.raw["setup_s"] = median(setup_raw)
        self.metrics["peak_rss_mb"] = self.raw["peak_rss_mb"] = peak_rss_mb
        self.samples.update(
            ticks_per_s=int(n_ticks), solution_ms_p50=sol.size,
            setup_s=len(setup_raw), peak_rss_mb=1,
        )
        comp = {g: [slowdown(r, mixes[g]) for r in ref] for g in ("throughput", "tick")}
        self.ref_corr = {
            "throughput": correlation(list(busy), comp["throughput"]),
            "tick": correlation([float(np.median(t)) for t in tick_ns], comp["tick"]),
        }
        self.ref_share = sum(sum(r.values()) for r in ref) / max(
            1.0, sum(sum(r.values()) for r in ref) + float(np.sum(busy)))

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())

    def report_lines(self, trace: bool) -> list[str]:
        """Human-readable report printed above the JSON result line."""
        d = self.decision
        lines = [
            f"decision: workload={self.workload} engine={d.get('engine')} "
            f"workers={d.get('workers')} gated={int(bool(d.get('gated')))}",
            "reference: " + " ".join(f"corr_{k}={v:.3f}" for k, v in self.ref_corr.items())
            + f" share={self.ref_share:.3f}",
            "checks: " + " ".join(f"{k}={'ok' if v else 'FAIL'}"
                                  for k, v in self.checks.items()),
            f"attempted={self.attempted} failed={self.failed}",
        ]
        if not trace:
            lines.append(f"{'metric':<18}{'normalised':>14}{'raw':>14}  unit   samples")
            for name, unit in END_TO_END.items():
                lines.append(
                    f"{name:<18}{self.metrics[name]:>14.6g}{self.raw[name]:>14.6g}"
                    f"  {unit:<6} {self.samples.get(name, 0)}"
                )
        else:
            for name, unit in PER_LAYER.items():
                value = self.layers.get(name, (0, unit))[0]
                lines.append(f"{name:<28}{value:>16.6g}  {unit}")
        lines.extend(self.notes)
        return lines

    def json_metrics(self, trace: bool) -> dict:
        """The ``metrics`` object of the result line."""
        if trace:
            return {
                name: {"value": float(self.layers.get(name, (0, unit))[0]), "unit": unit}
                for name, unit in PER_LAYER.items()
            }
        return {
            name: {"value": float(self.metrics[name]), "unit": unit}
            for name, unit in END_TO_END.items()
        }


def event_counts(m: dict, expected, served) -> None:
    """Per-tick event counts and the useful share of neuron updates.

    *expected* are the oracle runs' counters, so the counts repeat
    exactly for a seed; *served* are the measured engine's counters,
    whose ``active_neuron_updates`` show what the activity gate skipped.
    """
    n_ticks = sum(c.ticks for c in expected)
    m["tick.spikes"] = (sum(c.spikes for c in expected) / n_ticks, "count")
    m["tick.syn_events"] = (sum(c.synaptic_events for c in expected) / n_ticks, "count")
    m["tick.messages"] = (sum(c.messages for c in expected) / n_ticks, "count")
    m["gate.active_frac"] = (
        sum(c.active_neuron_updates for c in served)
        / max(1, sum(c.neuron_updates for c in served)), "frac",
    )


def phase_layer_metrics(res: Result, rows: np.ndarray, traced_ticks: np.ndarray,
                        plain_ticks: np.ndarray, *, step_is_pass: bool) -> None:
    """Tick-phase, observer and self-check metrics from traced steps.

    *rows* holds one traced step per row: ``(factor, bench step ns,
    flight wall ns, deliver, integrate, update, route, parallel wait)``.
    The phases are the flight recorder's (or the busiest parallel
    worker's) and are what the live telemetry shows; the self-check
    holds them against the benchmark's own timing of the same steps.
    """
    m = res.layers
    f = rows[:, 0]
    step, wall = rows[:, 1], rows[:, 2]
    phase_sum = rows[:, 3:7].sum(axis=1)
    for col, name in zip(range(3, 7), ("deliver", "integrate", "update", "route")):
        m[f"tick.{name}_us"] = (float(np.mean(rows[:, col] * f)) * 1e-3, "us")
    m["parallel.wait_us"] = (float(np.mean(rows[:, 7] * f)) * 1e-3, "us")
    other = step - phase_sum - rows[:, 7]
    if step_is_pass:
        other = wall - phase_sum  # step() also demuxes; that is serve.demux_us
    m["tick.other_us"] = (float(np.mean(other * f)) * 1e-3, "us")
    overhead = float(np.median(traced_ticks) / np.median(plain_ticks) - 1.0)
    m["obs.overhead_frac"] = (overhead, "frac")
    flight_rtf = 1e6 / float(np.mean(wall))
    m["obs.flight_rtf"] = (flight_rtf, "ratio")
    m["tick.over_budget_frac"] = (float(np.mean(wall > 1e6)), "frac")
    m["ref.corr"] = (res.ref_corr.get("tick", 0.0), "ratio")

    bench_rtf = 1e6 / float(np.mean(step))
    gap = 1.0 - float(np.mean(wall)) / float(np.mean(step))
    m["selfcheck.flight_gap_frac"] = (gap, "frac")
    fits = float(np.mean(phase_sum)) <= float(np.mean(wall)) * 1.02
    within = step_is_pass or gap <= max(overhead, 0.0) + 0.05
    ok = fits and within and gap >= -0.02
    m["selfcheck.ok"] = (int(ok), "bool")
    res.notes.append(
        f"selfcheck: {'agree' if ok else 'DISAGREE'} "
        f"phase_sum_us={np.mean(phase_sum) * 1e-3:.2f} "
        f"flight_wall_us={np.mean(wall) * 1e-3:.2f} bench_step_us={np.mean(step) * 1e-3:.2f} "
        f"flight_rtf={flight_rtf:.4g} bench_rtf={bench_rtf:.4g} "
        f"gap={gap:.4f} tracing_overhead={overhead:.4f}"
        + (" (serve: step() also demuxes and admits, so only phase_sum <= wall <= step is held)"
           if step_is_pass else "")
    )
