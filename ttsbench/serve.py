"""Serving workload: a closed loop of clients against one ModelServer.

32 clients (twice the 16 lanes) each keep one video-clip request in
flight and send the next as soon as theirs completes, so a queue always
waits for lanes.  The loop is closed rather than open because the host's
speed drifts by up to 1.3x: an open-loop rate sweep would move its
saturation point between runs.  Every ``PREEMPT_EVERY`` passes the
oldest active session is preempted (its lane checkpoint is kept in
memory) and later resumes where it stopped.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

from repro.apps.haar import build_haar_pipeline
from repro.apps.transduction import TICKS_PER_FRAME_30FPS, transduce_video
from repro.compass import compile_network
from repro.compass.fast import staged_inputs
from repro.core.network import Network
from repro.core.record import SpikeRecord
from repro.io.checkpoint import EngineCheckpoint
from repro.obs import Observer
from repro.runtime.serving import ModelServer

from harness import PssMeter, Reference, block_factors, now, timed_setups
from oracle import compass_prefix_ok, digest, oracle_run
from result import Result, decision_of, event_counts, phase_layer_metrics

N_LANES = 16
N_CLIENTS = 32
FRAMES = (2, 3, 4, 5, 6)  # clip lengths; the pool holds each equally often
CLIPS_PER_LENGTH = 5
PREEMPT_EVERY = 64  # passes
CKPT_EVERY = 97  # passes between traced checkpoint measurements
BLOCK_NS = 100_000_000
#: Share of a traced run spent on the observer-free server.
BARE_SHARE = 0.3
SETUP_REPS = 16
#: ModelServer keeps every completed session (inputs and record), so its
#: memory grows with sessions served.  Memory is sampled until this many
#: sessions have completed, which makes it a figure per amount of work
#: rather than per second of a host whose speed drifts.
MEMORY_SESSIONS = 256
#: Shares of a serving pass's time by shape of work: about a third is
#: the Python staging loop at admission and a tenth record assembly.
SERVE_MIX = {"numpy": 0.57, "python": 0.33, "sort": 0.10}
#: Reference mix per metric group.  A plain pass is mostly the numpy
#: kernel; the p99 pass falls among admission passes, which staging
#: (a Python loop) dominates.
MIXES = {
    "throughput": SERVE_MIX, "solution": SERVE_MIX, "setup": {"numpy": 1.0},
    "tick": {"numpy": 1.0}, "tick_tail": {"python": 1.0},
}
#: Scratch directory (inside the checkout) for the traced checkpoint files.
SCRATCH = ".ttsbench_tmp"


@dataclass
class Clip:
    """One request: a rate-coded clip, its tick count and session seed."""

    schedule: object
    n_ticks: int
    seed: int


def make_clips(seed: int, pins) -> list[Clip]:
    """A seeded pool of 2-6 frame clips rate-coded at 30 fps.

    Every seed gets the same number of clips of each length, so the
    seed changes what the clips show but not how long sessions are.
    """
    rng = np.random.default_rng([seed, 16])
    clips = []
    for n_frames in FRAMES * CLIPS_PER_LENGTH:
        frames = rng.random((n_frames, 16, 16)) ** 2
        schedule = transduce_video(frames, pins, seed=int(rng.integers(1 << 30)))
        clips.append(Clip(schedule, n_frames * TICKS_PER_FRAME_30FPS,
                          int(rng.integers(1, 1 << 30))))
    return clips


@dataclass
class Block:
    """What one ~0.1 s block of serving measured (raw ns)."""

    busy_ns: int = 0
    lane_ticks: int = 0
    pass_ns: list = field(default_factory=list)
    admit: list = field(default_factory=list)  # did the pass admit sessions?
    occupancy: list = field(default_factory=list)
    latency_ns: list = field(default_factory=list)
    wait_ns: list = field(default_factory=list)
    flight: np.ndarray | None = None  # the observer's rows for these passes


class ServeLoop:
    """Closed-loop clients driving one server, checked session by session."""

    def __init__(self, server: ModelServer, clips, oracles, seed: int, res: Result,
                 layers: dict | None = None) -> None:
        self.server = server
        self.clips = clips
        self.oracles = oracles
        self.res = res
        self.layers = layers  # per-layer samples when traced, else None
        self.rng = np.random.default_rng([seed, 32])
        self.inflight: list = []
        self.passes = 0
        self.flight_seen = 0
        for _ in range(N_CLIENTS):
            self._submit()

    def _submit(self) -> int:
        k = int(self.rng.integers(len(self.clips)))
        clip = self.clips[k]
        if self.layers is not None:
            copy = dataclasses.replace(clip.schedule)
            t = now()
            staged_inputs(self.server.engine.compiled, copy)
            self.layers["stage"].append(now() - t)
            self.layers["events"].append(clip.schedule.n_events)
        t = now()
        session = self.server.submit(
            dataclasses.replace(clip.schedule), clip.n_ticks, seed=clip.seed
        )
        elapsed = now() - t
        self.inflight.append((session, k))
        return elapsed

    def _preempt_oldest(self) -> int:
        active = [s for s, _ in self.inflight if s.lane is not None and not s.done]
        oldest = min(active, key=lambda s: s.admitted_ns)
        t = now()
        self.server.preempt(oldest.session_id)
        return now() - t

    def _checkpoint_probe(self) -> None:
        """Time lane snapshot/restore and checkpoint save/load (traced only).

        The lane is restored from its own fresh snapshot, which leaves
        its session's state unchanged; the session checks confirm it.
        """
        engine = self.server.engine
        lane = next(s.lane for s, _ in self.inflight if s.lane is not None and not s.done)
        t0 = now()
        ckpt = engine.snapshot_lane(lane)
        t1 = now()
        engine.restore_lane(lane, ckpt)
        t2 = now()
        path = os.path.join(SCRATCH, "lane.npz")
        n_bytes = ckpt.save(path)
        t3 = now()
        EngineCheckpoint.load(path, engine.network)
        t4 = now()
        for key, value in (("snapshot", t1 - t0), ("restore", t2 - t1),
                           ("save", t3 - t2), ("load", t4 - t3), ("bytes", n_bytes)):
            self.layers[key].append(value)

    def block(self, pss: PssMeter | None) -> Block:
        """Serve passes for ~0.1 s; check and replace finished sessions."""
        b = Block()
        server = self.server
        end = now() + BLOCK_NS
        while now() < end:
            if self.passes and self.passes % PREEMPT_EVERY == 0:
                b.busy_ns += self._preempt_oldest()
            if self.layers is not None and self.passes % CKPT_EVERY == CKPT_EVERY - 1:
                self._checkpoint_probe()
            occupancy = server.occupancy
            t = now()
            n_done = server.step()
            elapsed = now() - t
            self.passes += 1
            b.busy_ns += elapsed
            b.lane_ticks += round(occupancy * N_LANES)
            b.pass_ns.append(elapsed)
            b.admit.append(n_done > 0)
            b.occupancy.append(occupancy)
            if n_done:
                for session in self._collect():
                    b.latency_ns.append(session.finalized_ns - session.submitted_ns)
                    b.wait_ns.append(session.admitted_ns - session.submitted_ns)
                    b.busy_ns += self._submit()  # the client sends its next clip
        if pss is not None:
            pss.sample()
        obs = server.obs
        if self.layers is not None and obs is not None:
            new = obs.flight.recorded - self.flight_seen
            self.flight_seen = obs.flight.recorded
            b.flight = obs.flight.rows(last=new)
        return b

    def _collect(self) -> list:
        """Check and return every finished session."""
        still, finished = [], []
        for session, k in self.inflight:
            if session.done:
                finished.append(session)
                self.res.attempted += 1
                if digest(session.record) != self.oracles[k]:
                    self.res.failed += 1
                if self.layers is not None:
                    rec = session.record
                    t = now()
                    SpikeRecord.from_arrays(rec.ticks, rec.cores, rec.neurons, rec.counters)
                    self.layers["record"].append(now() - t)
                    self.layers["counters"].append(rec.counters)
            else:
                still.append((session, k))
        self.inflight = still
        return finished


def run(seed: int, seconds: float, trace: bool) -> Result:
    """Measure the serving workload for *seconds*; return its result."""
    ref = Reference(("numpy", "python", "sort"))
    pss = PssMeter()
    res = Result(workload="serve")
    try:
        _measure(seed, seconds, trace, ref, pss, res)
    finally:
        ref.close()
    return res


def _measure(seed, seconds, trace, ref, pss, res) -> None:
    splits: list[dict] = []

    def build():
        return build_haar_pipeline(16, 16, 4)

    def setup(pipeline):
        t0 = now()
        compiled = compile_network(pipeline.compiled.network)
        t1 = now()
        server = ModelServer(compiled, N_LANES, obs=Observer())
        t2 = now()
        splits.append({"compile": t1 - t0, "select": t2 - t1})
        return (pipeline, server), server.close

    setup_raw, setup_factors, (pipeline, server) = timed_setups(
        build, setup, ref, MIXES["setup"], SETUP_REPS
    )
    res.decision = decision_of(server.engine)
    net = pipeline.compiled.network
    clips = make_clips(seed, pipeline.pixel_pins)

    # Oracles (untimed): each clip run standalone at its session seed on
    # the dense sparse path; one clip's prefix on the scalar expression.
    expected = [
        oracle_run(Network(cores=net.cores, seed=clip.seed, name=net.name),
                   clip.n_ticks, clip.schedule)
        for clip in clips
    ]
    oracles = [digest(r) for r in expected]
    first = compile_network(Network(cores=net.cores, seed=clips[0].seed, name=net.name))
    res.checks["compass_prefix"] = compass_prefix_ok(first, clips[0].schedule)

    layers, bare_blocks, bare_refs = None, [], []
    if trace:
        layers = {k: [] for k in ("stage", "events", "record", "counters", "snapshot",
                                  "restore", "save", "load", "bytes")}
        os.makedirs(SCRATCH, exist_ok=True)
        # What the observer costs: a first phase serves the same requests
        # on an observer-free server.  Phases run one after the other, not
        # interleaved, so no session's latency includes the other's time.
        bare = ServeLoop(ModelServer(server.engine.compiled, N_LANES), clips,
                         oracles, seed, res)
        bare_blocks, bare_refs = _phase(bare, ref, seconds * BARE_SHARE, None)
        seconds -= seconds * BARE_SHARE
    main = ServeLoop(server, clips, oracles, seed, res, layers)
    blocks, refs = _phase(main, ref, seconds, pss)
    server.close()

    res.add_end_to_end(
        ref=refs, mixes=MIXES,
        ticks=[b.lane_ticks for b in blocks],
        busy_ns=[b.busy_ns for b in blocks],
        tick_ns=[b.pass_ns for b in blocks],
        solution_ns=[x for b in blocks for x in b.latency_ns],
        solution_block=[i for i, b in enumerate(blocks) for _ in b.latency_ns],
        setup_raw=setup_raw, setup_factors=setup_factors,
        peak_rss_mb=pss.peak_mb,
    )
    admit_share = float(np.mean([a for b in blocks for a in b.admit]))
    res.notes.append(f"serve: passes={sum(len(b.pass_ns) for b in blocks)} "
                     f"admit_share={admit_share:.3f} preempt_every={PREEMPT_EVERY}")
    if trace:
        _serve_layers(res, blocks, bare_blocks, refs, bare_refs, layers, splits,
                      setup_factors, [r.counters for r in expected],
                      int(server.engine.compiled.weight_matrix.nnz))
        shutil.rmtree(SCRATCH, ignore_errors=True)


def _phase(loop: ServeLoop, ref: Reference, seconds: float, pss: PssMeter | None):
    """Serve for *seconds* after three unmeasured warm-up blocks.

    Returns the blocks and the reference times measured after each.
    Memory is sampled until ``MEMORY_SESSIONS`` sessions have finished.
    """
    for _ in range(3):
        loop.block(None)
    blocks, refs = [], []
    deadline = now() + int(seconds * 1e9)
    while now() < deadline:
        sample = pss if loop.res.attempted < MEMORY_SESSIONS else None
        blocks.append(loop.block(sample))
        refs.append(ref.time_ns())
    return blocks, refs


def med(values) -> float:
    """Median, or 0.0 for a layer that recorded nothing."""
    return float(np.median(values)) if len(values) else 0.0


def _serve_layers(res, blocks, bare_blocks, refs, bare_refs, layers, splits,
                  scale, counters, synapses) -> None:
    """Per-layer metrics of the serving workload."""
    m = res.layers
    factors = block_factors(refs, MIXES["throughput"])
    tick_factors = block_factors(refs, MIXES["tick"])
    kept = splits[1:]
    fmean = float(np.mean(factors))
    bare_factors = block_factors(bare_refs, MIXES["tick"])
    m["compile.s"] = (med([s["compile"] * f for s, f in zip(kept, scale)]) * 1e-9, "s")
    m["compile.synapses"] = (synapses, "count")
    m["engine.select_s"] = (med([s["select"] * f for s, f in zip(kept, scale)]) * 1e-9, "s")
    m["engine.workers"] = (res.decision["workers"], "count")
    m["engine.gated"] = (int(res.decision["gated"]), "bool")
    m["stage.s"] = (med(layers["stage"]) * fmean * 1e-9, "s")
    m["stage.events"] = (float(np.mean(layers["events"])), "count")
    m["record.s"] = (med(layers["record"]) * fmean * 1e-9, "s")
    event_counts(m, counters, layers["counters"])
    for key in ("snapshot", "restore", "save", "load"):
        m[f"ckpt.{key}_ms"] = (med(layers[key]) * fmean * 1e-6, "ms")
    m["ckpt.bytes"] = (med(layers["bytes"]), "bytes")

    plain = [(p * f, adm) for b, f in zip(blocks, tick_factors)
             for p, adm in zip(b.pass_ns, b.admit)]
    m["serve.pass_ms_plain_p50"] = (med([p for p, a in plain if not a]) * 1e-6, "ms")
    m["serve.pass_ms_admit_p50"] = (med([p for p, a in plain if a]) * 1e-6, "ms")
    m["serve.occupancy"] = (float(np.mean([o for b in blocks for o in b.occupancy])), "frac")
    m["serve.queue_wait_ms_p50"] = (
        med([w * f for b, f in zip(blocks, factors) for w in b.wait_ns]) * 1e-6, "ms")

    rows, demux = [], []
    for b, f in zip(blocks, tick_factors):
        for step, adm, row in zip(b.pass_ns, b.admit, b.flight):
            rows.append((f, step, row[1], row[6], row[7], row[8], row[9], 0.0))
            if not adm:
                demux.append((step - row[1]) * f)
    m["serve.demux_us"] = (float(np.mean(demux)) * 1e-3, "us")
    traced = np.concatenate([np.asarray(b.pass_ns) * f for b, f in zip(blocks, tick_factors)])
    bare = np.concatenate([np.asarray(b.pass_ns) * f for b, f in zip(bare_blocks, bare_factors)])
    phase_layer_metrics(res, np.asarray(rows, dtype=np.float64), traced, bare,
                        step_is_pass=True)

