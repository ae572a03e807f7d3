"""Self-test of the correctness checks: one dropped spike must count as failed.

Run from the root of a source checkout::

    python3 ttsbench/selftest.py

It runs a short ``recurrent`` measurement whose engines each drop one
output spike, and a short ``serve`` measurement whose engine drops one
spike of one session, through the benchmark's own code paths.  Exit code
0 means every faulty job, and exactly the one faulty session, were
counted as failed.
"""

from __future__ import annotations

import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))


def drop_one_spike(step_arrays, *, after_pass: int = 0):
    """Wrap an engine's ``step_arrays`` so it loses one spike, once."""
    state = {"passes": 0, "dropped": False}

    def faulty():
        out = step_arrays()
        state["passes"] += 1
        if not state["dropped"] and state["passes"] > after_pass and out[-1].size:
            state["dropped"] = True
            return tuple(a[1:] if isinstance(a, np.ndarray) else a for a in out)
        return out

    return faulty


def check_library() -> bool:
    import library

    real = library.select_engine

    def faulty_select(*args, **kwargs):
        sim = real(*args, **kwargs)
        sim.step_arrays = drop_one_spike(sim.step_arrays)
        return sim

    library.select_engine = faulty_select
    try:
        res = library.run("recurrent", seed=1, seconds=1.0, trace=False)
    finally:
        library.select_engine = real
    print(f"recurrent, one spike dropped per job: attempted={res.attempted} "
          f"failed={res.failed}")
    return res.attempted >= 1 and res.failed == res.attempted


def check_serve() -> bool:
    import serve

    real = serve.ModelServer

    class FaultyServer(real):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.engine.step_arrays = drop_one_spike(self.engine.step_arrays, after_pass=50)

    serve.ModelServer = FaultyServer
    try:
        res = serve.run(seed=1, seconds=2.0, trace=False)
    finally:
        serve.ModelServer = real
    print(f"serve, one spike dropped in one pass: attempted={res.attempted} "
          f"failed={res.failed}")
    return res.attempted > 1 and res.failed == 1


def main() -> int:
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("selftest: run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    ok = check_library() & check_serve()
    print("selftest: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
