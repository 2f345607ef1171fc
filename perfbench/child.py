"""One benchmark invocation in a fresh interpreter: import nlaphase.cli, call main(argv).

    python3 perfbench/child.py plain [PROBE] -- ARGV...
    python3 perfbench/child.py traced [TRACE_FILE] -- ARGV...

With `plain` and PROBE (keys of PROBES joined by `+`), a SpeedProbe samples the
speed of the CPU during the call.  With `traced` every binding in layers.BINDINGS is
wrapped before the call; the span statistics come back with the result and
TRACE_FILE, if given, receives the spans kept whole.  The last stdout line is
one JSON object: import time, call time, probe time, exit code, peak RSS, the
versions and backend in use, and the path nlaphase was imported from.  Run it
from the checkout root with `src` on PYTHONPATH.
"""

import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

PROBE_INTERVAL_S = 0.02


def _python_probe():
    # a float loop in the interpreter, like binomial_tail and the per-run estimator loop
    x, r = 0.0, 1.0000001
    for _ in range(8000):
        x += r
        r *= 0.9999999
    return x


@dataclass(frozen=True)
class _Counts:
    plus: int
    minus: int


def _estimate(counts, lam):
    n = counts.plus + counts.minus
    if n < 1:
        raise ValueError("no counts")
    return (counts.plus - counts.minus) / (n * lam)


def _estimator_probe():
    # the per-run estimator loop: unbox counts from numpy rows into a record and
    # pass it to a small estimator, like montecarlo's TrialCounts/mle_nla loop
    import numpy as np

    rows = np.arange(1, 601, dtype=np.int64).reshape(300, 2)
    return sum(_estimate(_Counts(int(row[0]), int(row[1])), 0.5) for row in rows)


def _gammainc_probe():
    # scalar gammainc calls at large arguments, like choose_cutoff; imported
    # here because setup_s times the import of scipy
    from scipy.special import gammainc

    return sum(gammainc(n, 2500.0) for n in range(2500, 2700))


def _numpy_probe():
    # the sampling kernel's steps on a 128 KB block: hash counters, map them to
    # uniforms, find their categories, count them
    import numpy as np

    z = np.arange(1 << 14, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(29)
    u = (z >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))
    return np.bincount(np.searchsorted([0.2, 0.5, 0.7], u, side="right"), minlength=4)


# Each workload names the probes that do the same kinds of work as its
# dominant layers: a slow spell on a shared host slows different kinds of work
# by different factors, and only a probe of the same kind cancels it.
PROBES = {
    "python": _python_probe,
    "estimator": _estimator_probe,
    "gammainc": _gammainc_probe,
    "numpy": _numpy_probe,
}


class SpeedProbe:
    """Times a fixed probe before, during and after a call.

    On a shared host the speed of the CPU this process gets drifts by tens of
    percent within seconds, and the same drift slows the program.  Every
    PROBE_INTERVAL_S a SIGALRM handler runs the probe in the main thread,
    between the program's bytecodes, so the samples cover the whole call.  The
    call's wall time divided by the mean probe time is its cost in probes,
    which cancels most of the drift.
    """

    def __init__(self, kinds):
        self.work = [PROBES[kind] for kind in kinds.split("+")]
        self.samples = []  # (start, seconds) of each probe

    def sample(self):
        start = time.perf_counter()
        for work in self.work:
            work()
        self.samples.append((start, time.perf_counter() - start))

    def _on_alarm(self, signum, frame):
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S)  # re-armed after, never nested

    def start(self):
        self.sample()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self.sample()

    def busy_s(self, start, end):
        """Probe time inside [start, end]; a probe runs whole on this thread."""
        return sum(took for began, took in self.samples if start <= began < end)

    def mean_s(self):
        return statistics.fmean(took for _, took in self.samples)


def main(args):
    split = args.index("--")
    mode, option, argv = args[0], args[1:split], args[split + 1 :]
    out = {"exit": 1}
    try:
        start = time.perf_counter()
        import nlaphase.cli

        out["setup_s"] = time.perf_counter() - start
        out["source"] = os.path.dirname(os.path.realpath(nlaphase.cli.__file__))
        out["env"] = _environment()
        tracer = None
        probe = SpeedProbe(option[0]) if mode == "plain" and option else None
        if mode == "traced":
            from layers import Tracer

            tracer = Tracer()
            tracer.install()
        if probe is not None:
            probe.start()
        try:
            start = time.perf_counter()
            try:
                out["exit"] = nlaphase.cli.main(argv) if argv else 0
            except SystemExit as exc:  # argparse rejects the argv
                out["exit"] = exc.code
            end = time.perf_counter()
        finally:
            if probe is not None:
                probe.stop()
        out["wall_s"] = end - start
        if probe is not None:
            # the probes' own time inside the call is not the program's
            out["wall_s"] -= probe.busy_s(start, end)
            out["probe_s"] = probe.mean_s()
            out["probes"] = len(probe.samples)
        if tracer is not None:
            out["trace"] = tracer.report()
            if option:
                with open(option[0], "w") as fh:
                    json.dump({"argv": argv, "spans": tracer.spans}, fh)
    except Exception:
        out["error"] = traceback.format_exc()
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0 if out["exit"] == 0 and "error" not in out else 1


def _environment():
    import numpy
    import scipy

    from nlaphase import kernels

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": kernels.active_backend(),
        "numba_available": kernels.NUMBA_AVAILABLE,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
