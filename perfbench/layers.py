"""Layer spans for the benchmark: which bindings are wrapped, and the tracer that times them.

The library is timed from outside only.  Each public function is wrapped at every
place a caller looks it up: `montecarlo` binds `choose_cutoff` by name at import,
so wrapping `nlaphase.fock.choose_cutoff` alone would record nothing.  Every
binding names the workloads on which it must fire; a binding that records no call
there fails the run (a rename must not silently zero a layer).

This module imports nothing from nlaphase at load time, so the parent process can
read the table without importing numpy.
"""

import importlib
import time

MC = ("mc-readme", "mc-small-m")
SWEEP = ("fisher-sweep-large-r",)
FRACTION = ("fraction-large-m",)
ALGEBRA = SWEEP + FRACTION

# (module, attribute, key in the attribute's dict or None, span name, workloads that must call it)
BINDINGS = [
    ("nlaphase.cli", "_RUNNERS", "simulate", "cli.run", MC),
    ("nlaphase.cli", "_RUNNERS", "fisher-sweep", "cli.run", SWEEP),
    ("nlaphase.cli", "_RUNNERS", "fraction", "cli.run", FRACTION),
    ("nlaphase.cli", "simulate_direct", None, "montecarlo.simulate", MC),
    ("nlaphase.cli", "simulate_nla", None, "montecarlo.simulate", MC),
    ("nlaphase.cli", "sweep_gain", None, "fisher.sweep_gain", SWEEP),
    ("nlaphase.cli", "branch_breakdown", None, "fisher.branch_breakdown", FRACTION),
    ("nlaphase.cli", "sweep_fraction", None, "fisher.sweep_fraction", FRACTION),
    ("nlaphase.fisher", "branch_breakdown", None, "fisher.branch_breakdown", SWEEP),
    ("nlaphase.fisher", "binomial_tail", None, "fisher.binomial_tail", FRACTION),
    ("nlaphase.fisher", "choose_cutoff", None, "fock.choose_cutoff", ALGEBRA),
    ("nlaphase.fisher", "apply_branch", None, "nla.apply_branch", ALGEBRA),
    ("nlaphase.fisher", "qfi_pure", None, "fisher.qfi_pure", ALGEBRA),
    ("nlaphase.montecarlo", "choose_cutoff", None, "fock.choose_cutoff", MC),
    ("nlaphase.montecarlo", "coherent_state", None, "fock.coherent_state", MC),
    ("nlaphase.montecarlo", "apply_branch", None, "nla.apply_branch", MC),
    ("nlaphase.montecarlo", "build_observable", None, "estimator.build_observable", MC),
    ("nlaphase.montecarlo", "outcome_probabilities", None, "estimator.outcome_probs", MC),
    ("nlaphase.montecarlo", "five_outcome_probs", None, "estimator.outcome_probs", MC),
    ("nlaphase.montecarlo", "mle_direct", None, "estimator.mle", MC),
    ("nlaphase.montecarlo", "mle_nla", None, "estimator.mle", MC),
    ("nlaphase.montecarlo", "precision_from_samples", None, "montecarlo.precision_from_samples", MC),
    ("nlaphase.kernels", "categorical_counts", None, "kernels.categorical_counts", MC),
    ("nlaphase.estimator", "qfi_pure", None, "fisher.qfi_pure", MC),
    ("nlaphase.estimator", "coherent_state", None, "fock.coherent_state", MC),
    ("nlaphase.nla", "coherent_state", None, "fock.coherent_state", MC + ALGEBRA),
]

SPAN_CAP = 20_000  # spans kept whole for the trace file; stats cover every span


def binding_id(module, attr, key):
    return f"{module}.{attr}" if key is None else f"{module}.{attr}[{key}]"


class Tracer:
    """Times nested spans around wrapped bindings.

    A span has a name, a start, an end and a parent (the span open when it began).
    Self time is its duration minus the time its child spans cover.  Per span name
    it keeps call count, self time and the exceptions raised through
    it; per binding, the call count.  `cutoff_max`, `trials`, `runs_attempted` and
    `runs_used` are read off arguments and results at the layer boundaries.
    """

    def __init__(self):
        self.stack = []  # open spans: [name, start, child time, index in self.spans]
        self.spans = []  # (name, start, end, parent index) of the first SPAN_CAP spans
        self.stats = {}  # span name -> {"calls", "self_s", "raised"}
        self.hits = {}  # binding id -> calls
        self.cutoff_max = 0
        self.trials = 0
        self.runs_attempted = 0
        self.runs_used = 0

    def install(self):
        """Replace every binding in BINDINGS by a timing wrapper."""
        for module, attr, key, span, _ in BINDINGS:
            mod = importlib.import_module(module)
            bid = binding_id(module, attr, key)
            if key is None:
                setattr(mod, attr, self._wrap(bid, span, getattr(mod, attr)))
            else:
                table = getattr(mod, attr)
                table[key] = self._wrap(bid, span, table[key])

    def _wrap(self, bid, span, fn):
        self.hits[bid] = 0
        self.stats.setdefault(span, {"calls": 0, "self_s": 0.0, "raised": {}})
        observe = {
            "fock.choose_cutoff": self._observe_cutoff,
            "kernels.categorical_counts": self._observe_trials,
            "montecarlo.simulate": self._observe_runs,
        }.get(span)
        stack, spans, stats, hits = self.stack, self.spans, self.stats[span], self.hits
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            hits[bid] += 1
            index = -1
            if len(spans) < SPAN_CAP:
                index = len(spans)
                spans.append(None)
            frame = [span, clock(), 0.0, index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                name = type(exc).__name__
                stats["raised"][name] = stats["raised"].get(name, 0) + 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                stats["calls"] += 1
                stats["self_s"] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if index >= 0:
                    spans[index] = (span, frame[1], end, stack[-1][3] if stack else -1)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _observe_cutoff(self, args, cutoff):
        self.cutoff_max = max(self.cutoff_max, int(cutoff))

    def _observe_trials(self, args, counts):
        if counts.shape[0]:
            self.trials += counts.shape[0] * int(counts[0].sum())  # every row sums to m

    def _observe_runs(self, args, report):
        self.runs_attempted += args[0].runs
        self.runs_used += report.runs_used

    def report(self):
        return {
            "stats": self.stats,
            "hits": self.hits,
            "cutoff_max": self.cutoff_max,
            "trials": self.trials,
            "runs_attempted": self.runs_attempted,
            "runs_used": self.runs_used,
        }
