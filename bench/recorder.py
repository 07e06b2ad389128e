"""Per-pass call recorder: spans, failures, output checks, digests, counts."""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager

from checks import digest
from tracing import Tracer

# simulators whose output points are newly generated (model_marks only relabels)
_GENERATORS = {
    "simulate.poisson_network",
    "simulate.poisson_planar",
    "simulate.lgcp_network",
    "simulate.linked_balanced_cox",
}


class Recorder:
    """Wraps every public call the benchmark makes during one pass.

    A call that raises is recorded as failed and returns None; output
    checks and digests run later, in `finish`, outside the timed region.
    """

    def __init__(self, tracer: Tracer | None = None, keep_outputs: bool = True):
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self.keep_outputs = keep_outputs
        self.prefix = ""
        self._pending = []

    def call(self, name, fn, *args, check=None, **kwargs):
        self.attempted += 1
        try:
            with self.tracer.span(name):
                out = fn(*args, **kwargs)
        except Exception as e:  # every failure of a package call is counted, not fatal
            self.failed += 1
            self.failures.append(f"{self.prefix}{name}: {type(e).__name__}: {e}")
            return None
        if name.split(":")[0] in _GENERATORS:
            self.counters["simulate.points"] += out.n
        if self.keep_outputs:
            self._pending.append((self.prefix + name, out, check))
        return out

    @contextmanager
    def part(self, name):
        """Name failures and digests after the part of a composite workload,
        so that the same call in two parts keeps two digests."""
        outer, self.prefix = self.prefix, f"{self.prefix}{name}/"
        try:
            yield
        finally:
            self.prefix = outer

    def count(self, key, value):
        self.counters[key] += value

    def count_pairs(self, n, within):
        """Count the ordered pairs of an n-point pattern and those within reach."""
        self.counters["dist.pairs_all"] += n * (n - 1)
        self.counters["dist.pairs_within_rmax"] += within

    def count_dense(self, na, nb):
        """Count one dense (na, nb) float64 distance matrix built by the package."""
        self.counters["geometry.dense_mb"] += 8.0 * na * nb / 2.0**20

    def fail(self, name, reason):
        """Record an output check made outside `call` (counts as one attempted call)."""
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.failures.append(f"{self.prefix}{name}: {reason}")

    def record_digest(self, name, obj):
        self.digests[self.prefix + name] = digest(obj)

    def merge(self, other: "Recorder"):
        """Take over the results of another (finished) recorder."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.extend(other.failures)
        self.digests.update(other.digests)
        for key, value in other.counters.items():
            self.counters[key] += value

    def finish(self):
        """Run the deferred output checks and digest every output."""
        for name, out, check in self._pending:
            if check is not None:
                try:
                    reason = check(out)
                except Exception as e:  # a check that cannot run is a failed check
                    reason = f"check raised {type(e).__name__}: {e}"
                if reason is not None:
                    self.failed += 1
                    self.failures.append(f"{name}: {reason}")
            self.digests[name] = digest(out)
        self._pending.clear()
