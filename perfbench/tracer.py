"""Outside-in tracing of corrdiag's layers, from the benchmark's files only.

``Tracer.install`` replaces each measured function where its caller looks it
up (``corrdiag.spectra.build_matrix`` is the name ``run_ensemble`` calls, for
example) with a wrapper that records a span: name, start, end, parent span
and a few details.  Spans stay in memory until the pass ends.  ``uninstall``
puts every original back.  A wrap point that no longer exists is recorded as
missing, and every metric that depends on it reads ``"missing"``, never 0.

The layer of a span is the part of its name before the first dot.  A span's
self time is its duration minus the part of that interval its child spans
cover, so the self times of all spans add up to the root spans' time.
"""

from __future__ import annotations

import importlib
import itertools
import statistics
import threading
import time
import tracemalloc
from dataclasses import dataclass

LAYERS = ("cli", "sampler", "curie_weiss", "spectra", "volumes", "moments", "partitions", "oracle")

# (module, attribute path, span name): the measured functions, at the name
# their caller resolves when it runs.
WRAPS = (
    ("corrdiag.cli", "main", "cli.main"),
    ("corrdiag.cli", "run_ensemble", "spectra.run_ensemble"),
    ("corrdiag.cli", "write_histogram_csv", "spectra.write_csv"),
    ("corrdiag.cli", "write_moment_csv", "spectra.write_csv"),
    ("corrdiag.cli", "build_matrix", "sampler.build_matrix"),
    ("corrdiag.spectra", "build_matrix", "sampler.build_matrix"),
    ("corrdiag.spectra", "eigenvalues_symmetric", "spectra.eig"),
    ("corrdiag.sampler", "diagonal_rng", "sampler.diagonal_rng"),
    ("corrdiag.sampler", "sample_diagonal", "sampler.sample_diagonal"),
    ("corrdiag.sampler", "sample_spins", "curie_weiss.sample_spins"),
    ("corrdiag.cli", "limiting_moment", "moments.limiting_moment"),
    ("corrdiag.moments", "enumerate_pair_partitions", "partitions.enumerate"),
    ("corrdiag.moments", "is_crossing", "partitions.is_crossing"),
    ("corrdiag.moments", "height", "partitions.height"),
    ("corrdiag.volumes", "VolumeCache.ensure", "volumes.ensure"),
    ("corrdiag.volumes", "VolumeCache.load", "volumes.cache_io"),
    ("corrdiag.volumes", "VolumeCache.save", "volumes.cache_io"),
    ("corrdiag.volumes", "toeplitz_volume", "volumes.toeplitz_volume"),
    ("corrdiag.volumes", "solve_partition_system", "volumes.solve"),
    ("corrdiag.cli", "walk_census", "oracle.walk_census"),
    ("corrdiag.oracle", "walk_census", "oracle.walk_census"),
    ("corrdiag.cli", "census_report", "oracle.report"),
    ("corrdiag.cli", "check_cell_bound", "oracle.check"),
)
# parallel_map gets no span; its wrapper only hands the caller's span to
# worker threads, so work done there keeps its parent.
PARALLEL_MAPS = ("corrdiag.spectra", "corrdiag.volumes", "corrdiag.oracle")
# lru caches read through cache_info(): (module, function, counter name)
CACHE_COUNTERS = (
    ("corrdiag.curie_weiss", "_level_cdf", "curie_weiss.level"),
    ("corrdiag.oracle", "walk_census", "oracle.census"),
)

GENERATOR_NAMES = {"Equicorrelated": "equicorrelated", "CurieWeiss": "curie_weiss",
                   "Toeplitz": "toeplitz"}
ORACLE_KS = (4, 6, 8)
VOLUME_KS = (6, 8, 10)


class Missing(Exception):
    """A metric's wrap point or counter is gone from the program."""


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    info: dict

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._originals: list[tuple[object, str, object]] = []
        self._cache_start: dict[str, tuple[int, int]] = {}

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, fn, name: str):
        describe = _DETAILS.get(name)

        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            info: dict = {}
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if describe is not None:
                    describe(info, args, kwargs, result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, name, start, end, parent, info))

        return traced

    def _wrap_census(self, fn):
        """walk_census: also record (n, k), whether the call missed the
        function's cache (every call counts as a miss without one), and the
        tracemalloc peak."""
        traced = self._wrap(fn, "oracle.walk_census")

        def misses():
            return fn.cache_info().misses if hasattr(fn, "cache_info") else None

        def census(n, k, *args, **kwargs):
            before = misses()
            tracemalloc.start()
            try:
                return traced(n, k, *args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.spans[-1].info.update(
                    n=n, k=k, miss=before is None or misses() > before, peak_bytes=peak)

        return census

    def _wrap_parallel(self, fn):
        def parallel_map(work, jobs):
            parent = self._stack()[-1] if self._stack() else None

            def job_in_parent(job):
                stack = self._stack()
                stack.append(parent)
                try:
                    return work(job)
                finally:
                    stack.pop()

            return fn(job_in_parent, jobs)

        return parallel_map

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        for module, path, name in WRAPS:
            try:
                owner, attr = _resolve(module, path)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.add(name)
                continue
            if name == "oracle.walk_census":
                self._replace(owner, attr, self._wrap_census(original))
            else:
                self._replace(owner, attr, self._wrap(original, name))
        for module in PARALLEL_MAPS:
            try:
                owner, attr = _resolve(module, "parallel_map")
                self._replace(owner, attr, self._wrap_parallel(getattr(owner, attr)))
            except (ImportError, AttributeError):
                pass  # without threads to cross there is nothing to propagate
        for module, function, counter in CACHE_COUNTERS:
            info = self._cache_info(module, function)
            if info is None:
                self.missing.add(counter)
            else:
                self._cache_start[counter] = (info.hits, info.misses)

    def uninstall(self) -> None:
        # reversed, so a function wrapped twice gets its true original back
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _cache_info(self, module: str, function: str):
        try:
            owner, attr = _resolve(module, function)
            fn = getattr(owner, attr)
            for _owner, _attr, original in self._originals:
                if _owner is owner and _attr == attr:
                    fn = original
            return fn.cache_info()
        except (ImportError, AttributeError):
            return None

    def cache_delta(self, module: str, function: str, counter: str) -> tuple[int, int]:
        if counter in self.missing:
            raise Missing(counter)
        info = self._cache_info(module, function)
        hits, misses = self._cache_start[counter]
        return info.hits - hits, info.misses - misses

    # -- analysis --------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out = {}
        for span in self.spans:
            covered, reach = 0.0, span.start
            for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
                lo, hi = max(child.start, reach), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[span.id] = span.seconds - covered
        return out


def _generator(info, args, kwargs, result):
    gen = args[1] if len(args) > 1 else kwargs["gen"]
    info["generator"] = GENERATOR_NAMES.get(type(gen).__name__, type(gen).__name__)


def _volume(info, args, kwargs, result):
    p = args[0] if args else kwargs["p"]
    info.update(k=p.k, exact=bool(result.exact), samples=int(result.samples))


def _command(info, args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    info["command"] = argv[0] if argv else None


def _realizations(info, args, kwargs, result):
    info["realizations"] = int(result.realizations)


_DETAILS = {
    "sampler.build_matrix": _generator,
    "volumes.toeplitz_volume": _volume,
    "cli.main": _command,
    "spectra.run_ensemble": _realizations,
}


def chunk_bytes(n: int, k: int) -> int:
    """Bytes of the arrays one oracle chunk holds at once, computed from their
    shapes (not measured): W = n^(k-1) walks, int32 grids (k-1)W, first-step
    W, positions (k+1)W, steps kW, magnitudes kW; three int64 masks; an int16
    cell count and a bool matched flag."""
    width = n ** (k - 1)
    return width * (4 * (4 * k + 1) + 3 * 8 + 2 + 1)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass; values are numbers or "missing".

    Layers a workload does not run read 0 (no calls, no time); ratios over
    zero attempts also read 0.  Times per matrix divide by the number of
    build_matrix calls, and per realization by the ensembles' realizations.
    """
    spans: dict[str, list[Span]] = {}
    for span in tracer.spans:
        spans.setdefault(span.name, []).append(span)
    self_s = tracer.self_times()

    def need(*names):
        gone = [name for name in names if name in tracer.missing]
        if gone:
            raise Missing(gone[0])
        return [span for name in names for span in spans.get(name, ())]

    def seconds(items):
        return sum((s.seconds for s in items), 0.0)

    def own(items):
        return sum((self_s[s.id] for s in items), 0.0)

    def per(value, count):
        return value / count if count else 0.0

    def median_ms(items):
        return 1e3 * statistics.median(s.seconds for s in items) if items else 0.0

    def builds(generator=None):
        return [s for s in need("sampler.build_matrix")
                if generator is None or s.info.get("generator") == generator]

    def level_cache():
        return tracer.cache_delta("corrdiag.curie_weiss", "_level_cdf", "curie_weiss.level")

    def ensemble_builds():
        ids = {s.id for s in need("spectra.run_ensemble")}
        return [s for s in builds() if s.parent in ids]

    def mc_volumes(k=None):
        return [s for s in need("volumes.toeplitz_volume")
                if not s.info.get("exact", True) and k in (None, s.info["k"])]

    def volume_misses():
        parents = {s.parent for s in need("volumes.toeplitz_volume")}
        return sum(1 for s in need("volumes.ensure") if s.id in parents)

    def moment_runs():
        return [s for s in need("cli.main") if s.info.get("command") == "moments"]

    def censuses(k):
        return [s for s in need("oracle.walk_census") if s.info.get("miss") and s.info["k"] == k]

    def layer_self(layer):
        names = {name for _, _, name in WRAPS if name.split(".")[0] == layer}
        return own(need(*sorted(names)))

    def ensembles():
        return need("spectra.run_ensemble")

    def realizations():
        return sum(s.info.get("realizations", 0) for s in ensembles())

    metrics = {
        **{f"sampler.build_ms.{g}": (lambda g=g: median_ms(builds(g)))
           for g in ("equicorrelated", "curie_weiss", "toeplitz")},
        "sampler.seed_ms": lambda: 1e3 * per(seconds(need("sampler.diagonal_rng")), len(builds())),
        "sampler.draw_ms": lambda: 1e3 * per(own(need("sampler.sample_diagonal")), len(builds())),
        "sampler.assembly_ms": lambda: 1e3 * per(own(builds()), len(builds())),
        "sampler.diagonals": lambda: len(need("sampler.sample_diagonal")),
        "curie_weiss.spins_ms": lambda: 1e3 * per(
            seconds(need("curie_weiss.sample_spins")), len(builds("curie_weiss"))),
        "curie_weiss.level_hits": lambda: level_cache()[0],
        "curie_weiss.level_misses": lambda: level_cache()[1],
        "curie_weiss.level_hit_ratio": lambda: per(level_cache()[0], sum(level_cache())),
        "spectra.eig_ms": lambda: median_ms(need("spectra.eig")),
        "spectra.reduce_ms": lambda: 1e3 * per(own(ensembles()), realizations()),
        "spectra.csv_ms": lambda: 1e3 * seconds(need("spectra.write_csv")),
        "spectra.construction_over_eig": lambda: per(
            seconds(ensemble_builds()), seconds(need("spectra.eig"))),
        **{f"volumes.volume_ms.k{k}": (lambda k=k: median_ms(mc_volumes(k))) for k in VOLUME_KS},
        "volumes.solve_ms": lambda: 1e3 * seconds(need("volumes.solve")),
        "volumes.mc_points": lambda: sum(s.info["samples"] for s in mc_volumes()),
        "volumes.mc_points_per_s": lambda: per(
            sum(s.info["samples"] for s in mc_volumes()), seconds(mc_volumes())),
        "volumes.cache_hits": lambda: len(need("volumes.ensure")) - volume_misses(),
        "volumes.cache_misses": volume_misses,
        "volumes.cache_hit_ratio": lambda: per(
            len(need("volumes.ensure")) - volume_misses(), len(need("volumes.ensure"))),
        "volumes.cache_io_ms": lambda: 1e3 * seconds(need("volumes.cache_io")),
        "moments.self_ms": lambda: 1e3 * own(need("moments.limiting_moment")),
        "moments.warm_pass_s": lambda: moment_runs()[1].seconds if len(moment_runs()) > 1 else 0.0,
        "partitions.self_ms": lambda: 1e3 * layer_self("partitions"),
        **{name: fn for k in ORACLE_KS for name, fn in (
            (f"oracle.census_s.k{k}", lambda k=k: seconds(censuses(k))),
            (f"oracle.walks_per_s.k{k}", lambda k=k: per(
                sum(s.info["n"] ** k for s in censuses(k)), seconds(censuses(k)))),
            (f"oracle.census_peak_mb.k{k}", lambda k=k: max(
                (s.info["peak_bytes"] / 2**20 for s in censuses(k)), default=0.0)),
            (f"oracle.chunk_bytes_computed.k{k}", lambda k=k: max(
                (chunk_bytes(s.info["n"], k) for s in censuses(k)), default=0)),
        )},
        "oracle.report_ms": lambda: 1e3 * seconds(need("oracle.report")),
        "oracle.check_ms": lambda: 1e3 * seconds(need("oracle.check")),
        "oracle.census_cache_hits": lambda: tracer.cache_delta(
            "corrdiag.oracle", "walk_census", "oracle.census")[0],
        "cli.self_ms": lambda: 1e3 * own(need("cli.main")),
        **{f"self_s.{layer}": (lambda layer=layer: layer_self(layer)) for layer in LAYERS},
        "trace.accounted": lambda: per(sum(self_s.values()), wall_s),
    }
    out: dict[str, object] = {}
    for name, compute in metrics.items():
        try:
            out[name] = compute()
        except Missing:
            out[name] = "missing"
    return out
