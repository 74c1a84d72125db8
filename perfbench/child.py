"""One benchmark pass in a fresh process.

    python3 perfbench/child.py SPEC.json

run.py writes SPEC.json (the spawn time, the source tree, the pass
directory, the ops' argv and whether to trace) and starts this script with
``OPENBLAS_NUM_THREADS=1`` and ``CORRDIAG_THREADS`` unset.  The pass imports
``corrdiag.cli`` (its set-up time), then calls ``corrdiag.cli.main(argv)``
once per op with the working directory set to the pass's ``out`` directory,
and writes ``result.json`` beside it.  With tracing on it also writes
``spans.json`` after the ops.
"""

import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path


def _environment() -> dict:
    import corrdiag
    import numpy
    import scipy

    try:
        from corrdiag._parallel import thread_count

        threads = thread_count()
    except (ImportError, AttributeError):
        threads = "missing"
    config = getattr(numpy.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "CORRDIAG_THREADS": os.environ.get("CORRDIAG_THREADS", "unset"),
        "corrdiag_threads_effective": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "corrdiag": getattr(corrdiag, "__version__", "?"),
    }


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    import corrdiag.cli

    setup_s = time.monotonic() - spec["spawned"]
    src = Path(spec["src"]).resolve()
    if src not in Path(corrdiag.cli.__file__).resolve().parents:
        print(f"corrdiag imported from {corrdiag.cli.__file__}, not from {src}", file=sys.stderr)
        return 3

    pass_dir = Path(spec["pass_dir"])
    out_dir = pass_dir / "out"
    stdout_dir = pass_dir / "stdout"
    out_dir.mkdir(parents=True, exist_ok=True)
    stdout_dir.mkdir(exist_ok=True)
    os.chdir(out_dir)

    tracer = None
    if spec["trace"]:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()

    ops = []
    cpu0 = _cpu_seconds()
    first = last = time.perf_counter()
    for label, argv in spec["ops"]:
        with open(stdout_dir / f"{label}.txt", "w") as sink, redirect_stdout(sink):
            start = time.perf_counter()
            try:
                rc = corrdiag.cli.main(list(argv))
            except SystemExit as exc:  # argparse rejects an argv by exiting
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                traceback.print_exc()
                rc = 1
            last = time.perf_counter()
        ops.append({"label": label, "rc": rc, "seconds": last - start})
    wall_s = last - first
    cpu_s = _cpu_seconds() - cpu0

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_per_wall": cpu_s / wall_s if wall_s > 0 else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ops,
        "environment": _environment(),
        "layers": None,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer, wall_s)
        spans = [[s.id, s.name, s.start, s.end, s.parent, s.info] for s in tracer.spans]
        (pass_dir / "spans.json").write_text(json.dumps(spans))
    (pass_dir / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
