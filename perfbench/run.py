"""corrdiag benchmark.

    python3 perfbench/run.py --workload ensemble|moments|oracle --seed N --seconds S --trace 0|1

Run it from the root of a corrdiag source tree: it imports corrdiag from
./src, writes only under ./.perfbench_work, and reads BENCHMARK.json for the
metric names and units.  Each pass is one fresh Python process (child.py)
with ``OPENBLAS_NUM_THREADS=1`` and ``CORRDIAG_THREADS`` unset, so the
program's own thread default is what gets measured.  Passes repeat, all on
the same inputs, until ``--seconds`` have gone by (at least MIN_PASSES), and
every operation's outputs are checked after its pass.

With ``--trace 0`` the last line reports the end-to-end metrics (medians over
the passes).  With ``--trace 1`` untraced and traced passes alternate and the
last line reports the per-layer metrics (medians over the traced passes),
including ``trace.overhead``; every traced pass must write byte-identical
files to the first untraced one.  Lines before the last one give the
environment record and a readable summary with ``fail_ratio``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Checker, workload_ops

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1
MIN_PASSES = 3
# A run must end within 180 s: no pass starts later than this many seconds
# after the run began, and a pass still running 10 s after it is stopped and
# counted as failed.
DEADLINE_S = 160.0


class BenchmarkError(Exception):
    """The benchmark cannot run here (no source tree, no BENCHMARK.json, ...)."""


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unavailable (not a git checkout)"
    done = subprocess.run(["git", "--git-dir", str(root / ".git"), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def _child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env.pop("CORRDIAG_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join([str(src), *filter(None, [env.get("PYTHONPATH")])])
    return env


def spawn_pass(src: Path, pass_dir: Path, ops, trace: bool, timeout: float) -> dict | None:
    """Run one pass in a fresh process; its result.json, or None if it died."""
    shutil.rmtree(pass_dir, ignore_errors=True)
    pass_dir.mkdir(parents=True)
    spec = pass_dir / "spec.json"
    spawned = time.monotonic()
    spec.write_text(json.dumps({
        "spawned": spawned, "src": str(src), "pass_dir": str(pass_dir), "trace": trace,
        "ops": [(op.label, op.argv) for op in ops],
    }))
    with open(pass_dir / "stderr.txt", "w") as stderr:
        try:
            done = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec)],
                                  env=_child_env(src), stdin=subprocess.DEVNULL,
                                  stdout=stderr, stderr=stderr, timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"{pass_dir.name}: stopped after {timeout:.0f} s", file=sys.stderr)
            return None
    if done.returncode != 0:
        tail = (pass_dir / "stderr.txt").read_text()[-2000:]
        print(f"{pass_dir.name}: exit code {done.returncode}\n{tail}", file=sys.stderr)
        return None
    return json.loads((pass_dir / "result.json").read_text())


def output_digests(pass_dir: Path) -> dict[str, str]:
    """SHA-256 of every file the ops wrote, and of their stdout, by relative path."""
    return {str(path.relative_to(pass_dir)): hashlib.sha256(path.read_bytes()).hexdigest()
            for sub in ("out", "stdout") for path in sorted((pass_dir / sub).rglob("*"))
            if path.is_file()}


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
        root: Path | None = None) -> dict:
    """Measure one workload; returns the result line plus the records behind it."""
    deadline = time.monotonic() + DEADLINE_S
    root = (root or Path.cwd()).resolve()
    src = root / "src"
    if not (src / "corrdiag" / "cli.py").is_file():
        raise BenchmarkError(f"no corrdiag source tree at {src}")
    bench = json.loads((root / "BENCHMARK.json").read_text())
    checker = Checker(json.loads((HERE / "reference.json").read_text()), size)
    work = root / ".perfbench_work" / (workload if size == "full" else f"{workload}-{size}")
    shutil.rmtree(work, ignore_errors=True)
    ops = workload_ops(workload, seed, size)

    # Compile the package's bytecode and warm the file cache outside the
    # measurement: users do not pay that on every run.
    if spawn_pass(src, work / "warmup", [], False, deadline - time.monotonic()) is None:
        raise BenchmarkError("corrdiag.cli does not import; see the message above")

    started = time.monotonic()
    passes: list[dict] = []
    attempted = failed = 0
    baseline: dict[str, str] | None = None
    while True:
        now = time.monotonic()
        enough = len(passes) >= MIN_PASSES or (trace and len(passes) >= 2)
        if (enough and now - started >= seconds) or now >= deadline:
            break
        traced = trace and len(passes) % 2 == 1
        pass_dir = work / f"pass-{len(passes):02d}"
        result = spawn_pass(src, pass_dir, ops, traced, deadline - now + 10.0)
        attempted += len(ops)
        if result is None:
            failed += len(ops)
            passes.append({"traced": traced, "died": True})
            continue
        result["traced"] = traced
        passes.append(result)
        rcs = {op["label"]: op["rc"] for op in result["ops"]}
        bad_ops = set()
        for op in ops:
            errors = checker.check(op, pass_dir, rcs[op.label])
            if errors:
                bad_ops.add(op.label)
                print(f"{pass_dir.name} {op.label}: " + "; ".join(errors[:5]), file=sys.stderr)
        digests = output_digests(pass_dir)
        if baseline is None and not traced:
            baseline = digests
        elif baseline is not None and digests != baseline:
            changed = sorted(k for k in digests.keys() | baseline.keys()
                             if digests.get(k) != baseline.get(k))
            print(f"{pass_dir.name}: outputs differ from pass-00 in {changed[:5]}", file=sys.stderr)
            bad_ops = {op.label for op in ops}
        failed += len(bad_ops)

    measured = [p for p in passes if not p.get("died")]
    plain = [p for p in measured if not p["traced"]]
    traced_passes = [p for p in measured if p["traced"]]
    environment = dict(measured[0]["environment"]) if measured else {}
    environment.update(workload=workload, seed=seed, size=size, commit=_git_commit(root))

    def median(values):
        return statistics.median(values) if values else 0.0

    if trace:
        specs = bench["per_layer"]
        values = {}
        for name in traced_passes[0]["layers"] if traced_passes else ():
            column = [p["layers"][name] for p in traced_passes]
            values[name] = "missing" if "missing" in column else median(column)
        values["parallel.threads"] = environment.get("corrdiag_threads_effective", "missing")
        values["parallel.cpu_per_wall"] = median([p["cpu_per_wall"] for p in plain])
        values["trace.overhead"] = (median([p["wall_s"] for p in traced_passes])
                                    / median([p["wall_s"] for p in plain])) if plain else 0.0
    else:
        specs = bench["end_to_end"]
        values = {
            "wall_s": median([p["wall_s"] for p in plain]),
            "setup_s": median([p["setup_s"] for p in plain]),
            "peak_rss_mb": median([p["peak_rss_mb"] for p in plain]),
        }
    metrics = {m["name"]: {"value": values.get(m["name"], "missing"), "unit": m["unit"]}
               for m in specs}
    line = {"correct": failed == 0 and bool(measured), "attempted": attempted,
            "failed": failed, "metrics": metrics}
    return {"line": line, "environment": environment, "passes": passes, "work": work}


def _summary(result: dict) -> str:
    line, env = result["line"], result["environment"]
    ratio = line["failed"] / line["attempted"] if line["attempted"] else 1.0
    shown = "  ".join(f"{name}={m['value']:.6g} {m['unit']}"
                      if isinstance(m["value"], (int, float)) else f"{name}={m['value']}"
                      for name, m in line["metrics"].items())
    return (f"{env['workload']} seed={env['seed']} passes={len(result['passes'])}  {shown}  "
            f"fail_ratio={ratio:.6g} ({line['failed']}/{line['attempted']} operations)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, OSError, json.JSONDecodeError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    record = {"environment": result["environment"], **result["line"]}
    (result["work"] / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print("environment: " + json.dumps(result["environment"], sort_keys=True))
    print(_summary(result))
    print(json.dumps(result["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
