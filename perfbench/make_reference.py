"""Record reference.json: the outputs the checks compare against.

    python3 perfbench/make_reference.py

Run it from the root of a corrdiag source tree at the commit whose outputs
are the reference.  For each size (full, toy) it runs every workload once at
the benchmark's default seed and records the SHA-256 of each matrix dump,
the sampled moments with their standard errors, and the full oracle census
reports.  Matrix hashes are also compared with the benchmark's own rebuild
(matrices.py), so a disagreement stops the recording.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from matrices import reference_upper_sha256
from run import DEFAULT_SEED, HERE, spawn_pass
from workloads import GENERATORS, SIZES, data_lines, workload_ops


def record(size: str, root: Path) -> dict:
    work = root / ".perfbench_work" / "reference" / size
    out = {"matrix_sha256": {}, "moments": {}, "census": {}}
    for workload in SIZES[size]:
        ops = workload_ops(workload, DEFAULT_SEED, size)
        result = spawn_pass(root / "src", work / workload, ops, False, 600.0)
        if result is None or any(op["rc"] != 0 for op in result["ops"]):
            raise SystemExit(f"{size}/{workload}: the reference run failed")
        out_dir = work / workload / "out"
        for op in ops:
            if op.kind == "simulate":
                n = int(op.argv[op.argv.index("--n") + 1])
                dump = (out_dir / op.argv[-1] / "matrix_upper.f64").read_bytes()
                digest = hashlib.sha256(dump).hexdigest()
                param = GENERATORS[op.label][2]
                if digest != reference_upper_sha256(op.label, param, n, DEFAULT_SEED):
                    raise SystemExit(f"{size}/{op.label}: dump disagrees with matrices.py")
                out["matrix_sha256"][op.label] = {str(DEFAULT_SEED): digest}
            elif op.kind == "moments" and op.label == "cold":
                for line in data_lines(out_dir / op.argv[-1])[1:]:
                    k, c, value, se, _form = line.split(",")
                    out["moments"][f"{k},{c}"] = [float(value), float(se)]
            elif op.kind == "census":
                out["census"][op.label] = json.loads("\n".join(data_lines(out_dir / op.argv[-1])))
    return out


def main() -> int:
    root = Path.cwd().resolve()
    reference = {"seed": DEFAULT_SEED, **{size: record(size, root) for size in SIZES}}
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {HERE / 'reference.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
