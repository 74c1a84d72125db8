"""The benchmark's workloads: the corrdiag argv each pass runs, and the checks
that decide whether each operation's outputs are correct.

An operation is one ``corrdiag.cli.main(argv)`` call.  Every argv uses paths
relative to the pass's output directory, so two passes of the same seed write
byte-identical files.  Each workload has a ``full`` size (what the benchmark
measures) and a ``toy`` size (what the smoke test runs in seconds).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from matrices import reference_upper_sha256

WORKLOADS = ("ensemble", "moments", "oracle")

SIZES = {
    "full": {
        "ensemble": {"n": 1000, "realizations": 6},
        "moments": {"k": 10, "samples": 40_000},
        "oracle": {"shapes": ((60, 4), (12, 6), (6, 8)), "heights": (12, 6)},
    },
    "toy": {
        "ensemble": {"n": 40, "realizations": 2},
        "moments": {"k": 6, "samples": 4_000},
        "oracle": {"shapes": ((8, 4), (5, 6), (3, 8)), "heights": (5, 6)},
    },
}

# label -> (--generator value, parameter flag, parameter value)
GENERATORS = {
    "equicorrelated": ("equicorrelated", "--c", 0.5),
    "curie_weiss": ("curie-weiss", "--beta", 2.0),
    "toeplitz": ("toeplitz", None, None),
}
C_VALUES = ("0", "0.25", "0.5", "0.75", "1")

# Sampled moments must lie within SE_BAND combined standard errors of the
# reference, and their SE may exceed the reference SE by at most SE_SLACK
# (the binomial plug-in SE moves slightly with the estimate itself).
SE_BAND = 5.0
SE_SLACK = 1.1
# Ensemble m2 and m4 must lie within these absolute distances of 1 and
# 2 + (2/3) c^2; at the toy size finite-n bias and 2 realizations need more.
ENSEMBLE_BAND = {"full": {2: 0.05, 4: 0.3}, "toy": {2: 0.25, 4: 1.0}}


@dataclass(frozen=True)
class Op:
    """One ``main(argv)`` call and how to check what it wrote."""

    label: str
    argv: tuple[str, ...]
    kind: str  # "simulate" | "moments" | "census" | "heights"


def workload_ops(workload: str, seed: int, size: str = "full") -> list[Op]:
    """The operations of one pass, in order.  Only ``seed`` varies the inputs."""
    spec = SIZES[size][workload]
    s = str(seed)
    if workload == "ensemble":
        return [
            Op(label, ("simulate", "--n", str(spec["n"]), "--realizations",
                       str(spec["realizations"]), "--dump-matrix", "--seed", s,
                       "--generator", name, *((flag, str(value)) if flag else ()),
                       "--out", f"ensemble/{label}"), "simulate")
            for label, (name, flag, value) in GENERATORS.items()
        ]
    if workload == "moments":
        base = ("moments", "--k", str(spec["k"]), "--c", *C_VALUES, "--samples",
                str(spec["samples"]), "--seed", s, "--cache", "volumes.txt")
        return [Op(name, (*base, "--out", f"moments/{name}.csv"), "moments")
                for name in ("cold", "warm")]
    if workload == "oracle":
        ops = [Op(f"n{n}_k{k}", ("oracle", "--n", str(n), "--k", str(k), "--out",
                                 f"oracle/n{n}_k{k}.json"), "census")
               for n, k in spec["shapes"]]
        n, k = spec["heights"]
        ops.append(Op(f"heights_n{n}_k{k}", ("oracle", "--n", str(n), "--k", str(k),
                                            "--check-heights"), "heights"))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def _arg(op: Op, flag: str) -> str:
    return op.argv[op.argv.index(flag) + 1]


def data_lines(path: Path) -> list[str]:
    """The lines of a corrdiag output file that are not ``#`` headers."""
    return [line for line in path.read_text().splitlines() if line and not line.startswith("#")]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


class Checker:
    """Checks operation outputs against the recorded references.

    ``references`` is the parsed reference.json; ``size`` selects its block.
    Matrix hashes for seeds without a recorded entry come from the
    benchmark's own rebuild of the documented seed layout (matrices.py),
    computed once per (generator, n, seed).
    """

    def __init__(self, references: dict, size: str):
        self.refs = references[size]
        self.size = size
        self._matrix_hashes: dict[tuple, str] = {}

    def check(self, op: Op, pass_dir: Path, rc: int) -> list[str]:
        """Errors found in one operation's outputs; empty when it is correct.

        The op's files are under ``pass_dir/out`` and its stdout is
        ``pass_dir/stdout/<label>.txt``.
        """
        if rc != 0:
            return [f"exit code {rc}"]
        try:
            return getattr(self, f"_check_{op.kind}")(op, pass_dir / "out",
                                                       pass_dir / "stdout" / f"{op.label}.txt")
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"check could not run: {type(exc).__name__}: {exc}"]

    def _expected_matrix_hash(self, op: Op) -> str:
        key = (op.label, GENERATORS[op.label][2], int(_arg(op, "--n")),
               int(_arg(op, "--seed")))
        if key not in self._matrix_hashes:
            self._matrix_hashes[key] = reference_upper_sha256(*key)
        return self._matrix_hashes[key]

    def _check_simulate(self, op, out_dir, stdout_path):
        errors = []
        n = int(_arg(op, "--n"))
        realizations = int(_arg(op, "--realizations"))
        seed = _arg(op, "--seed")
        run_dir = out_dir / _arg(op, "--out")

        hist = (run_dir / "histogram.csv").read_text().splitlines()
        flow = next(line for line in hist if line.startswith("# underflow="))
        under, over = (int(part.split("=")[1]) for part in flow[2:].split())
        rows = data_lines(run_dir / "histogram.csv")[1:]
        total = sum(int(row.split(",")[2]) for row in rows) + under + over
        if total != realizations * n:
            errors.append(f"histogram total {total} != realizations*n = {realizations * n}")

        dump = run_dir / "matrix_upper.f64"
        digest = _sha256(dump)
        recorded = self.refs["matrix_sha256"][op.label].get(seed)
        if recorded is not None and digest != recorded:
            errors.append(f"matrix dump sha256 {digest[:12]} != recorded {recorded[:12]}")
        expected = self._expected_matrix_hash(op)
        if digest != expected:
            errors.append(f"matrix dump sha256 {digest[:12]} != rebuilt {expected[:12]}")

        # only the equicorrelated moment CSV carries theory rows
        if op.label == "equicorrelated":
            c = GENERATORS[op.label][2]
            theory = {2: 1.0, 4: 2.0 + (2.0 / 3.0) * c * c}
            empirical = {}
            for row in data_lines(run_dir / "moments.csv")[1:]:
                fields = row.split(",")
                empirical[int(fields[0])] = float(fields[1])
            for k, value in theory.items():
                band = ENSEMBLE_BAND[self.size][k]
                if not abs(empirical[k] - value) <= band:
                    errors.append(f"m{k} = {empirical[k]:.6g} not within {band} of {value:.6g}")
        return errors

    def _check_moments(self, op, out_dir, stdout_path):
        errors = []
        path = out_dir / _arg(op, "--out")
        reference = self.refs["moments"]
        kmax = int(_arg(op, "--k"))
        rows = {}
        for line in data_lines(path)[1:]:
            k, c, value, se, _form = line.split(",")
            rows[(int(k), c)] = (float(value), float(se))
        wanted = {(k, c) for k in range(1, kmax + 1) for c in C_VALUES}
        if set(rows) != wanted:
            errors.append(f"moment rows {sorted(set(rows) ^ wanted)} missing or unexpected")
        for (k, c), (value, se) in sorted(rows.items()):
            where = f"k={k} c={c}"
            if k % 2:
                if value != 0.0 or se != 0.0:
                    errors.append(f"{where}: odd moment {value!r} (SE {se!r}) is not exactly 0")
                continue
            if float(c) == 0.0:
                if value != _catalan(k // 2) or se != 0.0:
                    errors.append(f"{where}: {value!r} (SE {se!r}) is not Catalan {_catalan(k // 2)}")
                continue
            ref_value, ref_se = reference[f"{k},{c}"]
            if ref_se == 0.0:
                if value != ref_value or se != 0.0:
                    errors.append(f"{where}: exact value {value!r} != reference {ref_value!r}")
                continue
            if se > SE_SLACK * ref_se:
                errors.append(f"{where}: SE {se:.3g} exceeds {SE_SLACK} x reference SE {ref_se:.3g}")
            if not abs(value - ref_value) <= SE_BAND * math.hypot(se, ref_se):
                errors.append(f"{where}: {value:.8g} is more than {SE_BAND} SE from {ref_value:.8g}")
        if op.label == "warm":
            cold = path.with_name("cold.csv")
            if path.read_bytes() != cold.read_bytes():
                errors.append("warm-cache moments differ from the cold-cache moments")
        return errors

    def _check_census(self, op, out_dir, stdout_path):
        path = out_dir / _arg(op, "--out")
        report = json.loads("\n".join(data_lines(path)))
        errors = []
        if report.get("partition_sum_identity") is not True:
            errors.append("partition_sum_identity does not hold")
        errors += [f"{where}: {got!r} != reference {want!r}" for where, got, want
                   in _json_diff(report, self.refs["census"][op.label], op.label)]
        return errors

    def _check_heights(self, op, out_dir, stdout_path):
        report = json.loads(stdout_path.read_text())
        return [] if report.get("ok") is True else [f"check-heights reported {report!r:.200}"]


def _json_diff(got, want, where: str):
    """Leaves where two JSON values differ; floats to 1e-12 relative, the rest exactly."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            yield where, sorted(got), sorted(want)
            return
        for key in want:
            yield from _json_diff(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, float) and isinstance(got, float):
        if not math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0):
            yield where, got, want
    elif type(got) is not type(want) or got != want:
        yield where, got, want
