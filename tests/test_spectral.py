"""Quadrature engine tests: parity, order, error estimates, sweeps, oracles."""

import math

import numpy as np
import pytest

from atomflux.greens import AtomParams, BathSpec, FrequencyGrid, atom_retarded_ft
from atomflux.spectral import (
    _ERROR_FLOOR_ULPS,
    IntegrandError,
    _partials,
    _reduce,
    fit_log_slope,
    integrate_spectrum,
)
from atomflux.flux import corrected_hadamard_spectrum, far_field_flux_integrand, radiated_power_density

TWO_PI = 2.0 * math.pi


def test_gaussian_reference():
    g = FrequencyGrid(10.0, 256)
    res = integrate_spectrum(lambda k: np.exp(-(k**2)), g)
    assert res.value == pytest.approx(math.sqrt(math.pi) / TWO_PI, abs=1e-10)
    assert res.n_evals == 128 + 64  # the kappa > 0 points of the grid and of its half grid
    assert res.est_error >= 0.0


def test_exact_for_cubics():
    # even cubics without a kink at kappa = 0: the rule reads kappa > 0 alone
    g = FrequencyGrid(3.0, 32)
    res = integrate_spectrum(lambda k: 1.0 + 3.0 * k**2 + np.abs(k) ** 3, g)
    exact = (2.0 * 3.0 + 3.0 * (2.0 * 27.0 / 3.0) + 2.0 * 81.0 / 4.0) / TWO_PI
    assert res.value == pytest.approx(exact, rel=1e-14)


def test_fourth_order_convergence():
    # quartic integrand is not exact; halving the step shrinks the error ~16x
    # once the h^4 boundary term dominates the h^5 stencil remainder
    exact = (2.0 * 2.0**5 / 5.0) / TWO_PI
    err = []
    for n in (128, 256, 512):
        res = integrate_spectrum(lambda k: k**4, FrequencyGrid(2.0, n))
        err.append(abs(res.value - exact))
    assert 10.0 < err[0] / err[1] < 26.0
    assert 10.0 < err[1] / err[2] < 26.0


def test_error_estimate_bounds_true_error():
    # smooth family: Gaussian and Lorentzian at resolutions where the error is
    # far above rounding
    cases = [
        (lambda k: np.exp(-(k**2) / 4.0), 8.0, 2.0 * math.erf(4.0) * math.sqrt(math.pi)),
        (lambda k: 1.0 / (1.0 + k**2), 10.0, 2.0 * math.atan(10.0)),
    ]
    for f, lam, plain_integral in cases:
        for n in (32, 64, 128):
            res = integrate_spectrum(f, FrequencyGrid(lam, n))
            true_err = abs(res.value - plain_integral / TWO_PI)
            assert true_err <= 10.0 * res.est_error


def test_lorentzian_sum_rule():
    # residue calculus: (1/pi) * integral of kappa * Im GR over the real line is 1
    p = AtomParams.from_damping(0.1, 1.0, 1.0)
    g = FrequencyGrid(1000.0, 2**17)
    res = integrate_spectrum(lambda k: k * np.imag(atom_retarded_ft(k, p)), g)
    assert 2.0 * res.value == pytest.approx(1.0, rel=0.01)


def test_nonfinite_integrand_names_offender():
    import re

    g = FrequencyGrid(2.0, 16)
    [(_, kappa)] = g.pieces()
    bad_kappa = float(kappa[3])

    def f(k):
        out = np.asarray(k, dtype=float).copy()
        out[k == bad_kappa] = np.inf
        return out

    with pytest.raises(IntegrandError, match=re.escape(repr(bad_kappa))):
        integrate_spectrum(f, g)


def test_vector_rows_match_separate_integrations_bitwise():
    p = AtomParams.from_damping(0.1, 1.0, 1.0)
    rows = (
        lambda k: k**2 * np.imag(atom_retarded_ft(k, p)),
        lambda k: 1.0 / (1.0 + k**2),
        lambda k: k**3,
    )
    for g in (FrequencyGrid(25.0, 2048), FrequencyGrid(4.0, 30)):  # n=30 has no half grid
        vec = integrate_spectrum(lambda k: np.stack([f(k) for f in rows]), g)
        singles = [integrate_spectrum(f, g) for f in rows]
        assert len(vec.value) == len(vec.est_error) == len(rows)
        assert vec.n_evals == singles[0].n_evals == g.n_points // 2 + (g.n_points // 4 if g.halved() else 0)
        for i, single in enumerate(singles):
            assert type(vec.value[i]) is type(single.value)
            assert vec.value[i] == single.value
            assert vec.est_error[i] == single.est_error


def test_nonfinite_value_in_any_row_raises():
    import re

    g = FrequencyGrid(2.0, 32)
    [(_, kappa)] = g.pieces()
    bad_kappa = float(kappa[5])
    for bad_row in range(3):

        def f(k, bad_row=bad_row):
            out = np.stack([np.cos(k), np.sin(k), k**2])
            out[bad_row, k == bad_kappa] = np.nan
            return out

        with pytest.raises(IntegrandError, match=f"row {bad_row} at kappa={re.escape(repr(bad_kappa))}"):
            integrate_spectrum(f, g)


def test_more_rows_on_half_grid_raise():
    g = FrequencyGrid(2.0, 64)

    def f(k):
        rows = 2 if k.size == g.n_points // 2 else 3
        return np.stack([np.cos(k)] * rows)

    with pytest.raises(IntegrandError, match="3 rows on the half grid but 2"):
        integrate_spectrum(f, g)


def test_fewer_rows_on_half_grid_floor_the_rest():
    # rows left out on the half grid keep their value and get the ulp floor
    # alone as est_error; the leading rows are those of an all-rows call
    g = FrequencyGrid(3.0, 256)

    def rows(k):
        return np.stack([np.exp(-(k**2)), np.cos(k) / (1.0 + k**2), np.sin(k) ** 2, np.abs(k)])

    full = integrate_spectrum(rows, g)
    for kept in (0, 1, 3):
        part = integrate_spectrum(lambda k: rows(k) if k.size == g.n_points // 2 else rows(k)[:kept], g)
        assert part.value == full.value
        assert part.n_evals == full.n_evals == 128 + 64
        assert part.est_error[:kept] == full.est_error[:kept]
        for i in range(kept, 4):
            _, [(_, abs_scale)] = _reduce(lambda k: rows(k)[i], g)
            floor = _ERROR_FLOOR_ULPS * np.finfo(float).eps * abs_scale
            assert part.est_error[i] == floor < full.est_error[i]


def test_adaptive_oracle_agrees():
    from scipy.integrate import quad

    res = integrate_spectrum(lambda k: 1.0 / (1.0 + k**2), FrequencyGrid(10.0, 512))
    adaptive, _ = quad(lambda k: 1.0 / (1.0 + k**2), -10.0, 10.0, limit=400)
    assert res.value == pytest.approx(adaptive / TWO_PI, rel=1e-10)


def test_integrand_error_propagates():
    # a vectorized integrand that raises is not re-run one point at a time
    calls = []

    def f(k):
        calls.append(np.size(k))
        raise ValueError("integrand failed")

    with pytest.raises(ValueError, match="integrand failed"):
        integrate_spectrum(f, FrequencyGrid(10.0, 64))
    assert calls == [32]


@pytest.mark.parametrize(
    "f, shape",
    [
        (lambda k: float(np.exp(-k[0] ** 2)), "()"),
        (lambda k: np.exp(-k[:-1] ** 2), "(31,)"),
        (lambda k: np.ones((2, 2, k.size)), "(2, 2, 32)"),
    ],
    ids=["scalar", "short", "three_dimensional"],
)
def test_wrong_shaped_integrand_raises_naming_the_shape(f, shape):
    import re

    with pytest.raises(IntegrandError, match=re.escape(f"shape {shape} for 32 kappa values")):
        integrate_spectrum(f, FrequencyGrid(10.0, 64))


def test_complex_integrand():
    # a complex integrand raises, naming the fix: its real, even cosine form
    g = FrequencyGrid(10.0, 128)
    for f in (lambda k: np.exp(-(k**2)) * np.exp(1j * k), lambda k: np.stack([np.exp(-(k**2))] * 2) + 0j):
        with pytest.raises(IntegrandError, match="complex128 samples; integrate a real function that is even"):
            integrate_spectrum(f, g)
    # FT of the Gaussian: sqrt(pi) e^{-1/4}, from the cosine alone
    res = integrate_spectrum(lambda k: np.exp(-(k**2)) * np.cos(k), g)
    expected = math.sqrt(math.pi) * math.exp(-0.25) / TWO_PI
    assert res.value == pytest.approx(expected, rel=1e-10)
    assert isinstance(res.value, float) and isinstance(res.est_error, float)


def test_determinism_bitwise():
    g = FrequencyGrid(25.0, 2048)
    p = AtomParams.from_damping(0.02, 1.0, 1.0)
    f = lambda k: k**2 * np.imag(atom_retarded_ft(k, p))
    a = integrate_spectrum(f, g)
    b = integrate_spectrum(f, g)
    assert a.value == b.value and a.est_error == b.est_error


# ---------------------------------------------------------------------------
# the exactly rounded reduction: math.fsum's bits on every input
# ---------------------------------------------------------------------------


def _exact_sum_of(terms):
    p = np.array(terms, dtype=float)
    scratch = np.abs(p)
    return math.fsum(_partials(p, float(scratch.max()), scratch))


def _assert_fsum_bits(terms):
    terms = np.asarray(terms, dtype=float)
    try:
        want = math.fsum(terms.tolist())
    except OverflowError as exc:
        with pytest.raises(OverflowError, match=str(exc)):
            _exact_sum_of(terms)
        return
    # float.hex tells -0.0 from 0.0
    assert _exact_sum_of(terms).hex() == want.hex()


def _cancelling(rng, n, lo, hi):
    """n terms spread over 10^lo..10^hi, then the negatives of half and near-negatives of a quarter."""
    p = rng.standard_normal(n) * 10.0 ** rng.uniform(lo, hi, n)
    p = np.concatenate([p, -p[: n // 2], -p[: n // 4] * (1.0 + 2.0**-52)])
    rng.shuffle(p)
    return p


@pytest.mark.parametrize("seed", range(40))
def test_exact_sum_matches_fsum_on_cancelling_spread_terms(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4000))
    _assert_fsum_bits(_cancelling(rng, n, -300.0, 300.0))
    _assert_fsum_bits(_cancelling(rng, n, -20.0, 20.0))
    # binary magnitudes produce exact half-way cases for the final rounding
    _assert_fsum_bits(rng.integers(-3, 4, n) * 2.0 ** rng.integers(-80, 80, n).astype(float))
    # large terms that cancel exactly leave the sum to what the passes leave over
    big = rng.standard_normal(n) * 10.0 ** rng.uniform(100.0, 300.0, n)
    _assert_fsum_bits(rng.permutation(np.concatenate([big, -big, _cancelling(rng, n, -300.0, -100.0)])))


@pytest.mark.parametrize(
    "terms",
    [
        [1.0, 2.0**-53],
        [1.0, 2.0**-53, 2.0**-106],
        [1.0, -(2.0**-54), 2.0**-160],
        [1e16, 1.0, 1e-16],
        [1e100, 1.0, -1e100, 1e-100],
        [0.1] * 10,
    ],
    ids=["tie_even", "tie_up", "tie_down", "fsum_doc", "cancel_1e100", "tenths"],
)
def test_exact_sum_rounds_ties_like_fsum(terms):
    _assert_fsum_bits(terms)


@pytest.mark.parametrize(
    "terms",
    [
        [1e308, 1e308, -1e308],
        [-1e308, -1e308, 1e308],
        [1.5e308, 1.5e308],
        [1e308, -1e308] * 3,
        [1e308, 1e308, -1e308, -1e308, 1.0],
        [2.0**1020, 2.0**1020, 2.0**1020, -(2.0**1020)],
        [1.5 * 2.0**1019, 1.75 * 2.0**1019, 2.0**-1000, -1.0],
    ],
    ids=[
        "overflow",
        "negative_overflow",
        "pair_overflow",
        "cancelled",
        "cancelled_plus_one",
        "sigma_past_2_1023",
        "sigma_at_2_1023",
    ],
)
def test_exact_sum_near_overflow_matches_fsum_or_its_error(terms):
    _assert_fsum_bits(terms)


@pytest.mark.parametrize("seed", range(8))
def test_exact_sum_matches_fsum_on_subnormal_terms(seed):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(1, 500))
    tiny = 5e-324
    _assert_fsum_bits(rng.integers(-(2**40), 2**40, n) * tiny)  # subnormal only
    _assert_fsum_bits(_cancelling(rng, n, -323.0, -300.0))  # subnormal mixed with near-subnormal
    # a normal top with subnormal tails below it, and a top just above the floor
    mixed = np.concatenate([_cancelling(rng, n, -320.0, -200.0), [1e-292, -1e-292 * (1 + 2**-52)]])
    _assert_fsum_bits(mixed)


@pytest.mark.parametrize(
    "terms",
    [[0.0], [-0.0], [-0.0] * 7, [0.0, -0.0, 0.0], [-0.0] * 4 + [0.0], [1.0, -1.0], [-0.0, 5e-324, -5e-324]],
    ids=[
        "zero",
        "negative_zero",
        "negative_zeros",
        "mixed_zeros",
        "mostly_negative_zeros",
        "cancelled",
        "cancelled_subnormal",
    ],
)
def test_exact_sum_signed_zeros_match_fsum(terms):
    _assert_fsum_bits(terms)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 31, 1001, 16385])
def test_exact_sum_matches_fsum_at_short_and_odd_lengths(n):
    rng = np.random.default_rng(n)
    _assert_fsum_bits(rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0, n))
    _assert_fsum_bits(np.full(n, 0.1))


def _sampled(g, vals):
    """An integrand that returns ``vals``, the samples at the kappa > 0 points of ``g``, at any run of them."""
    return lambda k: vals[..., np.searchsorted(np.concatenate([kappa for _, kappa in g.pieces()]), k)]


def _mirrored(vals):
    """Samples at the kappa > 0 points laid out on the whole symmetric grid, each copied onto its mirror image."""
    return np.concatenate([vals[..., ::-1], vals], axis=-1)


# one piece, then 2^17 + 12 points in four pieces (16385 and 16386 long) and 2^18 in eight
SIZES = (16, 62, 2048, 2**17 + 12, 2**18)


def _rows_of(rng, n):
    """Four real rows of n samples: cancelling spread terms, exact ties, and signed zeros alone."""
    return np.stack([
        _cancelling(rng, n, -12.0, 12.0)[:n],
        _cancelling(rng, n, -300.0, 300.0)[:n],
        rng.integers(-3, 4, n) * 2.0 ** rng.integers(-80, 80, n).astype(float),
        np.where(rng.random(n) < 0.5, 0.0, -0.0),
    ])


def test_reduce_real_rows_match_fsum_and_np_sum_across_pieces(mirror_pair_sums):
    # each row's value is math.fsum over all its weighted mirror pairs, bit
    # for bit, however many pieces the row came in, and abs_scale the
    # in-order sum of each piece's np.sum of their magnitudes
    assert [len(list(FrequencyGrid(10.0, n).pieces())) for n in SIZES] == [1, 1, 1, 4, 8]
    for n in SIZES:
        g = FrequencyGrid(10.0, n)
        vals = _rows_of(np.random.default_rng(n), n // 2)
        vector, rows = _reduce(_sampled(g, vals), g)
        assert vector and len(rows) == len(vals)
        for (value, abs_scale), (want, want_scale) in zip(rows, mirror_pair_sums(_mirrored(vals), g)):
            assert value.hex() == want.hex()
            assert abs_scale == want_scale




@pytest.mark.parametrize("gamma", [0.001, 0.1, 1.0, 10.0])
@pytest.mark.parametrize("beta", [math.inf, 0.1, 1.0, 100.0])
def test_budget_rows_reduce_to_fsum_bits(gamma, beta, monkeypatch, mirror_pair_sums):
    # every row power_budget reduces, three on the full grid and two on the
    # half grid, gets the bits of math.fsum over the weighted mirror pairs of
    # its kappa > 0 samples, and est_error those of the
    # reference sums; a 2^17 grid comes in four pieces and its half grid in
    # two.  The reference is computed in this process from the rows the
    # quadrature was handed, so the build's SIMD kernels cannot move the comparison
    from atomflux import flux

    calls = []

    def capture(f, grid):
        handed = []

        def recording(k):
            handed.append(f(k))
            return handed[-1]

        calls.append((grid, handed, integrate_spectrum(recording, grid)))
        return calls[-1][2]

    def reference(row, g):
        [sums] = mirror_pair_sums(_mirrored(row), g)
        return sums

    monkeypatch.setattr(flux, "integrate_spectrum", capture)
    p = AtomParams.from_damping(gamma, 1.0, 1.0)
    ulps = _ERROR_FLOOR_ULPS * float(np.finfo(float).eps)
    for lam in (10.0, 100.0, 1000.0):
        flux.power_budget(p, BathSpec(beta), FrequencyGrid(lam, 2**17))
        grid, handed, res = calls.pop()
        coarse = grid.halved()
        assert len(handed) == 4 + 2
        fine_rows, coarse_rows = np.hstack(handed[:4]), np.hstack(handed[4:])
        assert fine_rows.shape == (3, grid.n_points // 2)
        assert coarse_rows.shape == (2, coarse.n_points // 2)
        for i, row in enumerate(fine_rows):
            value, abs_scale = reference(row, grid)
            est_error = ulps * abs_scale
            if i < len(coarse_rows):
                est_error += abs(value - reference(coarse_rows[i], coarse)[0]) / 15.0
            assert res.value[i].hex() == value.hex()
            assert res.est_error[i] == est_error


def test_nonfinite_sample_in_the_last_piece_names_its_global_index():
    import re

    # kappa > 0 points 49156 to 65541 are the last of four pieces
    g = FrequencyGrid(50.0, 2**17 + 12)
    *_, (lo, kappa) = g.pieces()
    assert (lo, lo + kappa.size) == (49156, 65542)
    points = np.concatenate([kappa for _, kappa in g.pieces()])
    for index in (49156, 65541, 0):
        bad_kappa = float(points[index])

        def f(k, bad_kappa=bad_kappa):
            out = np.stack([np.cos(k), k**2])
            out[1, k == bad_kappa] = np.inf
            return out

        match = f"row 1 at kappa={re.escape(repr(bad_kappa))} \\(index {index} of the kappa > 0 half\\)"
        with pytest.raises(IntegrandError, match=match):
            integrate_spectrum(f, g)


@pytest.mark.parametrize("n", [8, 2**14 - 1, 2**14, 2**15 - 1, 2**17 + 6, 2**19])
def test_pieces_split_a_range_evenly(n):
    # contiguous ascending runs covering the n kappa > 0 points of a grid,
    # each 2^14 to 2^15 - 1 points long, or a single run when n is shorter
    # than 2^14; each point has the bits it has in one run of all n
    g = FrequencyGrid(10.0, 2 * n)
    runs = list(g.pieces())
    los, his = [lo for lo, _ in runs], [lo + kappa.size for lo, kappa in runs]
    assert los[0] == 0 and his[-1] == n and los[1:] == his[:-1]
    if n >= 2**14:
        assert all(2**14 <= kappa.size <= 2**15 - 1 for _, kappa in runs)
    else:
        assert len(runs) == 1
    assert np.array_equal(np.concatenate([kappa for _, kappa in runs]), (np.arange(n) + 0.5) * g.spacing)


def test_integer_and_boolean_samples_integrate_as_floats():
    g = FrequencyGrid(2.0, 64)
    for f, as_float in (
        (lambda k: k > 1.0, lambda k: np.where(k > 1.0, 1.0, 0.0)),
        (lambda k: np.ones(k.size, dtype=int), lambda k: np.ones(k.size)),
    ):
        got, want = integrate_spectrum(f, g), integrate_spectrum(as_float, g)
        assert got.value.hex() == want.value.hex()
        assert got.est_error == want.est_error


def test_integrand_sees_pieces_in_ascending_order_then_the_half_grid():
    seen = []

    def f(k):
        seen.append(k.copy())
        return np.exp(-(k**2))

    g = FrequencyGrid(8.0, 2**17 + 12)
    integrate_spectrum(f, g)
    # four pieces of the 65542 kappa > 0 points, then two of the half grid's 32771
    assert [k.size for k in seen] == [16385, 16386] * 3
    for grid, run in ((g, seen[:4]), (g.halved(), seen[4:])):
        assert np.array_equal(np.concatenate(run), (np.arange(grid.n_points // 2) + 0.5) * grid.spacing)


def test_a_piece_with_another_row_count_raises():
    g = FrequencyGrid(2.0, 2**17)

    def f(k):
        return np.stack([np.cos(k)] * (3 if k.max() < 1.9 else 2))  # the last piece drops a row

    with pytest.raises(IntegrandError, match="shape \\(2, 16384\\) .* after leading shape \\(3,\\)"):
        integrate_spectrum(f, g)


# ---------------------------------------------------------------------------
# the half-line rule: kappa > 0 alone, with the bits of the mirror-pair sum
# ---------------------------------------------------------------------------


def _late_time(dt):
    """The late-time integrand of ``interacting_hadamard_late`` at t - t' = dt (C8's atom, r and thermal bath)."""
    p = AtomParams.from_damping(0.05, 1.0, 1.0)
    return lambda k: corrected_hadamard_spectrum(30.0, k, p, BathSpec(1.0)) * np.cos(k * dt)


@pytest.mark.parametrize("n", [16, 30, 4096, 65540])  # n = 30 has no half grid
def test_even_grid_matches_mirror_grid_bitwise(n, mirror_values, mirror_pair_sums):
    # each integrand is bitwise even on the whole symmetric grid, so the h/pi
    # rule on its kappa > 0 samples alone gives the bits of math.fsum over the
    # mirror grid's weighted pairs, and est_error those of the same reference
    # on the half grid
    def reference(f, grid):
        samples = f(mirror_values(grid))
        assert np.array_equal(samples, samples[..., ::-1])  # bitwise even on the mirror grid
        return mirror_pair_sums(samples, grid)

    g = FrequencyGrid(8.0, n)
    ulps = _ERROR_FLOOR_ULPS * float(np.finfo(float).eps)
    integrands = (
        lambda k: np.stack([np.exp(-(k**2)), np.cos(k) / (1.0 + k**2), k**2, np.abs(k) * 1e-300]),
        lambda k: np.exp(-(k**2)),
        *(_late_time(dt) for dt in (0.0, 1.7, -7.25)),
    )
    for f in integrands:
        fine = reference(f, g)
        coarse = reference(f, g.halved()) if g.halved() else []
        got = integrate_spectrum(f, g)
        assert got.n_evals == n // 2 + (n // 4 if coarse else 0)
        values = np.atleast_1d(got.value)
        est_errors = np.atleast_1d(got.est_error)
        for i, (value, abs_scale) in enumerate(fine):
            est_error = ulps * abs_scale
            if coarse:
                est_error += abs(value - coarse[i][0]) / 15.0
            assert values[i].hex() == value.hex()
            assert est_errors[i] == est_error


def test_even_grid_nonfinite_sample_names_kappa_and_index():
    import re

    g = FrequencyGrid(2.0, 32)
    [(_, kappa)] = g.pieces()
    bad_kappa = float(kappa[5])

    def f(k):
        out = np.stack([np.cos(k), k**2])
        out[1, 5] = np.nan
        return out

    match = f"row 1 at kappa={re.escape(repr(bad_kappa))} \\(index 5 of the kappa > 0 half\\)"
    with pytest.raises(IntegrandError, match=match):
        integrate_spectrum(f, g)


def test_even_grid_full_length_return_raises():
    import re

    g = FrequencyGrid(2.0, 32)
    with pytest.raises(IntegrandError, match=re.escape("shape (32,) for 16 kappa values")):
        integrate_spectrum(lambda k: np.ones(2 * k.size), g)


# ---------------------------------------------------------------------------
# cutoff sweeps and the log-slope diagnostic
# ---------------------------------------------------------------------------

# three decades of cutoff
SWEEP_GRIDS = [FrequencyGrid(10.0, 2**13), FrequencyGrid(100.0, 2**15), FrequencyGrid(1000.0, 2**17)]


def test_cutoff_sweep_log_growth_of_radiated_power():
    p = AtomParams.from_damping(0.1, 1.0, 1.0)
    vac = BathSpec.vacuum()
    vals = [integrate_spectrum(lambda k: radiated_power_density(k, p, vac), g).value for g in SWEEP_GRIDS]
    assert vals[0] < vals[1] < vals[2]
    # successive differences over equal log-steps approach the same slope
    d1, d2 = vals[1] - vals[0], vals[2] - vals[1]
    assert d2 / d1 == pytest.approx(1.0, abs=0.10)


def test_cutoff_sweep_cancelled_integrand_stays_zero():
    p = AtomParams.from_damping(0.1, 1.0, 1.0)
    vac = BathSpec.vacuum()
    r_obs = 50.0
    for g in SWEEP_GRIDS:
        nres = integrate_spectrum(lambda k: far_field_flux_integrand(r_obs, k, p, vac), g)
        pres = integrate_spectrum(lambda k: radiated_power_density(k, p, vac), g)
        shell = 4.0 * math.pi * r_obs**2 * TWO_PI
        assert abs(shell * nres.value) <= 1e-10 * abs(pres.value)


def test_cutoff_sweep_even_lorentzian_monotone():
    vals = [
        integrate_spectrum(lambda k: 1.0 / (1.0 + k**2), FrequencyGrid(lam, 4096)).value
        for lam in (5.0, 20.0, 80.0, 320.0)
    ]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(math.pi / TWO_PI, rel=1e-2)


def test_fit_log_slope_recovers_synthetic():
    lams = np.array([10.0, 100.0, 1000.0, 10000.0])
    vals = 0.3 + 0.045 * np.log(lams)
    slope, intercept, r2 = fit_log_slope(lams, vals)
    assert slope == pytest.approx(0.045, rel=1e-12)
    assert intercept == pytest.approx(0.3, rel=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        fit_log_slope([1.0, 2.0], [1.0, 2.0])
