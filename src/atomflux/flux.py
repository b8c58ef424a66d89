"""Far-field energy flux of the interacting field and the four-way power budget.

The correction ``GH - G0H`` to the field's Hadamard function generated by a
static atom is evaluated two ways:

* ``interacting_hadamard_late``: the late-time frequency-domain form (three
  correction terms under a single kappa integral);
* ``interacting_hadamard_direct``: a brute-force oracle that integrates the
  full pre-equilibrium double time history, including the decaying transient
  sourced by the oscillator's initial data.

The radial energy flux is assembled from the frequency-domain form with the
coincidence-limit derivatives taken analytically (each d/dt' -> +i kappa,
d/dr acting on exp(i kappa r)/4 pi r), the solid angle integrated out
(static atom => isotropy => factor 4 pi r^2), and only the far-field 1/r
pieces kept in the budget.  The near-field terms survive in a diagnostic
integrand.  The net flux integrand cancels identically point by point, so the
budget's net flow is assembled from that cancelled integrand rather than as a
difference of two cutoff-dependent numbers.

Every integrand handed to the quadrature is real and bitwise even in kappa:
the budget's three (the P_r and P_gamma densities and the cancelled net
integrand) and the late-time ``corrected_hadamard_spectrum * cos(kappa dt)``.
So each is evaluated on the kappa > 0 half of each grid only, one quadrature
piece at a time, and its memory does not grow with the grid.  The net
integrand is evaluated on the full grid alone: its half-grid error estimate
would go unread.

Sign convention for the recorded flows (the magnitude balances are the
physical statements): P_r >= 0 is the outward pure-radiation flow, P_cross =
-P_r the interference backflow, P_gamma <= 0 the oscillator's dissipation
flow, and P_xi = -P_gamma the local fluctuation input.
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass

import numpy as np

from .greens import (
    FOUR_PI,
    AtomParams,
    BathSpec,
    FrequencyGrid,
    atom_hadamard_ft,
    atom_retarded_ft,
    check_nyquist,
    damped_cos,
    damped_sinc,
    fast_fft_length,
    field_hadamard_ft,
    field_retarded_ft,
    thermal_factor,
)
from .spectral import integrate_spectrum

TWO_PI = 2.0 * math.pi

_LATE_TIME_MARGIN = 20.0  # relaxation and light-crossing times before the late-time formulas hold
# Filon panels of a lag kernel: each panel spans at most this much phase of
# sin(kappa r), and there are never fewer than the floor
_FILON_PANEL_PHASE = 0.075
_FILON_MIN_PANELS = 8192
_FILON_BLOCK = 4096  # lags per block of the Filon weights and the final sum


@dataclass(frozen=True)
class ObservationFrame:
    """Observation geometry: one field point at distance r, two times t, t'.

    The late-time formulas require both times to exceed 20 relaxation times
    1/gamma and 20 light-crossing times r.
    """

    r: float
    t: float
    t_prime: float

    def __post_init__(self):
        if not self.r > 0:
            raise ValueError(f"observation distance r must be positive, got {self.r}")

    @property
    def dt_obs(self) -> float:
        return self.t - self.t_prime

    def late_time_ok(self, gamma: float) -> bool:
        t_min = _LATE_TIME_MARGIN * max(1.0 / gamma, self.r)
        return self.t >= t_min and self.t_prime >= t_min


# ---------------------------------------------------------------------------
# frequency-domain flux integrands and the power budget
# ---------------------------------------------------------------------------


# The densities share their expressions through these helpers, which take
# kernel samples already evaluated: the public densities pass freshly computed
# kernels, while ``power_budget`` computes each kernel once per grid point and feeds
# every density from the same samples.


def _radiated(p: AtomParams, kap2, atom_hadamard):
    return (p.e**2 / p.m) * (kap2 / FOUR_PI) * atom_hadamard


def _dissipated(p: AtomParams, kap, im_g, field_hadamard_origin):
    return -(p.e**2 / p.m) * kap * im_g * field_hadamard_origin


def _far_field_prefactor(p: AtomParams, kap2, th):
    return (p.e**2 / p.m) * kap2 * th / TWO_PI


def _far_field_terms(pref, u, g):
    # yields the terms one at a time, so a caller summing them holds two at most
    yield pref * np.real(1j * np.real(u) * np.conj(u) * np.conj(g))  # interference a
    yield pref * np.real(-np.imag(u) * u * g)  # interference b
    yield pref * np.real(1j * g * (u * np.conj(u)))  # radiation


def radiated_power_density(kappa, p: AtomParams, bath: BathSpec):
    """Plain-dkappa density of the outward pure-radiation flow P_r.

    (e^2/m) (kappa^2 / 4 pi) thermal_factor(kappa) Im GR(kappa); even in kappa
    and pointwise nonnegative, with a 1/kappa tail that makes the integral grow
    logarithmically with the cutoff.  Written through the oscillator Hadamard
    transform so the kappa = 0 limit (zero) is usable by adaptive oracles.
    """
    kap = np.asarray(kappa, dtype=float)
    return _radiated(p, kap**2, atom_hadamard_ft(kap, p, bath))


def dissipated_power_density(kappa, p: AtomParams, bath: BathSpec):
    """Plain-dkappa density of the oscillator dissipation flow P_gamma.

    -(e^2/m) kappa Im GR(kappa) G0H(0;kappa).  Algebraically the exact negative
    of ``radiated_power_density`` (the coincidence limit of the field Hadamard
    kernel is kappa/(4 pi) times the thermal factor), but assembled through the
    independent Hadamard route so the budget compares two computations.
    """
    kap = np.asarray(kappa, dtype=float)
    return _dissipated(p, kap, np.imag(atom_retarded_ft(kap, p)), field_hadamard_ft(0.0, kap, bath))


def far_field_flux_terms(r: float, kappa, p: AtomParams, bath: BathSpec):
    """The three far-field constituents of the net-flux integrand, separately.

    Each carries the full prefactor (e^2/m) kappa^2 thermal_factor / (2 pi);
    their sum cancels identically (conjugate-reflection symmetry makes the
    symmetrized integrand vanish point by point), so the individual terms set
    the scale against which the cancellation is measured.
    """
    kap = np.asarray(kappa, dtype=float)
    u = field_retarded_ft(r, kap)
    g = atom_retarded_ft(kap, p)
    pref = _far_field_prefactor(p, kap**2, thermal_factor(kap, bath))
    return tuple(_far_field_terms(pref, u, g))


def far_field_flux_integrand(r: float, kappa, p: AtomParams, bath: BathSpec):
    """Pointwise-cancelled far-field net-flux integrand (1/2 pi measure included).

    Identically zero up to rounding of its constituents; integrating it gives
    the net radiated power without ever subtracting two large numbers.
    """
    a, b, c = far_field_flux_terms(r, kappa, p, bath)
    return a + b + c


def near_field_flux_integrand(r: float, kappa, p: AtomParams, bath: BathSpec):
    """Diagnostic integrand retaining the 1/r near-field derivative terms.

    Reduces to the far-field form when kappa*r >> 1; excluded from the budget.
    """
    kap = np.asarray(kappa, dtype=float)
    u = field_retarded_ft(r, kap)
    g = atom_retarded_ft(kap, p)
    th = thermal_factor(kap, bath)
    g0h = field_hadamard_ft(r, kap, bath)
    term1 = 1j * kap * (kap * th * np.real(u) - g0h / r) * np.conj(u) * np.conj(g)
    term2 = 1j * kap * (1j * kap - 1.0 / r) * g0h * u * g
    term3 = 1j * kap * (1j * kap - 1.0 / r) * th * np.imag(g) * (u * np.conj(u))
    return (p.e**2 / p.m) * np.real(term1 + term2 + term3) / TWO_PI


@dataclass
class PowerBudget:
    """The four power flows, the pointwise-cancelled net flux, and their context.

    The fields are in the order of ``CSV_COLUMNS``, which names them in
    ``budget.csv`` and in ``to_dict``.
    """

    omega: float
    gamma: float
    beta: float
    cutoff: float
    p_r: float
    p_cross: float
    p_gamma: float
    p_xi: float
    net_far_field: float
    est_error: float

    CSV_COLUMNS = (
        "omega",
        "gamma",
        "beta",
        "Lambda",
        "P_r",
        "P_cross",
        "P_gamma",
        "P_xi",
        "net",
        "est_error",
    )

    def csv_row(self) -> str:
        return ",".join(repr(v) for v in astuple(self))

    def to_dict(self) -> dict:
        return dict(zip(self.CSV_COLUMNS, astuple(self)))


def _budget_rows(p: AtomParams, bath: BathSpec, r: float, kap, out):
    """Write the P_r density, the P_gamma density and the net integrand at ``kap`` into ``out``.

    With only two rows in ``out`` the net integrand is skipped.
    """
    kap2 = kap**2
    th = thermal_factor(kap, bath)
    g = atom_retarded_ft(kap, p)
    im_g = np.imag(g)
    # the grid never contains kappa = 0, so the Hadamard kernels reduce to
    # thermal_factor times Im GR and times kappa/(4 pi)
    out[0] = _radiated(p, kap2, th * im_g)
    out[1] = _dissipated(p, kap, im_g, th * (kap / FOUR_PI))
    if len(out) == 2:
        return
    terms = _far_field_terms(_far_field_prefactor(p, kap2, th), field_retarded_ft(r, kap), g)
    np.add(next(terms), next(terms), out=out[2])
    out[2] += next(terms)


def power_budget(
    p: AtomParams, bath: BathSpec, grid: FrequencyGrid, r: float | None = None
) -> PowerBudget:
    """Evaluate the four flows and the pointwise-cancelled net far-field flux.

    ``r`` is the far-field evaluation radius for the cancelled integrand; the
    1/(4 pi r)^2 kernel factors cancel against the 4 pi r^2 shell area, so the
    result is r-independent.

    One pass per grid: the kernels are sampled once and feed three rows (the
    P_r density, the P_gamma density and the net far-field integrand), which a
    single quadrature call reduces.  Each row holds the same floats as the
    public density of that flow, so the flows equal separate integrations of
    those densities bit for bit.  Only ``est_error`` reads the Richardson half
    grid, and it sums the P_r and P_gamma rows' errors, so the half grid
    evaluates those two rows and not the far-field terms.

    All three rows are bitwise even in kappa, so the quadrature's h/pi rule
    on [0, cutoff] integrates them over (-cutoff, cutoff): they are evaluated
    on the kappa > 0 half alone, one quadrature piece at a time
    (``FrequencyGrid.pieces``).  Memory is that of a piece, whatever the grid
    size.  The piece layout keeps the net row's ``u * np.conj(u)`` rounding as
    on the whole half (see ``greens._PIECE``).
    """
    if r is None:
        r = 100.0 / p.omega
    full = grid.n_points // 2  # the kappa > 0 points of the full grid, handed over first
    handed = 0

    def integrand(kap):
        # the net row's est_error is never read, so the half grid skips it
        nonlocal handed
        handed += kap.size
        rows = np.empty((3 if handed <= full else 2, kap.size))
        _budget_rows(p, bath, r, kap, rows)
        return rows

    res = integrate_spectrum(integrand, grid)
    p_r, p_gamma, net_integral = res.value
    # far_field_flux_integrand already carries the 1/(2 pi) measure, so undo the
    # integrator's copy; the net radiated power is minus the shell integral.
    net = -FOUR_PI * r**2 * (TWO_PI * net_integral)
    return PowerBudget(
        omega=p.omega,
        gamma=p.gamma,
        beta=bath.beta,
        cutoff=grid.cutoff,
        p_r=p_r,
        p_cross=-p_r,
        p_gamma=p_gamma,
        p_xi=-p_gamma,
        net_far_field=net,
        est_error=res.est_error[0] + res.est_error[1],
    )


# ---------------------------------------------------------------------------
# late-time interacting Hadamard function (frequency domain)
# ---------------------------------------------------------------------------


def corrected_hadamard_spectrum(r: float, kappa, p: AtomParams, bath: BathSpec):
    """kappa-density of GH - G0H at equal separations r1 = r2 = r (without e^2/m).

    Two interference terms plus the FDR-collapsed radiation term; with both
    points at the same distance the interference pair is a complex-conjugate
    pair, so the density is real and even in kappa.
    """
    kap = np.asarray(kappa, dtype=float)
    u = field_retarded_ft(r, kap)
    g = atom_retarded_ft(kap, p)
    interference = field_hadamard_ft(r, kap, bath) * 2.0 * np.real(u * g)
    radiation = thermal_factor(kap, bath) * np.imag(g) * np.real(u * np.conj(u))
    return interference + radiation


def interacting_hadamard_late(
    frame: ObservationFrame,
    p: AtomParams,
    bath: BathSpec,
    grid: FrequencyGrid,
) -> float:
    """GH - G0H at late times from the frequency-domain correction terms.

    Stationary in the two times separately; only t - t' enters.  The density
    ``corrected_hadamard_spectrum`` is real and even in kappa, so its Fourier
    integral against exp(-i kappa (t - t')) is real: the sine part is odd and
    vanishes, and the quadrature integrates the real, even
    ``corrected_hadamard_spectrum(r, kappa) * cos(kappa (t - t'))``.  It is
    evaluated for any frame; ``frame.late_time_ok`` says whether the frame is
    late enough for it to hold.
    """
    dt_obs = frame.dt_obs

    def integrand(kap):
        return corrected_hadamard_spectrum(frame.r, kap, p, bath) * np.cos(kap * dt_obs)

    return (p.e**2 / p.m) * integrate_spectrum(integrand, grid).value


# ---------------------------------------------------------------------------
# brute-force time-domain oracle
# ---------------------------------------------------------------------------


def transient_correlator(s, s_prime, p: AtomParams):
    """Symmetric autocorrelation of the freely decaying oscillator coordinate.

    The oscillator starts in its ground state: second moments <Q^2> =
    1/(2 m omega) and <Qdot^2> = omega/(2 m), no cross correlation.  Returns
    <{Q_h(s), Q_h(s')}>/2, which in the weak coupling limit reduces to
    cos(omega (s - s')) / (2 m omega).
    """
    q_var = 1.0 / (2.0 * p.m * p.omega)
    qdot_var = p.omega / (2.0 * p.m)
    f_s = damped_cos(s, p) + p.gamma * damped_sinc(s, p)
    f_sp = damped_cos(s_prime, p) + p.gamma * damped_sinc(s_prime, p)
    g_s = damped_sinc(s, p)
    g_sp = damped_sinc(s_prime, p)
    return f_s * f_sp * q_var + g_s * g_sp * qdot_var


def _filon_coefficients(theta: np.ndarray):
    """Filon quadrature weights (alpha, beta, gamma) with a small-angle series branch."""
    theta = np.asarray(theta, dtype=float)
    alpha = np.empty_like(theta)
    beta = np.empty_like(theta)
    gamma = np.empty_like(theta)
    small = np.abs(theta) < 0.1
    ts = theta[small]
    t2 = ts * ts
    alpha[small] = ts * t2 * (2.0 / 45.0 - t2 * (2.0 / 315.0 - t2 * (2.0 / 4725.0)))
    beta[small] = 2.0 / 3.0 + t2 * (2.0 / 15.0 - t2 * (4.0 / 105.0 - t2 * (2.0 / 567.0)))
    gamma[small] = 4.0 / 3.0 - t2 * (2.0 / 15.0 - t2 * (1.0 / 210.0 - t2 * (1.0 / 11340.0)))
    tl = theta[~small]
    sin_t = np.sin(tl)
    cos_t = np.cos(tl)
    t3 = tl**3
    alpha[~small] = (tl**2 + tl * sin_t * cos_t - 2.0 * sin_t**2) / t3
    beta[~small] = 2.0 * (tl * (1.0 + cos_t**2) - 2.0 * sin_t * cos_t) / t3
    gamma[~small] = 4.0 * (sin_t - tl * cos_t) / t3
    return alpha, beta, gamma


def _chirp_powers(z: complex, e: np.ndarray) -> np.ndarray:
    """``z ** e`` for a complex scalar ``z`` and real exponents ``e`` that grow in magnitude.

    numpy raises a complex number to an integer exponent below 100 in
    magnitude by repeated multiplication, and to any other through the C
    library's cpow, which glibc computes as cexp(e clog z).  The exp-log form
    here takes clog z once rather than once per entry; the leading 100
    entries, which hold every exponent numpy multiplies out, come from ``**``
    itself, so the bits are those of ``z ** e``.
    """
    out = e * np.log(z)
    np.exp(out, out=out)
    out[:100] = z ** e[:100]
    return out


def _filon_cos_uniform(svals: np.ndarray, h: float, tau0: float, dtau: float, m: int) -> np.ndarray:
    """Filon integral \\int_0^{n h} S(kappa) cos(kappa tau) dkappa on a uniform tau grid.

    ``svals`` holds S at kappa_j = j h (an even number of panels); the result is
    returned at tau_k = tau0 + k dtau for k = 0..m-1.  The oscillatory node sums
    over even and odd j are chirp-z transforms (Bluestein's algorithm), so the
    cost is O((n + m) log) rather than n * m.  Both sums share one chirp
    w^(k^2/2) and one run of powers a^-k, each built once (``_chirp_powers``).
    Every other step repeats the arithmetic of ``scipy.signal.czt`` in its
    order, on the FFT lengths of ``scipy.fft.next_fast_len``
    (``fast_fft_length``).  The transforms run in ``numpy.fft``, the same
    pocketfft code as ``scipy.fft``, so the bits are those of one ``czt`` call
    per sum and the oracle loads no scipy module.  The Filon weights and the
    final sum are elementwise in tau, and are evaluated in blocks of
    ``_FILON_BLOCK`` lags so that their temporaries do not grow with m.
    """
    n_nodes = svals.size
    if n_nodes < 3 or n_nodes % 2 == 0:
        raise ValueError("need an odd number of nodes (even number of Filon panels)")

    even, odd = svals[0::2], svals[1::2]
    step = 2.0 * h
    a = np.exp(-1j * step * tau0)
    w = np.exp(1j * step * dtau)
    size = max(m, even.size)
    k = np.arange(size, dtype=np.min_scalar_type(-(size**2)))
    wk2 = _chirp_powers(w, k**2 / 2.0)
    a_k = _chirp_powers(a, -k[: even.size])  # the odd sum's powers are its leading entries
    del k

    # node sums Sum_j S_j exp(i kappa_j tau_k) over even / odd j; each padded
    # array is dropped once consumed, so at most two are held at a time
    def _node_sum(x):
        n = x.size
        nfft = fast_fft_length(n + m - 1)
        awk2 = a_k[:n] * wk2[:n]
        fwk2 = np.fft.fft(1 / np.hstack((wk2[n - 1 : 0 : -1], wk2[:m])), nfft)
        product = fwk2 * np.fft.fft(x * awk2, nfft)
        del fwk2
        sums = np.fft.ifft(product)
        del product
        return sums[n - 1 : n + m - 1] * wk2[:m]

    even_real = _node_sum(even).real.copy()  # the complex sum is not kept
    odd_sum = _node_sum(odd)
    del wk2, a_k

    lam = (n_nodes - 1) * h
    s_first = svals[0]
    s_last = svals[-1]
    out = np.empty(m)
    for lo in range(0, m, _FILON_BLOCK):
        hi = min(lo + _FILON_BLOCK, m)
        taus = tau0 + dtau * np.arange(lo, hi)
        # the kappa = 0 end contributes s_first * cos(0) = s_first and s_first * sin(0) = 0
        c_even = even_real[lo:hi] - 0.5 * (s_first + s_last * np.cos(lam * taus))
        c_odd = (np.exp(1j * h * taus) * odd_sum[lo:hi]).real
        alpha, beta, gamma = _filon_coefficients(h * taus)
        endpoint = s_last * np.sin(lam * taus)
        out[lo:hi] = h * (alpha * endpoint + beta * c_even + gamma * c_odd)
    return out


def free_hadamard_kernel_lags(
    r: float,
    bath: BathSpec,
    cutoff: float,
    tau0: float,
    dtau: float,
    m: int,
    n_kappa: int,
) -> np.ndarray:
    """Time-domain free Hadamard kernel G0H(r; tau) regulated at ``cutoff``.

    (1/pi) \\int_0^cutoff G0Hbar(r;kappa) cos(kappa tau) dkappa evaluated on the
    uniform lag grid tau0 + k dtau.  ``n_kappa`` is the (even) number of Filon
    panels; the node spacing must resolve the sin(kappa r) oscillation, which
    ``_filon_panels(cutoff, r)`` panels do to within 1e-6 of max|K|.
    """
    if n_kappa % 2 != 0:
        raise ValueError("n_kappa must be even")
    nodes = np.linspace(0.0, cutoff, n_kappa + 1)
    svals = field_hadamard_ft(r, nodes, bath)
    return _filon_cos_uniform(svals, cutoff / n_kappa, tau0, dtau, m) / math.pi


def _filon_panels(cutoff: float, r: float) -> int:
    """The Filon panel count of a lag kernel at distance ``r`` regulated at ``cutoff``.

    The smallest even count whose panel width times r is at most 0.075, and
    never fewer than 8192: the panels then resolve sin(kappa r), and the
    kernel is within 1e-6 of max|K| of its converged value.
    """
    return max(_FILON_MIN_PANELS, 2 * math.ceil(cutoff * r / (2.0 * _FILON_PANEL_PHASE)))


def _simpson_weights(n_intervals: int, h: float) -> np.ndarray:
    w = np.ones(n_intervals + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def _fft_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = a.size + b.size - 1
    nfft = 1 << (n - 1).bit_length()
    return np.fft.irfft(np.fft.rfft(a, nfft) * np.fft.rfft(b, nfft), nfft)[:n]


@dataclass
class HadamardOracleResult:
    """Per-term breakdown of the brute-force GH - G0H evaluation."""

    interference_a: float
    interference_b: float
    radiation: float
    transient: float
    t_eff: float
    t_prime_eff: float
    time_step: float

    @property
    def total(self) -> float:
        return self.interference_a + self.interference_b + self.radiation + self.transient

    def to_dict(self) -> dict:
        return {**asdict(self), "total": self.total}


def interacting_hadamard_direct(
    frame: ObservationFrame,
    p: AtomParams,
    bath: BathSpec,
    time_step: float,
    cutoff: float,
) -> HadamardOracleResult:
    """Brute-force GH - G0H from the switch-on at time zero, by time quadrature.

    The retarded field kernels are delta functions and are resolved analytically
    (one time integral each collapses onto the retarded emission times t - r and
    t' - r); the remaining single histories use composite Simpson, and the
    double history of the pure-radiation term is a Simpson x Simpson quadrature
    evaluated through an FFT convolution against the stationary kernel
    G0H(0; s - s'), which is even in s - s' and is evaluated at |s - s'| only.
    The free-field Hadamard kernels are regulated at ``cutoff``
    (match it with the grid cutoff of the late-time evaluation); each is a
    Filon integral over ``_filon_panels(cutoff, r)`` panels, at its own r.

    Both emission times are snapped onto a common step no larger than
    ``time_step`` (reported in the result); outside the light cone (t < r) every
    term vanishes identically.  ``time_step`` above pi/cutoff raises
    ``NyquistError``: the history could not resolve the kernels' band.  Cost is
    O((t/dt) log(t/dt)) kernel operations plus the Filon evaluation of the lag
    kernels, O(cutoff r) nodes each.
    """
    if time_step <= 0:
        raise ValueError("time_step must be positive")
    check_nyquist("time_step", time_step, cutoff)
    r = frame.r
    pref_single = (p.e**2 / p.m) / (FOUR_PI * r)
    pref_double = (p.e**2 / p.m) ** 2 / (FOUR_PI * r) ** 2
    pref_transient = p.e**2 / (FOUR_PI * r) ** 2

    u_raw = frame.t - r
    up_raw = frame.t_prime - r
    longest = max(u_raw, up_raw)
    if longest <= 0.0:
        return HadamardOracleResult(0.0, 0.0, 0.0, 0.0, frame.t, frame.t_prime, time_step)

    m_long = 2 * max(1, math.ceil(longest / (2.0 * time_step)))
    step = longest / m_long

    def _snap(u):
        if u < 0.0:
            return None, u
        m_u = 2 * int(round(u / (2.0 * step)))
        return m_u, m_u * step

    m_u, u_eff = _snap(u_raw)
    m_up, up_eff = _snap(up_raw)
    t_eff = frame.t if m_u is None else r + u_eff
    tp_eff = frame.t_prime if m_up is None else r + up_eff

    def _history(m_hist):
        # Simpson weights and GR samples over the emission history v in [0, u]:
        # the retarded response at the lags v >= 0 is damped_sinc itself
        if not m_hist:  # outside the light cone, or an empty history
            return None
        return _simpson_weights(m_hist, step), damped_sinc(step * np.arange(m_hist + 1), p)

    hist_u = _history(m_u)
    hist_up = hist_u if m_up == m_u else _history(m_up)  # one history when t = t'

    def _history_integral(hist, history_end, other_obs_time):
        # Simpson over the history: GR(v) * G0H(r; (other_obs_time - history_end) + v)
        if hist is None:
            return 0.0
        w, grg = hist
        tau0 = other_obs_time - history_end
        kern = free_hadamard_kernel_lags(
            r, bath, cutoff, tau0, step, grg.size, _filon_panels(cutoff, r)
        )
        return float(np.dot(w, grg * kern))

    term_a = pref_single * _history_integral(hist_up, up_eff, t_eff)
    # with one history the two interference terms are the same integral
    term_b = term_a if hist_up is hist_u else pref_single * _history_integral(hist_u, u_eff, tp_eff)

    if hist_u is None or hist_up is None:
        term_c = 0.0
    else:
        (w_u, grg_u), (w_up, grg_up) = hist_u, hist_up
        # G0H(0; tau) is even in tau: evaluate it at the lags 0 .. max(m_u, m_up)
        # steps, and read the window s - s' = m_u .. -m_up steps off it by |lag|
        kern = free_hadamard_kernel_lags(
            0.0, bath, cutoff, 0.0, step, max(m_u, m_up) + 1, _filon_panels(cutoff, 0.0)
        )
        conv = _fft_convolve(w_up * grg_up, np.concatenate((kern[m_u:0:-1], kern[: m_up + 1])))
        inner = conv[m_up : m_up + m_u + 1]
        term_c = pref_double * float(np.dot(w_u * grg_u, inner))

    if m_u is None or m_up is None:
        term_d = 0.0
    else:
        term_d = pref_transient * float(transient_correlator(u_eff, up_eff, p))

    return HadamardOracleResult(
        interference_a=term_a,
        interference_b=term_b,
        radiation=term_c,
        transient=term_d,
        t_eff=t_eff,
        t_prime_eff=tp_eff,
        time_step=step,
    )
