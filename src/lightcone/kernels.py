"""Region-wise closed forms of the momentum-space light-cone kernels,
their equal-time / zero-momentum splits and constraints, and a mollified
radial Fourier engine used as an independent oracle.

Conventions: momentum p = (omega, k_vec), k = |k_vec| > 0; cone regions
are InsideUpper (omega > k), InsideLower (omega < -k), Outside
(|omega| < k) and Boundary (|omega| = k).  Each kernel id carries the
unit-prefactor closed formula.
"""

from __future__ import annotations

import bisect
import math
from enum import Enum
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidWidth, NonFiniteMomentum, OnLightCone, TooCloseToSingularSet
from .errors import UnsupportedKernel, ZeroMomentum
from .quadrature import converged, extrapolate_to_zero, gauss_rule, kronrod_rule, read_only


class ConeRegion(Enum):
    InsideUpper = "inside_upper"
    InsideLower = "inside_lower"
    Outside = "outside"
    Boundary = "boundary"


# Ids whose formula involves log|omega -+ k| and blows up on the cone.
LOG_SINGULAR = {"Delta_over_t", "Delta_over_t2", "XiXiDelta_over_t3"}

# Parity of the full evaluated value under p -> -p; K0Hat, eps(p0) delta(p^2), is odd.
PARITY = {
    "K0Hat": -1,
    "IK0_over_t": +1,
    "IK0_over_t2": -1,
    "Delta_over_t": -1,
    "Delta_over_t2": +1,
    "XiK0_over_t3": -1,
    "XiXiK0_over_t4": -1,
    "XiXiDelta_over_t3": -1,
    "K0_et": -1,
    "K0_zm": -1,
    "K0c_et": +1,
    "K0c_zm": +1,
}

# Every kernel id, in the order verify draws them.
KERNEL_IDS = tuple(PARITY)

# Number of spatial indices carried by the tensor ids, which eval_hat_tensor
# takes one each.  eval_hat returns their scalar base, whose parity under
# p -> -p differs from PARITY by one khat sign flip per index.
TENSOR_INDEX_COUNT = {"XiK0_over_t3": 1, "XiXiK0_over_t4": 2, "XiXiDelta_over_t3": 2}

# Homogeneity degree of the differentiated tensor forms.
TENSOR_HOMOGENEITY_DEGREE = {"XiXiDelta_over_t3": -1, "XiXiK0_over_t4": 0}


def classify(omega, k):
    """Cone-region tag of the momentum (omega, |k_vec| = k), both finite."""
    if not (math.isfinite(omega) and math.isfinite(k)):
        raise NonFiniteMomentum(f"(omega, k) = ({omega}, {k})")
    if k < 0:
        raise ValueError("k must be >= 0")
    if abs(abs(omega) - k) <= 1e-12:
        return ConeRegion.Boundary
    if omega > k:
        return ConeRegion.InsideUpper
    if omega < -k:
        return ConeRegion.InsideLower
    return ConeRegion.Outside


def _log_difference_and_sum(omega, k):
    """d = log|omega - k| - log|omega + k| and s = log|omega - k| + log|omega + k|.
    With x the smaller of k/omega and omega/k, d is -2 atanh(x) for |x| < 1/2,
    which keeps its digits where the two logs nearly cancel; nearer the cone
    omega -+ k is exact (Sterbenz), and d is the difference of the logs."""
    log_minus, log_plus = np.log(abs(omega - k)), np.log(abs(omega + k))
    x = k / omega if k < abs(omega) else omega / k
    d = log_minus - log_plus if abs(x) >= 0.5 else -2.0 * np.arctanh(x)
    return d, log_minus + log_plus


def _xixi_delta_base(omega, k):
    # (1/k)((omega - k)^2 log|omega - k| - (omega + k)^2 log|omega + k|)
    d, s = _log_difference_and_sum(omega, k)
    # purely imaginary: the real part is +0.0 for either sign of the base
    return complex(0.0, ((omega**2 + k**2) / k) * d - 2.0 * omega * s)


# Below this |k/omega| the k-derivatives of the XiXiDelta_over_t3 base
# take their series, whose first 14 terms reach 1e-17 relative there.
XIXI_SERIES_X = 0.25


def _xixi_delta_base_dk(omega, k):
    """First and second k-derivatives of the XiXiDelta_over_t3 base,

        b1 = i [d (1 - omega^2/k^2) - 2 omega/k],
        b2 = i [4 omega/k^2 + 2 omega^2 d/k^3],

    d = log|omega - k| - log|omega + k|.  In x = k/omega, b1 is
    (2i/x^2) [(1 - x^2) atanh(x) - x] and b2 is (4i/(omega x^3))
    [x - atanh(x)], and both brackets cancel as x -> 0.  For
    |x| < XIXI_SERIES_X they take their series,
    (1 - x^2) atanh(x) - x = -sum_{n>=1} 2 x^{2n+1}/((2n-1)(2n+1)) and
    x - atanh(x) = -sum_{n>=1} x^{2n+1}/(2n+1)."""
    if abs(k) < XIXI_SERIES_X * abs(omega):
        x = k / omega
        n = np.arange(1, 15)
        powers = x ** (2 * n - 2)
        b1 = -4j * x * np.sum(powers / ((2 * n - 1) * (2 * n + 1)))
        b2 = -4j / omega * np.sum(powers / (2 * n + 1))
    else:
        d = _log_difference_and_sum(omega, k)[0]
        b1 = 1j * (d * (1.0 - (omega / k) ** 2) - 2.0 * omega / k)
        b2 = 1j * (4.0 * omega / k**2 + 2.0 * omega**2 * d / k**3)
    return b1, b2


def eval_hat(kid, omega, k):
    """Scalar closed-form value of the kernel id kid at (omega, k).  For
    the tensor ids this returns the spherically symmetric base function
    whose k-derivatives build the tensor (see eval_hat_tensor)."""
    if kid not in PARITY:
        raise UnsupportedKernel(kid)
    if k == 0:
        raise ZeroMomentum("k = 0")
    region = classify(omega, k)
    if region is ConeRegion.Boundary and kid in LOG_SINGULAR:
        raise OnLightCone(f"{kid} at |omega| = k")
    inside = region in (ConeRegion.InsideUpper, ConeRegion.InsideLower)
    sign = 1.0 if region is ConeRegion.InsideUpper else -1.0

    if kid == "K0Hat":
        # Delta functions on the shell; zero off the singular support.
        if region is ConeRegion.Boundary:
            raise OnLightCone("K0Hat supported on |omega| = k")
        return 0.0j
    if kid == "IK0_over_t":
        return 0.0j if inside else 1.0 / k + 0.0j
    if kid == "IK0_over_t2":
        if inside:
            return complex(0.0, sign)  # +0.0 real part also in the lower cone
        return 1j * omega / k
    if kid == "Delta_over_t":
        return (1j / k) * _log_difference_and_sum(omega, k)[0]
    if kid == "Delta_over_t2":
        # (1/k)((omega - k) log|omega - k| - (omega + k) log|omega + k|)
        d, s = _log_difference_and_sum(omega, k)
        return (omega / k) * d - s + 0.0j
    if kid == "XiK0_over_t3":
        return 0.0j if inside else omega**2 / (2.0 * k) + k / 2.0 + 0.0j
    if kid == "XiXiK0_over_t4":
        if inside:
            return sign * k**2 / 6.0 + 0.0j
        return omega**3 / (6.0 * k) + k * omega / 2.0 + 0.0j
    if kid == "XiXiDelta_over_t3":
        return _xixi_delta_base(omega, k)
    if kid == "K0_et":
        return 1j * omega / k
    if kid == "K0_zm":
        if inside:
            return 1j * (sign - omega / k)
        return 0.0j
    if kid == "K0c_et":
        return 1.0 / k + 0.0j
    return -1.0 / k + 0.0j if inside else 0.0j  # K0c_zm


def eval_hat_tensor(kid, omega, k_vec, *index):
    """Spatial tensor components of the id kid built from its base via
    d_a g = khat_a g', d_a d_b g = khat_a khat_b g'' + (delta_ab - khat_a
    khat_b) g'/k.  index holds one 1-based spatial index (1, 2, 3) per
    tensor index of kid (TENSOR_INDEX_COUNT)."""
    if len(index) != TENSOR_INDEX_COUNT.get(kid):
        raise UnsupportedKernel(f"{kid} with {len(index)} spatial indices")
    k_vec = np.asarray(k_vec, dtype=float)
    k = float(np.linalg.norm(k_vec))
    if k == 0:
        raise ZeroMomentum("|k_vec| = 0")
    region = classify(omega, k)
    khat = k_vec / k
    a = index[0] - 1
    inside = region in (ConeRegion.InsideUpper, ConeRegion.InsideLower)
    sign = 1.0 if region is ConeRegion.InsideUpper else -1.0

    if kid == "XiK0_over_t3":
        if inside:
            return 0.0j
        g1 = -(omega**2) / (2.0 * k**2) + 0.5
        return 1j * khat[a] * g1
    b = index[1] - 1
    delta = 1.0 if a == b else 0.0
    if kid == "XiXiK0_over_t4":
        if inside:
            return sign * delta / 3.0 + 0.0j
        g1 = -(omega**3) / (6.0 * k**2) + omega / 2.0
        g2 = omega**3 / (3.0 * k**3)
        return khat[a] * khat[b] * g2 + (delta - khat[a] * khat[b]) * g1 / k + 0.0j
    # XiXiDelta_over_t3
    if region is ConeRegion.Boundary:
        raise OnLightCone("XiXiDelta_over_t3 at |omega| = k")
    b1, b2 = _xixi_delta_base_dk(omega, k)
    return khat[a] * khat[b] * b2 + (delta - khat[a] * khat[b]) * b1 / k


def harmonicity_residual(kid, omega, k, h=1e-3):
    """Central finite-difference residual of
    (d^2/domega^2 - d^2/dk^2 - (2/k) d/dk) applied to the scalar closed
    form; O(h^2) off the singular set where the integration constants are
    chosen correctly."""
    if abs(abs(omega) - k) <= 3.0 * h or k <= 3.0 * h:
        raise TooCloseToSingularSet(f"(omega, k) = ({omega}, {k}) with h = {h}")

    def f(w, kk):
        return eval_hat(kid, w, kk)

    d2w = (f(omega + h, k) - 2.0 * f(omega, k) + f(omega - h, k)) / h**2
    d2k = (f(omega, k + h) - 2.0 * f(omega, k) + f(omega, k - h)) / h**2
    d1k = (f(omega, k + h) - f(omega, k - h)) / (2.0 * h)
    return d2w - d2k - (2.0 / k) * d1k


def homogeneity_check(kid, omega, k, R):
    """Max over tensor components of |K(p) - R^{-deg} K(R p)| for the
    differentiated tensor forms; deg = -1 for XiXiDelta_over_t3 and 0 for
    XiXiK0_over_t4."""
    if kid not in TENSOR_HOMOGENEITY_DEGREE:
        raise UnsupportedKernel(kid)
    deg = TENSOR_HOMOGENEITY_DEGREE[kid]
    k_vec = np.array([k, 0.0, 0.0])
    worst = 0.0
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            v = eval_hat_tensor(kid, omega, k_vec, a, b)
            vs = eval_hat_tensor(kid, R * omega, R * k_vec, a, b)
            worst = max(worst, abs(v - R ** (-deg) * vs))
    return worst


# Half-width W of the shell window in r - |t|, in units of the shell width
# eta, and the number of Kronrod panels, each W/4 wide, on its half [0, W]
# (G is even, so the other half adds the mirror image), whose edges also
# mesh the window's tails; the Gauss nodes per gap of the tails' mesh; and
# the relative tolerance of the transform's guards.
SHELL_WINDOW = 10.0
WINDOW_PANELS = 4
TAIL_NODES = 5
RADIAL_FOURIER_RTOL = 1e-9


def radial_fourier(factor, omega, k, eta, grid):
    """Fourier transform of the Gaussian shell kernel
    f(t, r) = g(t, eta) G(r - |t|) / (2 r), G the normal density of width
    eta:

        fhat(omega, k) = (4 pi / k) int dt e^{i omega t}
                                    int_0^inf r sin(k r) f(t, r) dr

    eta is one width or a 1-D ladder of them, and the result has its
    shape.  factor is the pair (g, parity): the time factor g, a
    vectorized function of t and of eta (one width per panel, broadcast
    against t) that may depend on eta only for |t| < 10 eta, and its
    parity in t, g(-t) = parity g(t) with parity = +1 or -1.  The
    r-integral depends on |t| only, so the t-rule runs on [0, t_max]
    (grid key t_max), calls g once on its nodes t >= 0, and sums
    e^{i omega t} g(t) + e^{-i omega t} g(-t) as 2 cos(omega t) g(t) or
    2i sin(omega t) g(t).  Its 21-point Kronrod panels are at most one
    period of |omega| + k wide (coarse).  If grid sets t_fine_hw and
    t_fine_dx (scalars, or one per rung), panels 2 t_fine_dx wide mesh
    [0, t_fine_hw], and edges at t_fine_hw 2^j grade them out to one
    period, since the kernels' 1/t^p factors vary on the scale t.  The
    r-integral runs over the window
    |r - |t|| <= 10 eta, cut at r = 0 (see _shell_sums).  The t-rule
    splits at the first coarse edge at or above every rung's own edges
    and window: below it each rung has its own panels, and above it the
    coarse panels serve the whole ladder, whose shell sums there are
    A sin(kt) with each rung's real window constant A.
    Each rung's sums over t, over its window and over the window's tails
    pass their own guard at relative RADIAL_FOURIER_RTOL = 1e-9
    (QuadratureNotConverged otherwise): the t-sum and the window against
    their embedded 10-point Gauss rule, the tails against the window's
    Kronrod panels (see _window_tails).  A non-finite omega or k raises
    NonFiniteMomentum, and eta not positive and finite, or not a scalar
    or a non-empty 1-D ladder, InvalidWidth, as does a t_max, or a given
    t_fine_hw or t_fine_dx, that is not positive and finite."""
    g, parity = factor
    if parity not in (1, -1):
        raise ValueError(f"parity must be +1 or -1, not {parity}")
    if not (math.isfinite(omega) and math.isfinite(k)):
        raise NonFiniteMomentum(f"(omega, k) = ({omega}, {k})")
    if k <= 0:
        raise ZeroMomentum("k must be > 0")
    ladder = np.atleast_1d(np.asarray(eta, dtype=float))
    if ladder.ndim > 1 or not ladder.size or not np.all((ladder > 0.0) & (ladder < math.inf)):
        raise InvalidWidth(f"eta = {eta}")
    t_max = grid["t_max"]
    lengths = np.concatenate([np.ravel(grid[key]) for key in ("t_max", "t_fine_hw", "t_fine_dx") if key in grid])
    if not np.all((lengths > 0.0) & (lengths < math.inf)):
        raise InvalidWidth(f"grid = {grid}")
    # the integrand oscillates at up to |omega| + k
    period = 2.0 * np.pi / max(abs(omega) + k, 1.0)
    coarse = _linspace(t_max, math.ceil(t_max / period))
    t_fine = (np.broadcast_to(grid.get(key, 0.0), ladder.shape).tolist() for key in ("t_fine_hw", "t_fine_dx"))
    meshes = []
    for t_fine_hw, t_fine_dx in zip(*t_fine):
        if t_fine_hw > 0.0 and t_fine_dx > 0.0:
            n_graded = math.ceil(np.log2(max(period / t_fine_hw, 1.0)))
            graded = [t_fine_hw * 2.0**j for j in range(1, n_graded) if t_fine_hw * 2.0**j < t_max]
            meshes.append(_linspace(t_fine_hw, math.ceil(t_fine_hw / (2.0 * t_fine_dx))) + graded)
        else:
            meshes.append([])
    reach = max([SHELL_WINDOW * ladder.max(), *(mesh[-1] for mesh in meshes if mesh)])
    split = min(bisect.bisect_left(coarse, reach), len(coarse) - 1)
    # each rung's panels below the split, then the shared ones above it
    rules = [sorted({*coarse[: split + 1], *mesh}) for mesh in meshes] + [coarse[split:]]
    panels = [len(edges) - 1 for edges in rules]
    t, wk, wg = kronrod_rule([x for edges in rules for x in edges[:-1]], [x for edges in rules for x in edges[1:]])
    # above the split, where g does not depend on it, the widest rung's width
    width = np.repeat(np.append(ladder, ladder.max()), panels)[:, None]
    h = (4.0 * np.pi / k) * (np.cos(omega * t) if parity == 1 else 1j * np.sin(omega * t)) * g(t, width)
    near, rung = sum(panels[:-1]), np.repeat(np.arange(len(ladder)), panels[:-1])
    window, shell = _shell_sums(t[:near], rung[:, None], k, ladder)
    f = h[:near] * shell
    first = np.searchsorted(rung, np.arange(len(ladder)))
    far = h[near:] * np.sin(k * t[near:])
    # np.vdot of the real weights and the values is their weighted sum
    kronrod = np.add.reduceat(np.sum(wk[:near] * f, axis=1), first) + window * np.vdot(wk[near:], far)
    gauss = np.add.reduceat(np.sum(wg[:near] * f[:, 1::2], axis=1), first) + window * np.vdot(wg[near:], far[:, 1::2])
    value = np.array(
        [converged(v, o, RADIAL_FOURIER_RTOL, "radial_fourier") for v, o in zip(kronrod.tolist(), gauss.tolist())],
        dtype=complex,
    )
    return value if np.ndim(eta) else value[0]


def _linspace(stop, n):
    """np.linspace(0.0, stop, n + 1), as a list."""
    step = stop / n
    return [i * step for i in range(n)] + [stop]


def _shell_sums(a, rung, k, eta):
    """For each a = |t| >= 0 and its rung (an index into the ladder eta,
    broadcast against a), the integral of sin(k r) G(r - a) over the
    window |r - a| <= W = 10 eta cut at r = 0.  With r = a + u it is

        sin(ka) (A - Tc(a)) + cos(ka) Ts(a),

    A the integral of e^{iku} G(u) over [-W, W], real since G is even,
    and Tc + iTs its tail over [a, W], which the cut removes where a < W
    (see _window_tails; each rung's points a < W ascend in the order of
    a).  Each rung has its own window of WINDOW_PANELS Kronrod panels on
    [0, W], A twice the real part of their sum; the windows of all rungs
    form one stacked rule, and each passes its own embedded-Gauss guard.
    Returns A of every rung, and the sums."""
    ladder = tuple(eta.tolist())
    u, wk, wg = _window_rule(ladder, SHELL_WINDOW, WINDOW_PANELS)
    e = np.exp(1j * k * u)
    panels = np.sum(wk * e, axis=2)
    gauss = 2.0 * np.sum(wg * e[..., 1::2].real, axis=(1, 2))
    pairs = zip((2.0 * np.sum(panels.real, axis=1)).tolist(), gauss.tolist())
    window = np.array([converged(p, o, RADIAL_FOURIER_RTOL, "radial_fourier window") for p, o in pairs])
    tails = np.zeros(a.shape, dtype=complex)
    core = a < (SHELL_WINDOW * eta)[rung]
    tails[core] = _window_tails(a[core], np.broadcast_to(rung, a.shape)[core], panels, k, ladder)
    sums = (window[rung] - tails.real) * np.sin(k * a) + tails.imag * np.cos(k * a)
    return window, sums


def _window_tails(a, rung, mesh_panels, k, ladder):
    """The integral of e^{iku} G(u) over [a, W] for every core point
    0 <= a < W of every rung at once, W = SHELL_WINDOW eta and G of width
    eta = ladder[rung]; rung does not decrease, and the points of each
    rung ascend.  A TAIL_NODES-point Gauss rule runs on the gap from each
    point up to the next point of its rung, or up to W, and the gaps are
    summed from W down.  The tails at the rung's window mesh below W,
    each the gap up to the next point plus that point's tail, must agree,
    rung by rung, with the sums of the window's Kronrod panels above them
    (mesh_panels).  The gap rule depends on the points and widths only,
    and _tail_rule builds it once per exact set of them: a call only
    evaluates e^{iku} on it, sums and runs the guard."""
    n = len(a)
    ends = tuple(np.searchsorted(rung, np.arange(len(ladder)), side="right").tolist())
    u, w, rung_ends, above = _tail_rule(a.tobytes(), ends, ladder, SHELL_WINDOW, WINDOW_PANELS, TAIL_NODES)
    ones = np.ones(u.shape[1])  # a row sum as a matrix product is faster than np.sum
    gaps = (w * np.cos(k * u)) @ ones + 1j * ((w * np.sin(k * u)) @ ones)
    above_all = np.append(np.cumsum(gaps[:n][::-1])[::-1], 0.0)  # the core gaps above, over all rungs
    tails = np.append(above_all[:n] - above_all[rung_ends], 0.0)
    mesh_tails = (gaps[n:] + tails[above]).reshape(len(ladder), -1)
    for r, reference in enumerate(np.cumsum(mesh_panels[:, ::-1], axis=1)[:, ::-1]):
        converged(mesh_tails[r], reference, RADIAL_FOURIER_RTOL, "radial_fourier window tails")
    return tails[:n]


@lru_cache(maxsize=8)
def _window_rule(ladder, shell_window, window_panels):
    """Each rung's half window [0, W], W = shell_window eta, in window_panels
    Kronrod panels: the nodes u, and the Kronrod and embedded Gauss weights
    times G(u), stacked over the ladder (a tuple of widths).  Built once
    per exact key and shared, so the arrays are read-only."""
    eta = np.array(ladder)
    u_edges = (shell_window * eta)[:, None] * np.linspace(0.0, 1.0, window_panels + 1)
    u, wk, wg = kronrod_rule(u_edges[:, :-1], u_edges[:, 1:])
    g_u = _gaussian(u, eta[:, None, None])
    return read_only(u, wk * g_u, wg * g_u[..., 1::2])


@lru_cache(maxsize=4)
def _tail_rule(points, ends, ladder, shell_window, window_panels, tail_nodes):
    """_window_tails' read-only gap rule for the core points (float64
    bytes), rung r those below index ends[r]: the Gauss nodes u of the
    points' gaps and then the window mesh's, their weights times G(u),
    each point's rung end, and the point above each mesh point (n for W)."""
    a, eta, ends = np.frombuffer(points), np.array(ladder), np.array(ends)
    n, n_rungs = len(a), len(ladder)
    mesh = (shell_window * eta)[:, None] * np.linspace(0.0, 1.0, window_panels + 1)
    starts = np.append(0, ends[:-1])
    rung = np.repeat(np.arange(n_rungs), ends - starts)
    above = np.concatenate(
        (np.arange(1, n + 1), *(s + np.searchsorted(a[s:e], m[:-1]) for s, e, m in zip(starts, ends, mesh)))
    )
    owner = np.concatenate((rung, np.repeat(np.arange(n_rungs), mesh.shape[1] - 1)))
    above = np.where(above < ends[owner], above, n)
    lo = np.concatenate((a, mesh[:, :-1].ravel()))
    u, w = gauss_rule(lo, np.where(above < n, np.append(a, 0.0)[above], mesh[owner, -1]), tail_nodes)
    return read_only(u, w * _gaussian(u, eta[owner][:, None]), ends[rung], above[n:])


def _gaussian(x, eta):
    return np.exp(-0.5 * (x / eta) ** 2) / (eta * np.sqrt(2.0 * np.pi))


def _smooth_cutoff(t, eta):
    """Smoothly switch off the 1/t^p factors for |t| < 3 eta."""
    x = np.clip(np.abs(t) / (3.0 * eta), 0.0, 1.0)
    return x * x * (3.0 - 2.0 * x)


# The mollified ids; the parity in t of their time factors is their PARITY.
MOLLIFIED_PARITY = {kid: PARITY[kid] for kid in ("K0Hat", "IK0_over_t", "IK0_over_t2", "Delta_over_t", "Delta_over_t2")}


class TimeFactor(NamedTuple):
    """A time factor g(t, eta) and its parity in t; calling it calls g."""

    g: Callable
    parity: int

    def __call__(self, t, eta):
        return self.g(t, eta)


def mollified_position_kernel(kid, t_damp):
    """Position-space realization of a kernel id with the on-cone delta
    replaced by a Gaussian shell of width eta in (r - |t|) and a Gaussian
    time damping of scale t_damp (for conditional convergence):
    f(t, r) = g(t, eta) G(r - |t|) / (2 r).  Returns the vectorized time
    factor g(t, eta) for radial_fourier, eta broadcast against t, with
    its parity: (g, MOLLIFIED_PARITY[kid]), met bit for bit."""
    if kid not in MOLLIFIED_PARITY:
        raise UnsupportedKernel(kid)

    def g(t, eta):
        damp = np.exp(-0.5 * (t / t_damp) ** 2)
        if kid == "K0Hat":
            return 1j * (np.sign(t) * damp)
        cut = _smooth_cutoff(t, eta) * damp
        safe_t = np.where(np.abs(t) < 1e-30, 1.0, t)
        if kid == "IK0_over_t":
            return -cut / np.abs(safe_t)
        if kid == "IK0_over_t2":
            return -np.sign(t) * cut / safe_t**2
        if kid == "Delta_over_t":
            return np.sign(t) * cut / np.abs(safe_t)
        return cut / safe_t**2

    return TimeFactor(g, MOLLIFIED_PARITY[kid])


def oracle_value(kid, omega, k, eta, t_damp):
    """The mollified radial Fourier transform of kernel id kid at
    (omega, k), shell width eta and damping scale t_damp, under
    radial_fourier's guards.  eta is one width or a ladder, evaluated in
    one radial_fourier call; the result has eta's shape.  The fine t-mesh
    (panels eta wide) covers the core |t| < 10 eta, where the cutoff and
    the window's cut act.  The value keeps the damping: nothing
    extrapolates it away in t_damp."""
    eta = np.asarray(eta, dtype=float)
    grid = {"t_fine_hw": SHELL_WINDOW * eta, "t_fine_dx": eta / 2.0, "t_max": 6.0 * t_damp}
    return radial_fourier(mollified_position_kernel(kid, t_damp), omega, k, eta, grid)


# The oracles' mollifier ladder (extrapolated to zero width) and damping scale.
ORACLE_ETAS = (0.08, 0.04, 0.02)
ORACLE_T_DAMP = 20.0


def oracle_ratio(kid, omega, k):
    """Ratio of the mollified radial Fourier oracle to the closed form at
    (omega, k), polynomially extrapolated to zero mollifier width.  The
    whole ladder ORACLE_ETAS is one oracle_value call, so one
    radial_fourier call.  The limit is an (omega, k)-independent constant
    per kernel id."""
    closed = eval_hat(kid, omega, k)
    if abs(closed) < 1e-14:
        raise TooCloseToSingularSet("closed form vanishes; ratio undefined")
    return extrapolate_to_zero(ORACLE_ETAS, oracle_value(kid, omega, k, ORACLE_ETAS, ORACLE_T_DAMP) / closed)


def k0hat_shell_ratio(omega, k):
    """Near-shell oracle check for the on-cone kernel: the Gaussian time
    damping smears the shell deltas into Gaussians of width 1/t_damp in
    omega.  Returns the ratio of the mollified transform to the smeared
    reference (1/k)(T/sqrt(2 pi))(exp(-(omega-k)^2 T^2/2)
    - exp(-(omega+k)^2 T^2/2)); an (omega, k)-independent constant near
    either shell."""
    T = ORACLE_T_DAMP
    oracle = oracle_value("K0Hat", omega, k, ORACLE_ETAS[-1], T)
    ref = (T / np.sqrt(2.0 * np.pi) / k) * (
        np.exp(-0.5 * ((omega - k) * T) ** 2) - np.exp(-0.5 * ((omega + k) * T) ** 2)
    )
    if abs(ref) < 1e-12:
        raise TooCloseToSingularSet("reference vanishes away from the shell")
    return oracle / ref


def kernel_table(kid, omega_values, k_values):
    """Rows (omega, k, region, re, im) of the closed form on a grid;
    singular points are reported with empty values."""
    if kid not in PARITY:
        raise UnsupportedKernel(kid)
    rows = []
    for omega in omega_values:
        for k in k_values:
            if k <= 0:
                continue
            region = classify(omega, k)
            try:
                v = complex(eval_hat(kid, omega, k))
                rows.append((omega, k, region.value, v.real, v.imag))
            except OnLightCone:
                rows.append((omega, k, region.value, float("nan"), float("nan")))
    return rows


def et_zm_split(kid):
    """The ids of the equal-time / zero-momentum split K = K_et + K_zm,
    with K_et polynomial in omega and K_zm supported in the closed mass
    cones.  Defined for the two split source ids."""
    if kid == "IK0_over_t2":
        return "K0_et", "K0_zm"
    if kid == "IK0_over_t":
        return "K0c_et", "K0c_zm"
    raise UnsupportedKernel(f"no equal-time split for {kid}")
