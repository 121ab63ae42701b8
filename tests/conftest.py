"""Shared random generators for admissible field configurations, and
reference values computed on paths independent of the library's."""

import numpy as np
import pytest

from lightcone.clifford import closed_chain_projectors, slash
from lightcone.fields import (
    DEFAULT_BOX,
    FermionicJet,
    MaxwellField,
    dirac_basis,
)


def random_lattice_index(rng, max_index=3, nonzero=True):
    """A small integer lattice index n."""
    while True:
        n = rng.integers(-max_index, max_index + 1, size=3)
        if not nonzero or np.any(n != 0):
            return n


def random_lattice_vector(rng, box, max_index=3, nonzero=True):
    """A box-quantized spatial momentum 2 pi n / L with small integer n."""
    return 2.0 * np.pi * random_lattice_index(rng, max_index, nonzero).astype(float) / box


def random_maxwell_mode(rng, box=DEFAULT_BOX, gauge=False, n=None, s=None):
    """The rows (p, eps) of a random on-shell Lorenz-gauge mode at lattice
    index n with frequency sign s (each drawn at random if None); with
    gauge=True a pure-gauge mode, eps proportional to p."""
    kvec = random_lattice_vector(rng, box) if n is None else 2.0 * np.pi * np.asarray(n, dtype=float) / box
    if s is None:
        s = rng.choice([-1.0, 1.0])
    p = np.concatenate(([s * np.linalg.norm(kvec)], kvec))
    if gauge:
        eps = (rng.normal() + 1j * rng.normal()) * p
    else:
        # project a random vector onto the Lorenz-gauge plane using the
        # reflected null momentum q = (p0, -pvec), for which <p, q> != 0
        q = np.concatenate(([p[0]], -p[1:]))
        r = rng.normal(size=4) + 1j * rng.normal(size=4)
        mink = lambda a, b: a[0] * b[0] - a[1:] @ b[1:]
        eps = r - (mink(p, r) / mink(p, q)) * q
    return p, eps


def random_maxwell_field(rng, box=DEFAULT_BOX, n_modes=2, gauge=False):
    p, eps = zip(*(random_maxwell_mode(rng, box, gauge=gauge) for _ in range(n_modes)))
    return MaxwellField(p, eps, box)


def maxwell_functional_pair(rng, box=DEFAULT_BOX):
    """Two fields on which sigma_bose and ip_bose are both nonzero: u has two
    random modes, and for each of them, at lattice index n with frequency
    sign s, v has one mode at n with sign s and one at -n with sign s, so
    v's terms at n carry both frequency signs."""
    u = random_maxwell_field(rng, box)
    rows = []
    for n, p in zip(u.n, u.p):
        s = np.sign(p[0])
        rows += [random_maxwell_mode(rng, box, n=n, s=s), random_maxwell_mode(rng, box, n=-n, s=s)]
    p, eps = zip(*rows)
    return u, MaxwellField(p, eps, box)


def random_amplitude(rng, shell, n, box=DEFAULT_BOX, m=1.0):
    """A random solution a of (k_slash - m) a = 0 at the lattice momentum
    kvec = 2 pi n / L on the given mass shell."""
    basis = dirac_basis(shell, 2.0 * np.pi * np.asarray(n, dtype=float) / box, m)
    c = rng.normal(size=2) + 1j * rng.normal(size=2)
    return c[0] * basis[0] + c[1] * basis[1]


def jet_at(rng, psi_ns, delta_ns, box=DEFAULT_BOX, m=1.0):
    """A jet with one random psi mode at each lattice index of psi_ns and one
    random delta_psi mode at each of delta_ns; an index None is drawn at
    random, just before that mode's amplitude."""
    sides = []
    for shell, ns in ((-1, psi_ns), (1, delta_ns)):
        n_rows, a_rows = [], []
        for n in ns:
            n = random_lattice_index(rng, nonzero=False) if n is None else np.asarray(n)
            n_rows.append(n)
            a_rows.append(random_amplitude(rng, shell, n, box, m))
        sides += [np.array(n_rows, dtype=np.int64).reshape(-1, 3), np.array(a_rows).reshape(-1, 4)]
    return FermionicJet(*sides, m, box)


def random_jet(rng, box=DEFAULT_BOX, m=1.0, n_psi=1, n_delta=1):
    return jet_at(rng, [None] * n_psi, [None] * n_delta, box, m)


def one_mode_jet(rng, n_psi, n_delta, box=DEFAULT_BOX, m=1.0):
    """A jet with one random psi mode at lattice index n_psi and one random
    delta_psi mode at n_delta."""
    return jet_at(rng, [n_psi], [n_delta], box, m)


def fermi_functional_pair(rng, box=DEFAULT_BOX):
    """Two two-mode jets on which sigma_fermi and ip_fermi are both nonzero:
    delta_psi_u at k with psi_v at -k and delta_psi_v at q with psi_u at -q
    feed sigma_fermi; delta_psi of both jets at d and psi of both at s
    (s != -d) feed ip_fermi.  The four lattice indices are distinct."""
    while True:
        k, q, s, d = (random_lattice_index(rng) for _ in range(4))
        if len({tuple(n) for n in (k, q, s, d)}) == 4 and not np.array_equal(s, -d):
            break
    return jet_at(rng, [-q, s], [k, d], box), jet_at(rng, [-k, s], [q, d], box)


def matched_jet_pair(rng, box=DEFAULT_BOX, m=1.0, n_psi=None, n_delta=None):
    """Two jets sharing one (psi, delta_psi) lattice index pair with nonzero
    transfer: every momentum-conserving quadruple then conserves the
    frequency transfer, so the conservation residual vanishes.  Indices
    not given are drawn at random."""
    if n_psi is None:
        n_psi = random_lattice_index(rng, nonzero=False)
    if n_delta is None:
        n_delta = random_lattice_index(rng)
        while np.array_equal(n_delta, n_psi):
            n_delta = random_lattice_index(rng)
    return one_mode_jet(rng, n_psi, n_delta, box, m), one_mode_jet(rng, n_psi, n_delta, box, m)


def violating_jet_pair(rng, box=DEFAULT_BOX, m=1.0):
    """Two jets with equal momentum transfer but unequal frequency gaps:
    the frequency implication fails, so the residual is nonzero."""
    n1 = np.array([1, 0, 0])
    # both transfers equal n1, but the frequency gaps differ
    return one_mode_jet(rng, 0 * n1, n1, box, m), one_mode_jet(rng, -2 * n1, -n1, box, m)


def gap_family_pair(rng, big_n):
    """Two one-mode jets with equal transfers (2N, 0, 0) and the frequency
    transfers 2 omega(N) and omega(N - 1) + omega(N + 1), which differ by
    about -A / omega(N)^3, A = (2 pi / L)^2: below float64's resolution of
    them from N = 3 * 10^4."""
    return jet_at(rng, [(-big_n, 0, 0)], [(big_n, 0, 0)]), jet_at(rng, [(1 - big_n, 0, 0)], [(big_n + 1, 0, 0)])


def opposite_transfer_pair(rng, box=DEFAULT_BOX, m=1.0):
    """Two jets on the same momenta (psi at p0, p1; delta_psi at d0, d1)
    whose transfers d1 - p1 = -(d0 - p0) and d1 - p0 = -(d0 - p1) are
    opposite: every equal-transfer quadruple conserves the frequency
    transfer, but the four opposite ones carry the sum of two positive
    gaps, so the residual is nonzero."""
    p0, p1 = np.array([0, 0, 0]), np.array([0, 1, 0])
    d0 = np.array([1, 0, 0])
    d1 = p1 - (d0 - p0)
    return jet_at(rng, [p0, p1], [d0, d1], box, m), jet_at(rng, [p0, p1], [d0, d1], box, m)


def dense_jet_pair(rng, n):
    """Two jets with n modes per side drawn from a pool of n + 1 lattice
    momenta, so that equal and opposite momentum transfers between them
    are frequent."""
    pool = [random_lattice_index(rng, max_index=1) for _ in range(n + 1)]

    def jet():
        idx = rng.integers(0, n + 1, size=2 * n)
        return jet_at(rng, [pool[i] for i in idx[:n]], [pool[i] for i in idx[n:]])

    return jet(), jet()


def distinct_momentum_pair(rng, n, max_index=4):
    """Two jets whose psi and delta_psi sides both hold one mode at each of
    the same n distinct lattice momenta in [-max_index, max_index]^3: every
    psi momentum is also a delta_psi momentum, so matched transfers are
    many."""
    side = 2 * max_index + 1
    flat = rng.choice(side**3, size=n, replace=False)
    ns = np.stack(np.unravel_index(flat, (side,) * 3), axis=1) - max_index
    return jet_at(rng, ns, ns), jet_at(rng, ns, ns)


def ratio_by_least_squares(xi):
    """The c of F_minus xi_slash = c F_minus xibar_slash, solved by least
    squares from closed_chain_projectors: no formula in common with
    projector_ratio_constant."""
    _, f_minus, _ = closed_chain_projectors(xi)
    lhs = f_minus @ slash(xi)
    rhs = f_minus @ slash(np.conj(xi))
    return complex(np.linalg.lstsq(rhs.reshape(-1, 1), lhs.reshape(-1), rcond=None)[0][0])


@pytest.fixture
def rng():
    return np.random.default_rng(20240823)
