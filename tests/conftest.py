"""Shared random generators for admissible field configurations, and
reference values computed on paths independent of the library's."""

import numpy as np
import pytest

from lightcone import fields
from lightcone.clifford import closed_chain_projectors, slash
from lightcone.fields import (
    DEFAULT_BOX,
    DiracMode,
    FermionicJet,
    MaxwellField,
    MaxwellMode,
    dirac_basis,
)


def random_lattice_vector(rng, box, max_index=3, nonzero=True):
    """A box-quantized spatial momentum 2 pi n / L with small integer n."""
    while True:
        n = rng.integers(-max_index, max_index + 1, size=3)
        if not nonzero or np.any(n != 0):
            return 2.0 * np.pi * n.astype(float) / box


def random_maxwell_mode(rng, box=DEFAULT_BOX, gauge=False):
    """A random on-shell Lorenz-gauge mode; with gauge=True a pure-gauge
    mode eps proportional to p."""
    kvec = random_lattice_vector(rng, box)
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
    return MaxwellMode(tuple(p), tuple(eps))


def random_maxwell_field(rng, box=DEFAULT_BOX, n_modes=2, gauge=False):
    modes = tuple(random_maxwell_mode(rng, box, gauge=gauge) for _ in range(n_modes))
    return MaxwellField(modes, box)


def random_dirac_mode(rng, shell, box=DEFAULT_BOX, m=1.0, kvec=None):
    if kvec is None:
        kvec = random_lattice_vector(rng, box, nonzero=False)
    basis = dirac_basis(shell, kvec, m)
    c = rng.normal(size=2) + 1j * rng.normal(size=2)
    a = c[0] * basis[0] + c[1] * basis[1]
    return DiracMode(shell, tuple(kvec), tuple(a), m)


def random_jet(rng, box=DEFAULT_BOX, m=1.0, n_psi=1, n_delta=1):
    psi = tuple(random_dirac_mode(rng, -1, box, m) for _ in range(n_psi))
    delta = tuple(random_dirac_mode(rng, 1, box, m) for _ in range(n_delta))
    return FermionicJet(psi, delta, m, box)


def jet_at(rng, psi_ks, delta_ks, box=DEFAULT_BOX, m=1.0):
    """A jet with one random psi mode at each spatial momentum of psi_ks and
    one random delta_psi mode at each of delta_ks."""
    psi = tuple(random_dirac_mode(rng, -1, box, m, kvec=np.asarray(k, dtype=float)) for k in psi_ks)
    delta = tuple(random_dirac_mode(rng, 1, box, m, kvec=np.asarray(k, dtype=float)) for k in delta_ks)
    return FermionicJet(psi, delta, m, box)


def one_mode_jet(rng, k_psi, k_delta, box=DEFAULT_BOX, m=1.0):
    """A jet with one random psi mode at spatial momentum k_psi and one
    random delta_psi mode at k_delta."""
    return jet_at(rng, [k_psi], [k_delta], box, m)


def fermi_functional_pair(rng, box=DEFAULT_BOX):
    """Two two-mode jets on which sigma_fermi and ip_fermi are both nonzero:
    delta_psi_u at k with psi_v at -k and delta_psi_v at q with psi_u at -q
    feed sigma_fermi; delta_psi of both jets at d and psi of both at s
    (s != -d) feed ip_fermi.  The four lattice momenta are distinct."""
    while True:
        k, q, s, d = (random_lattice_vector(rng, box) for _ in range(4))
        n = [tuple(np.rint(p * box / (2.0 * np.pi)).astype(int)) for p in (k, q, s, d)]
        if len(set(n)) == 4 and not np.allclose(s, -d):
            break
    return jet_at(rng, [-q, s], [k, d], box), jet_at(rng, [-k, s], [q, d], box)


def matched_jet_pair(rng, box=DEFAULT_BOX, m=1.0, k_psi=None, k_delta=None):
    """Two jets sharing one (psi, delta_psi) momentum pair with nonzero
    transfer: every momentum-conserving quadruple then conserves the
    frequency transfer, so the conservation residual vanishes.  Momenta
    not given are drawn at random."""
    if k_psi is None:
        k_psi = random_lattice_vector(rng, box, nonzero=False)
    if k_delta is None:
        k_delta = random_lattice_vector(rng, box)
        while np.allclose(k_delta, k_psi):
            k_delta = random_lattice_vector(rng, box)
    return one_mode_jet(rng, k_psi, k_delta, box, m), one_mode_jet(rng, k_psi, k_delta, box, m)


def violating_jet_pair(rng, box=DEFAULT_BOX, m=1.0):
    """Two jets with equal momentum transfer but unequal frequency gaps:
    the frequency implication fails, so the residual is nonzero."""
    k1 = 2.0 * np.pi * np.array([1.0, 0.0, 0.0]) / box
    # both transfers equal k1, but the frequency gaps differ
    return one_mode_jet(rng, 0.0 * k1, 1.0 * k1, box, m), one_mode_jet(rng, -2.0 * k1, -1.0 * k1, box, m)


def opposite_transfer_pair(rng, box=DEFAULT_BOX, m=1.0):
    """Two jets on the same momenta (psi at p0, p1; delta_psi at d0, d1)
    whose transfers d1 - p1 = -(d0 - p0) and d1 - p0 = -(d0 - p1) are
    opposite: every equal-transfer quadruple conserves the frequency
    transfer, but the four opposite ones carry the sum of two positive
    gaps, so the residual is nonzero."""
    unit = 2.0 * np.pi / box
    p0, p1 = np.zeros(3), unit * np.array([0.0, 1.0, 0.0])
    d0 = unit * np.array([1.0, 0.0, 0.0])
    d1 = p1 - (d0 - p0)
    jets = []
    for _ in range(2):
        psi = tuple(random_dirac_mode(rng, -1, box, m, kvec=k) for k in (p0, p1))
        delta = tuple(random_dirac_mode(rng, 1, box, m, kvec=k) for k in (d0, d1))
        jets.append(FermionicJet(psi, delta, m, box))
    return jets[0], jets[1]


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
