"""Shared random generators for admissible field configurations."""

import numpy as np
import pytest

from lightcone import fields
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


def matched_jet_pair(rng, box=DEFAULT_BOX, m=1.0):
    """Two jets sharing one (psi, delta_psi) momentum pair with nonzero
    transfer: every momentum-conserving quadruple then conserves the
    frequency transfer, so the conservation residual vanishes."""
    k_psi = random_lattice_vector(rng, box, nonzero=False)
    k_delta = random_lattice_vector(rng, box)
    while np.allclose(k_delta, k_psi):
        k_delta = random_lattice_vector(rng, box)
    jets = []
    for _ in range(2):
        psi = (random_dirac_mode(rng, -1, box, m, kvec=k_psi),)
        delta = (random_dirac_mode(rng, 1, box, m, kvec=k_delta),)
        jets.append(FermionicJet(psi, delta, m, box))
    return jets[0], jets[1]


def violating_jet_pair(rng, box=DEFAULT_BOX, m=1.0):
    """Two jets with equal momentum transfer but unequal frequency gaps:
    the frequency implication fails, so the residual is nonzero."""
    k1 = 2.0 * np.pi * np.array([1.0, 0.0, 0.0]) / box

    def jet(psi_n, delta_n):
        psi = (random_dirac_mode(rng, -1, box, m, kvec=psi_n * k1),)
        delta = (random_dirac_mode(rng, 1, box, m, kvec=delta_n * k1),)
        return FermionicJet(psi, delta, m, box)

    # both transfers equal k1, but the frequency gaps differ
    return jet(0.0, 1.0), jet(-2.0, -1.0)


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240823)
