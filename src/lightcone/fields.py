"""Finite mode-set representations of on-shell Maxwell potentials and Dirac
wave functions in a periodic spatial box of side L.

Conventions: metric (+,-,-,-); a Maxwell mode stores contravariant
components (p, eps) of a complex plane wave eps * exp(-i p.x); the real
potential is the mode plus its conjugate, symmetrized on evaluation.
A Dirac mode is a plane-wave solution a * exp(-i k.x) with
k0 = shell * omega(kvec), omega(kvec) = sqrt(|kvec|^2 + m^2).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .clifford import ETA, minkowski, slash
from .errors import ConfigInvalid, ConfigMalformed, InvalidMode, ShellViolation

ONSHELL_TOL = 1e-9
FREQUENCY_TOL = 1e-9

DEFAULT_BOX = 32.0 * np.pi


def lattice_index(kvec, box):
    """The integer n with kvec = 2 pi n / box: the one place lattice
    membership is decided.  Raises InvalidMode off the lattice; the
    tolerance grows with |n| as the roundoff of 2 pi n / box does."""
    n = [c * box / (2.0 * math.pi) for c in kvec]
    on_lattice = all(math.isfinite(c) and abs(c - round(c)) <= 1e-9 * max(1.0, abs(c)) for c in n)
    if not (box > 0 and on_lattice):
        raise InvalidMode(f"spatial momentum {tuple(kvec)} not on the lattice of box {box}")
    return tuple(round(c) for c in n)


def common_box(u, v):
    """The box side of two fields or jets; raises InvalidMode if they differ."""
    if u.box != v.box:
        raise InvalidMode(f"box sides differ: {u.box} and {v.box}")
    return u.box


@dataclass(frozen=True)
class MaxwellMode:
    """A null plane-wave potential mode eps * exp(-i p.x) in Lorenz gauge."""

    p: tuple
    eps: tuple

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        eps = np.asarray(self.eps, dtype=complex)
        if p.shape != (4,) or eps.shape != (4,):
            raise InvalidMode("p and eps must be four-vectors")
        scale = float(np.sum(p * p))
        if scale == 0.0:
            raise InvalidMode("zero momentum")
        if abs(minkowski(p, p)) > ONSHELL_TOL * scale:
            raise InvalidMode(f"momentum off the light cone: p^2 = {minkowski(p, p):.3e}")
        if abs(minkowski(p, eps)) > ONSHELL_TOL * max(1.0, float(np.sum(np.abs(eps) ** 2))):
            raise InvalidMode("polarization violates the Lorenz gauge condition")
        object.__setattr__(self, "p", tuple(float(c) for c in p))
        object.__setattr__(self, "eps", tuple(complex(c) for c in eps))

    @property
    def p_arr(self):
        return np.asarray(self.p, dtype=float)

    @property
    def eps_arr(self):
        return np.asarray(self.eps, dtype=complex)


def field_tensor_hat(eps, p):
    """Covariant field tensor F_{jk} = -i (p_j eps_k - eps_j p_k) of one
    exponential term eps * exp(-i p.x).

    Antisymmetric, and F_{ij} p^j = 0 by the null and gauge conditions."""
    p_low = ETA @ np.asarray(p, dtype=complex)
    e_low = ETA @ np.asarray(eps, dtype=complex)
    return -1j * (np.outer(p_low, e_low) - np.outer(e_low, p_low))


@dataclass(frozen=True)
class MaxwellField:
    """A real Maxwell field: stored modes, implicitly their conjugates, and
    the lattice indices n of the modes' spatial momenta."""

    modes: tuple
    box: float = DEFAULT_BOX
    n: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.box <= 0:
            raise InvalidMode("box side must be positive")
        object.__setattr__(self, "modes", tuple(self.modes))
        object.__setattr__(self, "n", tuple(lattice_index(m.p[1:], self.box) for m in self.modes))

    def terms(self):
        """Exponential terms (n, eps, p), n the lattice index of pvec, of the
        potential A(x) = sum eps * exp(-i(p0 t - pvec.x)); includes conjugates."""
        out = []
        for n, mode in zip(self.n, self.modes):
            out.append((np.array(n), mode.eps_arr, mode.p_arr))
            out.append((-np.array(n), np.conj(mode.eps_arr), -mode.p_arr))
        return out


@dataclass(frozen=True)
class DiracMode:
    """A plane-wave Dirac solution a * exp(-i(k0 t - kvec.x)) of mass m
    with k0 = shell * omega(kvec)."""

    shell: int
    kvec: tuple
    a: tuple
    m: float

    def __post_init__(self):
        if self.shell not in (1, -1):
            raise InvalidMode("shell must be +1 or -1")
        if self.m <= 0:
            raise InvalidMode("mass must be positive")
        kvec = np.asarray(self.kvec, dtype=float)
        a = np.asarray(self.a, dtype=complex)
        if kvec.shape != (3,) or a.shape != (4,):
            raise InvalidMode("kvec must be a 3-vector and a a 4-spinor")
        norm = np.linalg.norm(a)
        if norm == 0.0:
            raise InvalidMode("zero amplitude")
        k = np.concatenate(([self.k0], kvec))
        residual = np.linalg.norm((slash(k) - self.m * np.eye(4)) @ a)
        # the roundoff of (k_slash - m) a grows with |k0| >= m
        if residual > ONSHELL_TOL * abs(k[0]) * norm:
            raise InvalidMode(f"amplitude off the mass shell: residual {residual:.3e}")
        object.__setattr__(self, "kvec", tuple(float(c) for c in kvec))
        object.__setattr__(self, "a", tuple(complex(c) for c in a))

    @property
    def k0(self):
        return self.shell * np.sqrt(float(np.dot(self.kvec, self.kvec)) + self.m**2)

    @property
    def kvec_arr(self):
        return np.asarray(self.kvec, dtype=float)

    @property
    def a_arr(self):
        return np.asarray(self.a, dtype=complex)

    def at(self, x):
        """Value of the mode at a spacetime point x = (t, xvec)."""
        x = np.asarray(x, dtype=float)
        phase = np.exp(-1j * (self.k0 * x[0] - np.dot(self.kvec_arr, x[1:])))
        return self.a_arr * phase


def dirac_basis(shell, kvec, m):
    """Two orthonormalized amplitude spinors spanning the solutions of
    (k_slash - m) a = 0 at k0 = shell * omega(kvec)."""
    kvec = np.asarray(kvec, dtype=float)
    omega = np.sqrt(float(np.dot(kvec, kvec)) + m * m)
    k = np.concatenate(([shell * omega], kvec))
    proj = slash(k) + m * np.eye(4)
    seeds = (0, 1) if shell > 0 else (2, 3)
    basis = []
    for i in seeds:
        b = proj[:, i].copy()
        for prev in basis:
            b -= np.vdot(prev, b) * prev
        basis.append(b / np.linalg.norm(b))
    return basis


@dataclass(frozen=True)
class FermionicJet:
    """A fermionic perturbation (delta_psi, psi) of a sea excitation in a box:
    finite Dirac mode sets of equal mass, psi on the lower and delta_psi on
    the upper mass shell, with the lattice indices psi_n and delta_psi_n."""

    psi: tuple
    delta_psi: tuple
    m: float
    box: float = DEFAULT_BOX
    psi_n: tuple = field(init=False, repr=False, compare=False)
    delta_psi_n: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.box <= 0:
            raise InvalidMode("box side must be positive")
        for mode in tuple(self.psi) + tuple(self.delta_psi):
            if abs(mode.m - self.m) > 1e-12 * self.m:
                raise InvalidMode("all modes must share the jet mass")
        if any(mode.shell != -1 for mode in self.psi):
            raise ShellViolation("psi modes must lie on the lower mass shell")
        if any(mode.shell != 1 for mode in self.delta_psi):
            raise ShellViolation("delta_psi modes must lie on the upper mass shell")
        for name in ("psi", "delta_psi"):
            modes = tuple(getattr(self, name))
            object.__setattr__(self, name, modes)
            object.__setattr__(self, name + "_n", tuple(lattice_index(m.kvec, self.box) for m in modes))

    def psi_at(self, x):
        return sum((mode.at(x) for mode in self.psi), np.zeros(4, dtype=complex))

    def delta_psi_at(self, x):
        return sum((mode.at(x) for mode in self.delta_psi), np.zeros(4, dtype=complex))


def pairing_predicates(jet_u, jet_v):
    """Enumerate the mode quadruples (du, pu, dv, pv) whose momentum
    transfers p(du) - p(pu) and p(dv) - p(pv) are equal or opposite (the
    momentum-conserving quadruples of the conservation residual) and flag
    those violating the matching frequency relation: equal transfers must
    carry equal frequency transfers, opposite ones opposite frequency
    transfers (exact on the lattice, to FREQUENCY_TOL in frequency)."""
    common_box(jet_u, jet_v)

    def transfers(jet):
        pairs = [(d, p) for d in jet.delta_psi for p in jet.psi]
        dn = np.array([np.subtract(a, b) for a in jet.delta_psi_n for b in jet.psi_n]).reshape(-1, 3)
        return pairs, dn, np.array([d.k0 - p.k0 for d, p in pairs])

    pairs_u, dn_u, dw_u = transfers(jet_u)
    pairs_v, dn_v, dw_v = transfers(jet_v)
    equal = np.all(dn_u[:, None] == dn_v[None, :], axis=-1)
    opposite = np.all(dn_u[:, None] == -dn_v[None, :], axis=-1)
    bad = (equal & (np.abs(dw_u[:, None] - dw_v[None, :]) > FREQUENCY_TOL)) | (
        opposite & (np.abs(dw_u[:, None] + dw_v[None, :]) > FREQUENCY_TOL)
    )
    quadruples = [pairs_u[i] + pairs_v[j] for i, j in zip(*np.nonzero(equal | opposite))]
    flagged = [pairs_u[i] + pairs_v[j] for i, j in zip(*np.nonzero(bad))]
    return {
        "quadruples": quadruples,
        "flagged": flagged,
        "implication_holds": not flagged,
    }


def time_translate(obj, dt):
    """Translate a mode, field, or jet forward in time by dt: every mode
    amplitude picks up the phase exp(-i p0 dt)."""
    if isinstance(obj, MaxwellMode):
        phase = np.exp(-1j * obj.p[0] * dt)
        return MaxwellMode(obj.p, tuple(phase * e for e in obj.eps))
    if isinstance(obj, MaxwellField):
        return MaxwellField(tuple(time_translate(m, dt) for m in obj.modes), obj.box)
    if isinstance(obj, DiracMode):
        phase = np.exp(-1j * obj.k0 * dt)
        return replace(obj, a=tuple(phase * c for c in obj.a))
    if isinstance(obj, FermionicJet):
        return replace(
            obj,
            psi=tuple(time_translate(m, dt) for m in obj.psi),
            delta_psi=tuple(time_translate(m, dt) for m in obj.delta_psi),
        )
    raise TypeError(f"cannot time-translate {type(obj).__name__}")


def _require_finite(what, *arrays):
    if not all(np.isfinite(a).all() for a in arrays):
        raise ConfigMalformed(f"non-finite number in a {what}")


def _dirac_mode_from_json(entry, box, mass):
    try:
        shell = int(entry["shell"])
        n = np.asarray(entry["n"], dtype=float)
        a_re = np.asarray(entry["a_re"], dtype=float)
        a_im = np.asarray(entry["a_im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigInvalid(f"bad Dirac mode entry: {exc}") from exc
    _require_finite("Dirac mode entry", n, a_re, a_im)
    if np.any(n != np.round(n)):
        raise ConfigMalformed(f"lattice index n = {entry['n']} must be integers")
    kvec = 2.0 * np.pi * n / box
    try:
        return DiracMode(shell, tuple(kvec), tuple(a_re + 1j * a_im), mass)
    except (InvalidMode, ValueError) as exc:
        raise ConfigInvalid(str(exc)) from exc


def load_config(source):
    """Load and validate a field configuration.

    Accepts a path to a JSON file or an already-parsed dict of the form
    { "box": L, "mass": m,
      "maxwell": [{"p": [..4], "eps_re": [..4], "eps_im": [..4]}, ...],
      "jets": [{"psi": [mode...], "delta_psi": [mode...]}, ...] }
    with Dirac modes {"shell": +-1, "n": [3 ints], "a_re": [..4], "a_im": [..4]}.
    An unreadable file, a non-integer n or a non-finite number in a mode
    raises ConfigMalformed.

    Returns (box, mass, maxwell_fields, jets): each maxwell entry becomes a
    single-mode MaxwellField."""
    if isinstance(source, dict):
        raw = source
    else:
        try:
            with open(source) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigMalformed(f"cannot read configuration: {exc}") from exc
    try:
        box = float(raw["box"])
        mass = float(raw["mass"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigMalformed(f"missing or bad box/mass: {exc}") from exc
    if not (np.isfinite(box) and np.isfinite(mass) and box > 0 and mass > 0):
        raise ConfigMalformed(f"box and mass must be finite and positive, got {box} and {mass}")
    fields_out = []
    for entry in raw.get("maxwell", []):
        try:
            p = tuple(float(c) for c in entry["p"])
            eps = tuple(
                float(r) + 1j * float(i)
                for r, i in zip(entry["eps_re"], entry["eps_im"])
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigInvalid(f"bad maxwell entry: {exc}") from exc
        _require_finite("maxwell entry", p, eps)
        try:
            fields_out.append(MaxwellField((MaxwellMode(p, eps),), box))
        except InvalidMode as exc:
            raise ConfigInvalid(str(exc)) from exc
    jets_out = []
    for entry in raw.get("jets", []):
        psi = tuple(_dirac_mode_from_json(e, box, mass) for e in entry.get("psi", []))
        delta = tuple(
            _dirac_mode_from_json(e, box, mass) for e in entry.get("delta_psi", [])
        )
        try:
            jets_out.append(FermionicJet(psi, delta, mass, box))
        except (InvalidMode, ShellViolation) as exc:
            raise ConfigInvalid(str(exc)) from exc
    return box, mass, fields_out, jets_out


def default_config():
    """The shipped default field configuration: one opposite-momentum
    Maxwell mode pair and one momentum-matched jet pair in the default box."""
    box = DEFAULT_BOX
    k = 2.0 * np.pi / box
    return {
        "box": box,
        "mass": 1.0,
        "maxwell": [
            {
                "p": [k, k, 0.0, 0.0],
                "eps_re": [0.0, 0.0, 1.0, 0.0],
                "eps_im": [0.0, 0.0, 0.0, 1.0],
            },
            {
                "p": [-k, -k, 0.0, 0.0],
                "eps_re": [0.0, 0.0, 0.5, 0.0],
                "eps_im": [0.0, 0.0, 0.0, -0.25],
            },
        ],
        "jets": [
            _jet_entry([1, 0, 0], [0, 1, 0], 101),
            _jet_entry([1, 0, 0], [0, 1, 0], 202),
        ],
    }


def _jet_entry(n_psi, n_delta, seed):
    rng = np.random.default_rng(seed)
    box = DEFAULT_BOX

    def mode(shell, n):
        kvec = 2.0 * np.pi * np.asarray(n, dtype=float) / box
        basis = dirac_basis(shell, kvec, 1.0)
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        a = c[0] * basis[0] + c[1] * basis[1]
        return {
            "shell": shell,
            "n": list(int(i) for i in n),
            "a_re": [float(x) for x in a.real],
            "a_im": [float(x) for x in a.imag],
        }

    return {"psi": [mode(-1, n_psi)], "delta_psi": [mode(1, n_delta)]}
