"""Finite mode-set representations of on-shell Maxwell potentials and Dirac
wave functions in a periodic spatial box of side L.

Conventions: metric (+,-,-,-); a Maxwell field holds its modes as arrays,
one per row: the contravariant components (p, eps) of a complex plane wave
eps * exp(-i p.x), and the lattice index n of pvec = 2 pi n / L; the real
potential is the modes plus their conjugates.  A fermionic jet holds Dirac
plane waves a * exp(-i k.x) as arrays, one mode per row: integer lattice
indices n, kvec = 2 pi n / L, and amplitudes a, with k0 = shell * omega(kvec),
omega(kvec) = sqrt(|kvec|^2 + m^2), shell -1 for psi and +1 for delta_psi.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .clifford import ETA, GAMMA, minkowski, slash
from .errors import ConfigInvalid, ConfigMalformed, InvalidMode, MalformedMode

ONSHELL_TOL = 1e-9

DEFAULT_BOX = 32.0 * np.pi


def lattice_index(kvec, box):
    """The integer indices n (rows, int64) with kvec = 2 pi n / box, for the
    spatial momenta in the rows of kvec: the one place lattice membership
    is decided.  Raises InvalidMode off the lattice or outside int64; the
    tolerance grows with |n| as the roundoff of 2 pi n / box does."""
    kvec = np.asarray(kvec, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        n = kvec * box / (2.0 * math.pi)
        n_int = np.rint(n)
        on_lattice = (np.abs(n) < 2.0**63) & (np.abs(n - n_int) <= 1e-9 * np.maximum(1.0, np.abs(n)))
    if not (box > 0 and on_lattice.all()):
        off = kvec[~on_lattice.all(axis=-1)]
        raise InvalidMode(f"spatial momenta {off.tolist()} not on the lattice of box {box}")
    return n_int.astype(np.int64)


def lattice_momentum(n, box):
    """The spatial momenta 2 pi n / box of the integer lattice indices n (rows)."""
    return 2.0 * np.pi * n / box


def _lattice_codes(*keys):
    """Codes 0..K-1 of the K distinct rows of the (M_i, D) integer arrays
    keys: per array, one code per row, equal exactly for equal rows."""
    rows = np.concatenate(keys)
    lo, hi = rows.min(axis=0, initial=0), rows.max(axis=0, initial=0)
    spans = [int(h) - int(l) + 1 for l, h in zip(lo, hi)]
    if math.prod(spans) < 2**63:
        # each row as one int64, its offset from the least corner in mixed radix
        rows = (rows - lo) @ np.array([math.prod(spans[d + 1 :]) for d in range(len(spans))])
    codes = np.unique(rows, axis=None if rows.ndim == 1 else 0, return_inverse=True)[1].reshape(-1)
    ends = np.cumsum([len(k) for k in keys])
    return [codes[end - len(k) : end] for k, end in zip(keys, ends)]


def _matched_sums(codes_a, a_a, codes_b, a_b):
    """At each code that rows of both sides take: a row of side a there,
    and each side's amplitudes (rows of any shape) summed there in row
    order."""
    size = max(codes_a.max(initial=-1), codes_b.max(initial=-1)) + 1
    sums_a = np.zeros((size, *a_a.shape[1:]), dtype=complex)
    sums_b = np.zeros((size, *a_b.shape[1:]), dtype=complex)
    np.add.at(sums_a, codes_a, a_a)
    np.add.at(sums_b, codes_b, a_b)
    row = np.full(size, -1)
    row[codes_a] = np.arange(len(codes_a))
    both = (row >= 0) & (np.bincount(codes_b, minlength=size) > 0)
    return row[both], sums_a[both], sums_b[both]


def _matched_pairs(codes_a, codes_b):
    """The row pairs (i, j) with codes_a[i] == codes_b[j], ordered by i and
    then by j, as np.nonzero orders them on the equality mask; the memory
    grows with the matches, not with len(codes_a) * len(codes_b)."""
    order = np.argsort(codes_b, kind="stable")
    lo = np.searchsorted(codes_b[order], codes_a, "left")
    counts = np.searchsorted(codes_b[order], codes_a, "right") - lo
    i = np.repeat(np.arange(len(codes_a)), counts)
    # the t-th match lies at lo[i] + (t - matches before row i) in sorted order
    j = order[np.arange(len(i)) + np.repeat(lo + counts - np.cumsum(counts), counts)]
    return i, j


def common_box(u, v):
    """The box side of two fields or jets; raises InvalidMode if they differ."""
    if u.box != v.box:
        raise InvalidMode(f"box sides differ: {u.box} and {v.box}")
    return u.box


def field_tensor_hat(eps, p):
    """Covariant field tensors F_{jk} = -i (p_j eps_k - eps_j p_k) of the
    exponential terms eps * exp(-i p.x), one per row of eps and p (or of a
    single term): shape (..., 4, 4).

    Antisymmetric, and F_{ij} p^j = 0 by the null and gauge conditions."""
    p_low = np.asarray(p, dtype=complex) @ ETA
    e_low = np.asarray(eps, dtype=complex) @ ETA
    return -1j * (p_low[..., :, None] * e_low[..., None, :] - e_low[..., :, None] * p_low[..., None, :])


@dataclass(frozen=True, eq=False)
class MaxwellField:
    """A real Maxwell field in a box: null plane-wave potential modes
    eps * exp(-i p.x) in Lorenz gauge, implicitly with their conjugates.
    Held as read-only arrays, one mode per row: momenta p (M, 4) float,
    polarizations eps (M, 4) complex, and the nonzero lattice indices n
    (M, 3) int64 of the spatial momenta, derived from p."""

    p: np.ndarray
    eps: np.ndarray
    box: float = DEFAULT_BOX
    n: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.box > 0:
            raise InvalidMode("box side must be positive")
        p, eps = np.array(self.p, dtype=float), np.array(self.eps, dtype=complex)
        if p.size == 0 and eps.size == 0:
            p, eps = p.reshape(0, 4), eps.reshape(0, 4)
        if p.ndim != 2 or p.shape[1] != 4 or eps.shape != p.shape:
            raise InvalidMode("p must be an (M, 4) and eps an (M, 4) array")
        with np.errstate(over="ignore", invalid="ignore"):
            scale, eps2 = (p * p).sum(axis=1), (np.abs(eps) ** 2).sum(axis=1)
            if not (np.isfinite(scale).all() and np.isfinite(eps2).all()):
                raise MalformedMode("momentum or polarization not finite or too large: p.p or |eps|^2 overflows")
            if (scale == 0.0).any():
                raise InvalidMode("zero momentum")
            mass = np.abs(minkowski(p.T, p.T))
            if not (mass <= ONSHELL_TOL * scale).all():
                raise InvalidMode(f"momentum off the light cone: |p^2| = {np.max(mass):.3e}")
            if not (np.abs(minkowski(p.T, eps.T)) <= ONSHELL_TOL * np.maximum(1.0, eps2)).all():
                raise InvalidMode("polarization violates the Lorenz gauge condition")
        n = lattice_index(p[:, 1:], self.box)
        if (n == 0).all(axis=1).any():
            raise InvalidMode("spatial momentum at lattice index 0, where 1/|k| is undefined")
        for name, value in (("p", p), ("eps", eps), ("n", n)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)


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


def _omega(n, box, m):
    """omega = sqrt(|kvec|^2 + m^2) at the lattice momenta of the rows of n,
    |kvec|^2 summed per row as np.dot sums it (the matmul of row by row)."""
    kvec = lattice_momentum(n, box)
    return np.sqrt((kvec[:, None, :] @ kvec[:, :, None])[:, 0, 0] + m**2)


def _mode_rows(side, n, a):
    """The lattice indices (M, 3) int64 and amplitudes (M, 4) of one side."""
    n, a = np.array(n), np.array(a, dtype=complex)
    if n.size == 0 and a.size == 0:
        n, a = np.zeros((0, 3), dtype=np.int64), a.reshape(0, 4)
    if n.ndim != 2 or n.shape[1] != 3 or a.shape != (len(n), 4):
        raise InvalidMode(f"{side}_n must be an (M, 3) and {side}_a an (M, 4) array")
    if n.dtype.kind != "i":
        raise MalformedMode(f"{side}_n must hold integers")
    return n.astype(np.int64), a


@dataclass(frozen=True, eq=False)
class FermionicJet:
    """A fermionic perturbation (delta_psi, psi) of a sea excitation in a box:
    Dirac plane waves of one mass m, psi on the lower shell k0 = -omega and
    delta_psi on the upper shell k0 = omega.  Each side is held as read-only
    arrays, one mode per row: integer lattice indices psi_n (P, 3) and
    amplitudes psi_a (P, 4), likewise delta_psi_n and delta_psi_a; the
    frequencies psi_k0 and delta_psi_k0 derive from n."""

    psi_n: np.ndarray
    psi_a: np.ndarray
    delta_psi_n: np.ndarray
    delta_psi_a: np.ndarray
    m: float
    box: float = DEFAULT_BOX
    psi_k0: np.ndarray = field(init=False, repr=False)
    delta_psi_k0: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not (self.box > 0 and self.m > 0):
            raise InvalidMode("box side and mass must be positive")
        sides = []
        with np.errstate(over="ignore", invalid="ignore"):
            # both sides' malformed checks first: one is reported as such beside an inadmissible one
            for side, shell in (("psi", -1), ("delta_psi", 1)):
                n, a = _mode_rows(side, getattr(self, side + "_n"), getattr(self, side + "_a"))
                k0, norm = shell * _omega(n, self.box, self.m), np.linalg.norm(a, axis=1)
                if not np.all(np.isfinite(k0)):
                    raise MalformedMode(f"{side} momentum too large: its frequency overflows")
                if not np.all(np.isfinite(norm)):
                    raise MalformedMode(f"{side} amplitude not finite or too large: |a|^2 overflows")
                sides.append((side, n, a, k0, norm))
            for side, n, a, k0, norm in sides:
                # so every difference or sum of two indices fits in int64 (np.abs wraps at -2^63)
                if not np.all((n > -(2**62)) & (n < 2**62)):
                    raise InvalidMode(f"{side}_n must lie strictly between -2^62 and 2^62")
                if np.any(norm == 0.0):
                    raise InvalidMode("zero amplitude")
                k = np.concatenate((k0[:, None], lattice_momentum(n, self.box)), axis=1)
                residual = np.linalg.norm(np.einsum("mj,jab,mb->ma", k @ ETA, GAMMA, a) - self.m * a, axis=1)
                # the roundoff of (k_slash - m) a grows with |k0| >= m
                if not np.all(residual <= ONSHELL_TOL * np.abs(k0) * norm):
                    raise InvalidMode(f"{side} amplitude off the mass shell: residual {np.max(residual):.3e}")
                for name, value in (("_n", n), ("_a", a), ("_k0", k0)):
                    value.flags.writeable = False
                    object.__setattr__(self, side + name, value)

    def plane_waves(self):
        """The frequencies k0 (M,), spatial momenta kvec (M, 3) and amplitudes
        a (M, 4) of all the jet's modes, psi's rows first."""
        sides = [(getattr(self, "psi_" + s), getattr(self, "delta_psi_" + s)) for s in ("k0", "n", "a")]
        k0, n, a = map(np.concatenate, sides)
        return k0, lattice_momentum(n, self.box), a

    def at(self, side, x):
        """The wave function side ("psi" or "delta_psi") at the point x = (t, xvec)."""
        k0, n, a = (getattr(self, f"{side}_{s}") for s in ("k0", "n", "a"))
        return np.exp(-1j * (k0 * x[0] - lattice_momentum(n, self.box) @ x[1:])) @ a


def _transfer_classes(jet_u, jet_v):
    """One int64 code per (delta_psi row, psi row) pair of each jet,
    delta-major, equal across both jets exactly when the pairs' multisets
    {|n_delta|^2, |n_psi|^2} are.  For one mass m > 0 and a float box L,
    that is exactly when their frequency transfers omega_delta + omega_psi
    are equal: (2 pi / L)^2 is then transcendental (Lindemann), and a sum
    of two such roots fixes its multiset of squared norms."""
    sides = [side for jet in (jet_u, jet_v) for side in (jet.delta_psi_n, jet.psi_n)]
    # |n|^2 reaches 3 * 2^124: Python ints, ranked as objects
    squares = np.array([sum(c * c for c in row) for side in sides for row in side.tolist()], dtype=object)
    ranks = np.unique(squares, return_inverse=True)[1]
    du, pu, dv, pv = np.split(ranks, np.cumsum([len(side) for side in sides])[:-1])
    # per jet, one row per pair: its two ranks in order
    codes_u, codes_v = _lattice_codes(*(
        np.sort(np.stack(np.broadcast_arrays(d[:, None], p), -1), -1).reshape(-1, 2) for d, p in ((du, pu), (dv, pv))
    ))
    # jets of two masses share no frequency transfer: shift v's codes past u's
    return codes_u, codes_v if jet_u.m == jet_v.m else codes_v + len(codes_u) + len(codes_v)


def pairing_predicates(jet_u, jet_v):
    """Enumerate the mode quadruples (du, pu, dv, pv), rows of delta_psi_u,
    psi_u, delta_psi_v and psi_v, whose momentum transfers n(du) - n(pu)
    and n(dv) - n(pv) are equal or opposite (the momentum-conserving
    quadruples of the conservation residual) and flag those violating the
    matching frequency relation: equal transfers must carry equal frequency
    transfers omega_du + omega_pu = omega_dv + omega_pv, decided exactly by
    _transfer_classes, and opposite ones opposite frequency transfers,
    which no quadruple carries, since each is positive.  Quadruples come as
    (Q, 4) integer arrays."""
    common_box(jet_u, jet_v)

    def transfers(jet):
        # the (delta_psi row, psi row) pairs, delta-major
        d, p = np.indices((len(jet.delta_psi_n), len(jet.psi_n))).reshape(2, -1)
        return np.stack((d, p), 1), jet.delta_psi_n[d] - jet.psi_n[p]

    pairs_u, dn_u = transfers(jet_u)
    pairs_v, dn_v = transfers(jet_v)
    classes_u, classes_v = _transfer_classes(jet_u, jet_v)
    codes_u, codes_v, codes_opposite = _lattice_codes(dn_u, dn_v, -dn_v)
    (ie, je), (io, jo) = _matched_pairs(codes_u, codes_v), _matched_pairs(codes_u, codes_opposite)
    bad = np.concatenate((classes_u[ie] != classes_v[je], np.ones(len(io), dtype=bool)))
    # a zero transfer matches both ways: one quadruple, flagged as opposite
    pair = np.concatenate((ie, io)) * len(dn_v) + np.concatenate((je, jo))
    # the sorting np.unique: without return_index it imports numpy.ma
    (i, j), (fi, fj) = (np.divmod(np.unique(p, return_index=True)[0], len(dn_v)) for p in (pair, pair[bad]))
    flagged = np.concatenate((pairs_u[fi], pairs_v[fj]), axis=1)
    return {
        "quadruples": np.concatenate((pairs_u[i], pairs_v[j]), axis=1),
        "flagged": flagged,
        "implication_holds": len(flagged) == 0,
    }


def time_translate(obj, dt):
    """Translate a field or jet forward in time by dt: every mode
    amplitude picks up the phase exp(-i p0 dt).  A dt whose phases are
    not finite raises MalformedMode."""
    if isinstance(obj, MaxwellField):
        return _rephased(obj, dt, eps=obj.p[:, 0])
    if isinstance(obj, FermionicJet):
        return _rephased(obj, dt, psi_a=obj.psi_k0, delta_psi_a=obj.delta_psi_k0)
    raise TypeError(f"cannot time-translate {type(obj).__name__}")


def _rephased(obj, dt, **frequencies):
    """A copy of the field or jet obj whose amplitude arrays, named with
    their frequencies p0, carry the phases exp(-i p0 dt), read-only.  A
    phase keeps every mode condition, so the constructor's validation does
    not run again, and the copy shares the other read-only arrays."""
    moved = object.__new__(type(obj))
    moved.__dict__.update(obj.__dict__)
    for name, p0 in frequencies.items():
        with np.errstate(over="ignore", invalid="ignore"):
            phase = np.exp(-1j * p0 * dt)
        if not np.all(np.isfinite(phase)):
            raise MalformedMode(f"time translation by {dt}: a phase is not finite")
        amplitudes = getattr(obj, name) * phase[:, None]
        amplitudes.flags.writeable = False
        moved.__dict__[name] = amplitudes
    return moved


def _objects(what, entries):
    """entries, checked to be a list of JSON objects."""
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ConfigMalformed(f"{what} must be a list of objects")
    return entries


def _numbers(entry, key, what, length=None, integer=False):
    """entry[key], the one reader of configuration numbers: a JSON number as
    a float64, or with length a list of that many as a float64 array; with
    integer, JSON integers only, as exact int64.  A missing key, a bool,
    string, null, object or list of another length, and an integer outside
    the target type raise ConfigMalformed."""
    items = [entry.get(key)] if length is None else entry.get(key)
    kinds = int if integer else (int, float)
    shaped = isinstance(items, list) and len(items) == (length or 1)
    if not (shaped and all(isinstance(x, kinds) and not isinstance(x, bool) for x in items)):
        kind = "JSON integer" if integer else "JSON number"
        raise ConfigMalformed(f"{what}{key} must be a {kind}" + (f" list of length {length}" if length else ""))
    try:
        numbers = np.array(items, dtype=np.int64 if integer else np.float64)
    except OverflowError as exc:
        raise ConfigMalformed(f"{what}{key} holds an integer out of range") from exc
    return numbers if length else numbers[0]


def _complex(entry, key, what, length):
    """entry's key_re and key_im as one complex vector: .imag is set, not added,
    so a -0.0 real part stays and an infinite key_im makes no NaN or warning."""
    z = _numbers(entry, key + "_re", what, length).astype(complex)
    z.imag = _numbers(entry, key + "_im", what, length)
    return z


def _jet_side_from_json(jet, j, side, shell):
    """One side of the JSON jet j: its modes' lattice indices and amplitudes, as lists."""
    n_rows, a_rows = [], []
    for i, mode in enumerate(_objects(f"jets[{j}].{side}", jet.get(side, []))):
        where = f"jets[{j}].{side}[{i}]."
        if _numbers(mode, "shell", where, integer=True) != shell:
            raise ConfigInvalid(f"{side} modes must have shell {shell}")
        n_rows.append(_numbers(mode, "n", where, 3, integer=True))
        a_rows.append(_complex(mode, "a", where, 4))
    return n_rows, a_rows


def load_config(source):
    """Load and validate a field configuration.

    Accepts a path to a JSON file or an already-parsed dict of the form
    { "box": L, "mass": m,
      "maxwell": [{"p": [..4], "eps_re": [..4], "eps_im": [..4]}, ...],
      "jets": [{"psi": [mode...], "delta_psi": [mode...]}, ...] }
    with Dirac modes {"shell": +-1, "n": [3 ints], "a_re": [..4], "a_im": [..4]},
    shell -1 in psi and +1 in delta_psi, every number read by _numbers.  An
    unreadable file, a missing key or non-number, a bad box or mass, a
    section that is not a list of objects, and a mode that MaxwellField or
    FermionicJet rejects as MalformedMode raise ConfigMalformed; a wrong
    shell or any other rejected mode raises ConfigInvalid.  Returns (box,
    mass, maxwell_fields, jets), a single-mode MaxwellField per maxwell entry."""
    if isinstance(source, dict):
        raw = source
    else:
        try:
            with open(source) as fh:
                raw = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nesting too deep
            raise ConfigMalformed(f"cannot read configuration: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigMalformed("a configuration must be a JSON object")
    box, mass = _numbers(raw, "box", ""), _numbers(raw, "mass", "")
    if not (np.isfinite(box) and np.isfinite(mass) and box > 0 and mass > 0):
        raise ConfigMalformed(f"box and mass must be finite and positive, got {box} and {mass}")
    rows = []
    for i, entry in enumerate(_objects("maxwell", raw.get("maxwell", []))):
        p, eps = _numbers(entry, "p", f"maxwell[{i}].", 4), _complex(entry, "eps", f"maxwell[{i}].", 4)
        rows.append((MaxwellField, [p], [eps], box))
    n_fields = len(rows)
    for i, entry in enumerate(_objects("jets", raw.get("jets", []))):
        psi, delta = _jet_side_from_json(entry, i, "psi", -1), _jet_side_from_json(entry, i, "delta_psi", 1)
        rows.append((FermionicJet, *psi, *delta, mass, box))
    # every entry is read, then every one is built, so a malformed mode
    # raises ConfigMalformed even after an inadmissible one
    built, rejected = [], []
    for make, *args in rows:
        try:
            built.append(make(*args))
        except InvalidMode as exc:
            rejected.append(exc)
    if rejected:
        exc = next((e for e in rejected if isinstance(e, MalformedMode)), rejected[0])
        raise (ConfigMalformed if isinstance(exc, MalformedMode) else ConfigInvalid)(str(exc)) from exc
    return box, mass, built[:n_fields], built[n_fields:]


def default_config():
    """The shipped default field configuration: one opposite-momentum
    Maxwell mode pair and one momentum-matched jet pair in the default box."""
    k = 2.0 * np.pi / DEFAULT_BOX
    return {
        "box": DEFAULT_BOX,
        "mass": 1.0,
        "maxwell": [
            {"p": [k, k, 0.0, 0.0], "eps_re": [0.0, 0.0, 1.0, 0.0], "eps_im": [0.0, 0.0, 0.0, 1.0]},
            {"p": [-k, -k, 0.0, 0.0], "eps_re": [0.0, 0.0, 0.5, 0.0], "eps_im": [0.0, 0.0, 0.0, -0.25]},
        ],
        "jets": [
            {"psi": [_mode_entry(-1, [1, 0, 0], c_psi)], "delta_psi": [_mode_entry(1, [0, 1, 0], c_delta)]}
            for c_psi, c_delta in _JET_COEFFICIENTS
        ],
    }


# The default jets' (psi, delta_psi) coefficient pairs on dirac_basis, as
# normal(size=2) + 1j * normal(size=2) drew them from default_rng(101) and (202)
_JET_COEFFICIENTS = (
    ((-0.7901524999630146 + 0.6033017469247647j, -2.0346254818318728 + 0.7442945298799118j),
     (-0.30968679986627135 + 1.7103942914776449j, 0.36732137294554024 + 1.0607978400658138j)),
    ((1.8117203538153117 - 1.085626486216842j, -0.7290535593099604 - 0.4019110540118985j),
     (-1.1525924202528666 + 0.8799003751433262j, 1.5082245979543178 + 0.6376331108390758j)),
)


def _mode_entry(shell, n, c):
    """A JSON Dirac mode at the lattice index n: c's combination of dirac_basis."""
    basis = dirac_basis(shell, lattice_momentum(np.asarray(n), DEFAULT_BOX), 1.0)
    a = c[0] * basis[0] + c[1] * basis[1]
    return {"shell": shell, "n": list(n), "a_re": a.real.tolist(), "a_im": a.imag.tolist()}
