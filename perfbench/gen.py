"""Seeded inputs for the benchmark workloads.

Generation uses only numpy and the seed, never the program under test, so a
change to the program cannot change its own inputs.  Each workload has a
fixed table of input properties (modes per side, jet count, lattice index
range, mode family); the seed draws the concrete lattice indices, amplitudes
and evaluation points.  Costs therefore depend on the table, not the seed.
"""

from __future__ import annotations

import numpy as np

BOX = 32.0 * np.pi  # the program's default box side
MASS = 1.0
DEFAULT_SEED = 7

KERNEL_IDS = (
    "K0Hat", "IK0_over_t", "IK0_over_t2", "Delta_over_t", "Delta_over_t2",
    "XiK0_over_t3", "XiXiK0_over_t4", "XiXiDelta_over_t3",
    "K0_et", "K0_zm", "K0c_et", "K0c_zm",
)
LINEINT_FNS = ("J", "I", "U", "Jtilde", "V")

# slayer_deep: two jets of n modes per side, lattice indices in [-r, r].
# Momenta are drawn so that the only u/v transfer coincidences are the
# designed ones, which fixes the work per config whatever the seed.
# "independent" jets share exactly one momentum transfer, with unequal
# frequency gaps, so pairing_predicates flags that quadruple.  "matched" jets
# reuse the same momenta, so every equal-transfer quadruple conserves the
# frequency gap and the implication holds.  With `opposite` set, transfers
# (d0 - p0) and (d_last - p_last) are opposite, du - pu = -(dv - pv), and by
# construction so are (d0 - p_last) and (d_last - p0): quadruples the
# predicate does not enumerate, which make the residual nonzero.
DEEP_TABLE = (
    (2, "independent", 2, False),
    (2, "matched", 2, False),
    (4, "independent", 3, False),
    (4, "matched", 3, False),
    (6, "independent", 4, False),
    (6, "matched", 4, True),
)

# slayer_wide: (jets, modes per side, lattice index range, Maxwell fields).
# Rows come in pairs of similar cost, so that the op-latency percentiles
# fall inside a group of samples rather than between two groups.
WIDE_TABLE = (
    (16, 1, 2, 4),
    (16, 2, 2, 4),
    (48, 2, 3, 4),
    (48, 2, 3, 4),
    (96, 2, 3, 6),
    (96, 2, 3, 6),
)

_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
_Z2 = np.zeros((2, 2))
_GAMMA = [np.block([[np.eye(2), _Z2], [_Z2, -np.eye(2)]]).astype(complex)] + [
    np.block([[_Z2, s], [-s, _Z2]]) for s in _SIGMA
]


def rng_for(seed, *stream):
    """Independent generator for one stream of one seed."""
    return np.random.default_rng([int(seed), *stream])


def _lattice(rng, r, nonzero=False):
    while True:
        n = rng.integers(-r, r + 1, size=3)
        if not nonzero or np.any(n != 0):
            return tuple(int(c) for c in n)


def _omega(n):
    k = 2.0 * np.pi * np.asarray(n, dtype=float) / BOX
    return float(np.sqrt(k @ k + MASS * MASS))


def dirac_mode(rng, shell, n):
    """A config entry for a plane-wave Dirac mode: a = (k_slash + m) c solves
    (k_slash - m) a = 0 for any spinor c."""
    kvec = 2.0 * np.pi * np.asarray(n, dtype=float) / BOX
    k0 = shell * np.sqrt(kvec @ kvec + MASS * MASS)
    kslash = k0 * _GAMMA[0] - sum(kvec[i] * _GAMMA[i + 1] for i in range(3))
    c = rng.normal(size=4) + 1j * rng.normal(size=4)
    a = (kslash + MASS * np.eye(4)) @ c
    return {
        "shell": shell,
        "n": list(n),
        "a_re": [float(x) for x in a.real],
        "a_im": [float(x) for x in a.imag],
    }


def maxwell_mode(rng, n):
    """A null, Lorenz-gauge Maxwell mode at lattice momentum n."""
    kvec = 2.0 * np.pi * np.asarray(n, dtype=float) / BOX
    p = np.concatenate(([rng.choice([-1.0, 1.0]) * np.linalg.norm(kvec)], kvec))
    q = np.concatenate(([p[0]], -p[1:]))
    r = rng.normal(size=4) + 1j * rng.normal(size=4)

    def mink(a, b):
        return a[0] * b[0] - a[1:] @ b[1:]

    eps = r - (mink(p, r) / mink(p, q)) * q
    return {
        "p": [float(c) for c in p],
        "eps_re": [float(c) for c in eps.real],
        "eps_im": [float(c) for c in eps.imag],
    }


def _jet(rng, psi_ns, delta_ns):
    return {
        "psi": [dirac_mode(rng, -1, n) for n in psi_ns],
        "delta_psi": [dirac_mode(rng, 1, n) for n in delta_ns],
    }


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _transfers(psi, delta):
    return [_sub(d, p) for d in delta for p in psi]


def _coincidences(tu, tv):
    equal = sum(a == b for a in tu for b in tv)
    opposite = sum(a == tuple(-c for c in b) for a in tu for b in tv)
    return equal, opposite


def deep_config(seed, index):
    """The slayer_deep config for row `index` of DEEP_TABLE, and its
    recorded properties."""
    n, family, r, opposite = DEEP_TABLE[index]
    rng = rng_for(seed, 1, index)
    while True:
        u_psi = [_lattice(rng, r) for _ in range(n)]
        u_delta = [_lattice(rng, r) for _ in range(n)]
        if family == "matched":
            if opposite:
                u_delta[-1] = _sub(u_psi[-1], _sub(u_delta[0], u_psi[0]))
            v_psi, v_delta = list(u_psi), list(u_delta)
            want = (n * n, 4 if opposite else 0)
        else:
            v_psi = [_lattice(rng, r) for _ in range(n)]
            v_delta = [_lattice(rng, r) for _ in range(n)]
            v_delta[0] = _add(v_psi[0], _sub(u_delta[0], u_psi[0]))
            gap_u = _omega(u_delta[0]) + _omega(u_psi[0])
            if abs(_omega(v_delta[0]) + _omega(v_psi[0]) - gap_u) < 1e-6:
                continue
            want = (1, 0)
        tu, tv = _transfers(u_psi, u_delta), _transfers(v_psi, v_delta)
        if (0, 0, 0) in tu + tv or len(set(tu)) < n * n:
            continue
        if _coincidences(tu, tv) == want:
            break
    cfg = {
        "box": BOX,
        "mass": MASS,
        "maxwell": [],
        "jets": [_jet(rng, u_psi, u_delta), _jet(rng, v_psi, v_delta)],
    }
    props = {
        "jets": 2,
        "modes_per_side": n,
        "index_range": r,
        "family": family,
        "opposite_transfer": opposite,
    }
    return cfg, props


def wide_config(seed, index):
    """The slayer_wide config for row `index` of WIDE_TABLE, and its
    recorded properties."""
    n_jets, n, r, n_maxwell = WIDE_TABLE[index]
    rng = rng_for(seed, 2, index)
    jets = [
        _jet(rng, [_lattice(rng, r) for _ in range(n)], [_lattice(rng, r) for _ in range(n)])
        for _ in range(n_jets)
    ]
    maxwell = [maxwell_mode(rng, _lattice(rng, r, nonzero=True)) for _ in range(n_maxwell)]
    cfg = {"box": BOX, "mass": MASS, "maxwell": maxwell, "jets": jets}
    props = {
        "jets": n_jets,
        "modes_per_side": n,
        "index_range": r,
        "maxwell": n_maxwell,
        "family": "independent",
    }
    return cfg, props


def upper_cone_q(rng, rest_frame):
    """A momentum in the open upper mass cone above the m = 1 shell."""
    if rest_frame:
        return (float(rng.uniform(1.2, 8.0)), 0.0, 0.0, 0.0)
    qvec = rng.uniform(-1.5, 1.5, size=3)
    shell = float(np.sqrt(qvec @ qvec + MASS * MASS))
    return (float(rng.uniform(shell + 0.1, shell + 5.0)), *(float(c) for c in qvec))


def cli_pass(seed, p):
    """Inputs of pass p of cli_defaults: the verify seed, the kernel id and
    piecewise function (cycling from a seeded offset) and a convolution
    momentum (rest frame on even passes, so both oracle rows run)."""
    rng = rng_for(seed, 3, p)
    offset = int(rng_for(seed, 3).integers(0, 60))
    return {
        "verify_seed": int(rng.integers(0, 2**31)),
        "kernel_id": KERNEL_IDS[(offset + p) % len(KERNEL_IDS)],
        "lineint_fn": LINEINT_FNS[(offset + p) % len(LINEINT_FNS)],
        "q": upper_cone_q(rng, rest_frame=p % 2 == 0),
    }


def oracle_pass(seed, p):
    """Points of pass p of oracle_sweep: one per oracle family, with every
    variant of a family (the three oracle_ratio kernels, both
    time-average test functions) in each pass, so that all passes cost
    about the same."""
    rng = rng_for(seed, 4, p)
    ratio = [
        (kid, float(rng.uniform(w_lo, w_hi)), float(rng.uniform(k_lo, k_hi)))
        for kid, (w_lo, w_hi), (k_lo, k_hi) in (
            ("IK0_over_t", (0.15, 0.5), (0.9, 1.4)),
            ("IK0_over_t2", (2.0, 2.4), (0.8, 1.0)),
            ("Delta_over_t", (0.3, 0.5), (1.2, 1.4)),
        )
    ]
    shell_k = float(rng.uniform(0.85, 1.35))
    u = float(rng.uniform(0.6, 2.4)) * float(rng.choice([-1.0, 1.0]))
    v = float(rng.uniform(0.6, 2.4)) * float(rng.choice([-1.0, 1.0]))
    while abs(u + v) < 0.3 or abs(u - v) < 0.3:
        v = float(rng.uniform(0.6, 2.4)) * float(rng.choice([-1.0, 1.0]))
    d = rng.normal(size=3)
    return {
        "oracle_ratio": ratio,
        "k0hat_shell_ratio": (shell_k, shell_k),
        "bidist_A_oracle": (u, v),
        "nested_line_integral": {
            "a": [float(c) for c in rng.normal(size=4)],
            "b": [float(c) for c in rng.normal(size=4)],
            "x": [float(c) for c in rng.normal(size=4)],
            "y": [float(c) for c in rng.normal(size=4)],
            "w1": [int(c) for c in rng.integers(0, 3, size=3)],
            "w2": [int(c) for c in rng.integers(0, 3, size=3)],
        },
        "positivity_probe": {
            "coeffs": [float(c) for c in rng.normal(size=4)],
            "shift": [float(c) for c in rng.normal(size=4) * 0.3],
            "x": [float(rng.normal() * 0.2), *(float(c) for c in rng.normal(size=3) * 0.4)],
            "dir": [float(c) for c in d / np.linalg.norm(d)],
        },
        "time_average_identity_check": [
            ("gauss", float(rng.uniform(0.6, 1.8))),
            ("damped_sine", float(rng.uniform(0.7, 1.6)), float(rng.uniform(0.6, 1.4))),
        ],
        "conv_masscone_shell_oracle": upper_cone_q(rng, rest_frame=False),
    }
