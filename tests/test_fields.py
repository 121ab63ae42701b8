import ast
import json
import os
import pathlib
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    dense_jet_pair,
    gap_family_pair,
    jet_at,
    matched_jet_pair,
    opposite_transfer_pair,
    random_amplitude,
    random_jet,
    random_maxwell_field,
    violating_jet_pair,
)
from lightcone import fields
from lightcone.clifford import minkowski, slash
from lightcone.errors import ConfigInvalid, ConfigMalformed, InvalidMode, MalformedMode
from lightcone.fields import (
    DEFAULT_BOX,
    FermionicJet,
    MaxwellField,
    _matched_pairs,
    _transfer_classes,
    dirac_basis,
    field_tensor_hat,
    load_config,
    pairing_predicates,
    time_translate,
)
from lightcone.slayer import _term_rows

# a null momentum at lattice index (16, 0, 0) of the default box, and a
# polarization in its Lorenz-gauge plane
_P, _EPS = (1.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0)


@contextmanager
def inadmissible():
    """Expect an InvalidMode that is not a MalformedMode: field content the
    constraints reject, not a number outside its domain."""
    with pytest.raises(InvalidMode) as info:
        yield
    assert not isinstance(info.value, MalformedMode)


def test_maxwell_mode_validation():
    MaxwellField([_P], [_EPS])
    for p, eps in (
        ((1.0, 0.5, 0.0, 0.0), _EPS),  # off shell
        (_P, (1.0, 0.0, 0.0, 0.0)),  # gauge violated
        ((0.0, 0.0, 0.0, 0.0), _EPS),  # zero momentum
    ):
        with inadmissible():
            MaxwellField([_P, p], [_EPS, eps])
    for p, eps in (
        # p.p overflows, so p^2 = inf - inf would pass the light-cone test
        ((1e200, 1e200, 0.0, 0.0), _EPS),
        (_P, (0.0, 0.0, 1e200, 0.0)),  # |eps|^2 overflows, and so would its gauge test
        ((np.nan, 1.0, 0.0, 0.0), _EPS),
        (_P, (0.0, 0.0, np.nan, 0.0)),
    ):
        with pytest.raises(MalformedMode):
            MaxwellField([_P, p], [_EPS, eps])


def test_maxwell_field_keeps_box_and_lattice_indices(rng):
    box = 10.0
    field = random_maxwell_field(rng, box, n_modes=3)
    assert field.box == box and field.n.dtype == np.int64 and field.n.shape == (3, 3)
    assert np.array_equal(2.0 * np.pi * field.n / box, field.p[:, 1:])
    assert field.p.shape == field.eps.shape == (3, 4)
    for name in ("p", "eps", "n"):
        with pytest.raises(ValueError):
            getattr(field, name)[0] = 0  # read-only
    # p keeps its input bits, and the caller's arrays stay writable
    p = np.array([_P])
    kept = MaxwellField(p, [_EPS])
    assert kept.p is not p and np.array_equal(kept.p, p) and p.flags.writeable
    assert kept.n.tolist() == [[16, 0, 0]]
    # a far index is kept exactly
    far = 2.0 * np.pi * 9000014 / box
    assert MaxwellField([(far, far, 0.0, 0.0)], [_EPS], box).n.tolist() == [[9000014, 0, 0]]
    with inadmissible():  # rounds to lattice index 0, where 1/|k| is undefined
        MaxwellField([(1e-12, 1e-12, 0.0, 0.0)], [_EPS])
    with pytest.raises(InvalidMode):  # one momentum row, two polarization rows
        MaxwellField(field.p[:1], field.eps[:2], box)
    with pytest.raises(InvalidMode):
        MaxwellField([_P[:3]], [_EPS[:3]])
    for bad_box in (0.0, -1.0, np.nan):
        with pytest.raises(InvalidMode):
            MaxwellField(field.p, field.eps, bad_box)
    # replace re-validates
    with pytest.raises(InvalidMode):
        replace(field, p=field.p * (2.0, 1.0, 1.0, 1.0))  # off the light cone
    with pytest.raises(InvalidMode):
        replace(field, eps=np.outer(np.ones(3), (1.0, 0.0, 0.0, 0.0)))  # p.eps = p0, not 0
    with pytest.raises(InvalidMode):
        replace(field, box=np.sqrt(2.0) * box)  # off that box's lattice
    assert len(MaxwellField((), ()).n) == 0


def test_field_tensor_properties(rng):
    field = random_maxwell_field(rng, n_modes=20)
    f = field_tensor_hat(field.eps, field.p)
    assert f.shape == (20, 4, 4)
    assert np.allclose(f, -np.swapaxes(f, 1, 2))
    # F_{jk} p^k = 0 by the null and Lorenz conditions
    assert np.allclose(np.einsum("mjk,mk->mj", f, field.p), 0.0, atol=1e-9)
    # rows broadcast: each is the tensor of its own term
    for eps, p, f_row in zip(field.eps, field.p, f):
        assert np.array_equal(field_tensor_hat(eps, p), f_row)


def test_box_quantization_enforced():
    with pytest.raises(InvalidMode):
        MaxwellField([_P], [_EPS], box=10.0)  # 1 * 10 / 2pi is not an integer
    MaxwellField([_P], [_EPS], box=2.0 * np.pi)


def test_jet_keeps_box_and_lattice_indices(rng):
    box = 10.0
    jet = jet_at(rng, [(2, 0, -1)], [(0, 3, 0)], box)
    assert jet.box == box
    assert jet.psi_n.dtype == np.int64 and jet.psi_n.tolist() == [[2, 0, -1]]
    assert jet.delta_psi_n.tolist() == [[0, 3, 0]]
    assert jet.psi_a.shape == jet.delta_psi_a.shape == (1, 4)
    for name in ("psi_n", "psi_a", "psi_k0", "delta_psi_n", "delta_psi_a", "delta_psi_k0"):
        with pytest.raises(ValueError):
            getattr(jet, name)[0] = 0  # read-only
    # the index is kept exactly, however far out
    far = jet_at(rng, [(2, 0, -1)], [(9000014, 0, 0)], box)
    assert far.delta_psi_n.tolist() == [[9000014, 0, 0]]
    with pytest.raises(InvalidMode):
        FermionicJet(jet.psi_n, jet.psi_a, jet.delta_psi_n, jet.delta_psi_a, 1.0, 0.0)
    with pytest.raises(InvalidMode):
        FermionicJet((), (), (), (), 1.0, -1.0)
    with pytest.raises(InvalidMode):
        FermionicJet((), (), (), (), 0.0)
    with pytest.raises(MalformedMode):  # float indices are not lattice indices
        FermionicJet(jet.psi_n * 1.0, jet.psi_a, jet.delta_psi_n, jet.delta_psi_a, 1.0, box)
    with pytest.raises(MalformedMode):  # nor are booleans
        FermionicJet(jet.psi_n != 0, jet.psi_a, jet.delta_psi_n, jet.delta_psi_a, 1.0, box)
    with pytest.raises(InvalidMode):  # one index row, two amplitude rows
        FermionicJet(jet.psi_n, np.vstack((jet.psi_a, jet.psi_a)), jet.delta_psi_n, jet.delta_psi_a, 1.0, box)
    with pytest.raises(MalformedMode):  # a frequency that overflows
        FermionicJet(jet.psi_n, jet.psi_a, [[2**62, 0, 0]], jet.delta_psi_a, 1.0, 1e-300)
    with pytest.raises(MalformedMode):  # an index list that does not fit in int64
        FermionicJet(jet.psi_n, jet.psi_a, [[2**64, 0, 0]], jet.delta_psi_a, 1.0, box)
    # every malformed check of both sides comes before any admissibility check
    with pytest.raises(MalformedMode):
        FermionicJet([[2**62, 0, 0]], jet.psi_a, jet.delta_psi_n, jet.delta_psi_a * 1e200, 1.0, box)
    assert len(FermionicJet((), (), (), (), 1.0).psi_n) == 0


def test_jet_rejects_indices_whose_transfers_overflow(rng):
    # psi at -2^62 and delta_psi at 2^62 + 2 would make the transfer 2^63 + 2,
    # which wraps in int64; -2^63 itself wraps under np.abs
    for bad in (2**62, -(2**62), 2**62 + 2, 2**63 - 1, -(2**63)):
        with inadmissible():
            jet_at(rng, [(0, 0, 0)], [(bad, 0, 0)])
        with inadmissible():
            jet_at(rng, [(0, 0, bad)], [(0, 0, 0)])
    far = jet_at(rng, [(-(2**62 - 1), 0, 0)], [(2**62 - 1, 0, 0)])
    assert (far.delta_psi_n - far.psi_n).tolist() == [[2**63 - 2, 0, 0]]


def test_terms_include_conjugates(rng):
    field = random_maxwell_field(rng, n_modes=3)
    n, p, eps = _term_rows(field)
    assert n.shape == (6, 3) and p.shape == eps.shape == (6, 4)
    assert np.array_equal(n, np.concatenate((field.n, -field.n)))
    assert np.array_equal(p, np.concatenate((field.p, -field.p)))
    assert np.array_equal(eps, np.concatenate((field.eps, np.conj(field.eps))))


def test_dirac_mode_on_shell(rng):
    jet = random_jet(rng, n_psi=3, n_delta=3)
    for shell, n, a, k0 in ((-1, jet.psi_n, jet.psi_a, jet.psi_k0), (1, jet.delta_psi_n, jet.delta_psi_a, jet.delta_psi_k0)):
        for n_row, a_row, k0_row in zip(n, a, k0):
            k = np.concatenate(([k0_row], 2.0 * np.pi * n_row / jet.box))
            assert np.sign(k0_row) == shell
            assert np.allclose((slash(k) - jet.m * np.eye(4)) @ a_row, 0.0, atol=1e-9)
            assert minkowski(k, k) == pytest.approx(jet.m**2, abs=1e-9)


def test_dirac_mode_rejects_off_shell():
    # at rest the upper shell is spanned by the first two spinor components
    rest = np.zeros((1, 3), dtype=np.int64)
    with inadmissible():
        FermionicJet((), (), rest, [(0.0, 0.0, 1.0, 0.0)], 1.0)
    with inadmissible():
        FermionicJet((), (), rest, [(0.0, 0.0, 0.0, 0.0)], 1.0)  # zero amplitude
    with pytest.raises(MalformedMode):
        FermionicJet((), (), rest, [(np.nan, 0.0, 0.0, 0.0)], 1.0)
    with pytest.raises(MalformedMode):  # on shell, but ||a||^2 overflows
        FermionicJet((), (), rest, [(1e200, 0.0, 0.0, 0.0)], 1.0)
    FermionicJet((), (), rest, [(1.0, 0.0, 0.0, 0.0)], 1.0)


def test_dirac_mode_accepts_exact_spinor_far_out():
    # residual 1.9e-9 from roundoff alone at |k| = 2 pi 3e7 / 10
    n = np.array([[30000000, 0, 0]])
    kvec = 2.0 * np.pi * n[0] / 10.0
    for a in dirac_basis(1, kvec, 1.0):
        FermionicJet((), (), n, [a], 1.0, 10.0)


def test_dirac_basis_orthonormal(rng):
    for shell in (1, -1):
        kvec = rng.normal(size=3)
        b = dirac_basis(shell, kvec, 1.0)
        gram = np.array([[np.vdot(x, y) for y in b] for x in b])
        assert np.allclose(gram, np.eye(2), atol=1e-12)


def test_dirac_mode_plane_wave_phase(rng):
    jet = random_jet(rng, n_psi=2, n_delta=3)
    x = np.array([0.7, 1.0, -2.0, 0.5])
    for at, n, a, k0 in ((lambda x: jet.at("psi", x), jet.psi_n, jet.psi_a, jet.psi_k0),
                         (lambda x: jet.at("delta_psi", x), jet.delta_psi_n, jet.delta_psi_a, jet.delta_psi_k0)):
        expected = sum(
            a_row * np.exp(-1j * (k0_row * x[0] - (2.0 * np.pi * n_row / jet.box) @ x[1:]))
            for n_row, a_row, k0_row in zip(n, a, k0)
        )
        assert np.allclose(at(x), expected)


def test_jet_shell_constraints(rng):
    # psi lies on the lower shell and delta_psi on the upper: an amplitude
    # of the other shell is off shell there
    n = np.array([[1, -2, 0]])
    upper, lower = random_amplitude(rng, 1, n[0]), random_amplitude(rng, -1, n[0])
    FermionicJet(n, [lower], n, [upper], 1.0)
    with pytest.raises(InvalidMode):
        FermionicJet(n, [upper], n, [upper], 1.0)
    with pytest.raises(InvalidMode):
        FermionicJet(n, [lower], n, [lower], 1.0)
    # a config names each mode's shell; the loader checks it against its side
    for side, shell in (("psi", 1), ("delta_psi", -1)):
        cfg = _sample_config()
        cfg["jets"][0][side][0]["shell"] = shell
        with pytest.raises(ConfigInvalid) as info:
            load_config(cfg)
        assert not isinstance(info.value, ConfigMalformed)


def test_pairing_predicates(rng):
    ju, jv = violating_jet_pair(rng)
    report = pairing_predicates(ju, jv)
    assert report["quadruples"].tolist() == [[0, 0, 0, 0]]
    assert report["flagged"].tolist() == [[0, 0, 0, 0]]
    assert not report["implication_holds"]
    # a jet paired with itself conserves trivially
    self_report = pairing_predicates(ju, ju)
    assert self_report["implication_holds"]


def test_pairing_predicates_flags_opposite_transfers(rng):
    ju, jv = opposite_transfer_pair(rng)
    report = pairing_predicates(ju, jv)
    # four equal transfers (each mode pair with itself) and four opposite
    assert report["quadruples"].shape == (8, 4)
    assert len(report["flagged"]) == 4
    for du, pu, dv, pv in report["flagged"]:
        transfer_u = ju.delta_psi_n[du] - ju.psi_n[pu]
        assert np.array_equal(transfer_u, -(jv.delta_psi_n[dv] - jv.psi_n[pv]))
    assert not report["implication_holds"]


def reference_pairing_predicates(jet_u, jet_v):
    """Quadruple-by-quadruple evaluation of pairing_predicates: a loop over
    every (du, pu, dv, pv), row-major, with the transfers compared as
    tuples of Python ints.  Equal transfers must carry equal frequency
    transfers omega_d + omega_p: one mass, and one multiset of Python-int
    squared norms {|n_d|^2, |n_p|^2}.  Opposite transfers are all flagged,
    since every frequency transfer is positive.  Returns (quadruples,
    flagged) as lists."""
    def transfers(jet):
        squares = [[sum(int(c) ** 2 for c in n) for n in side] for side in (jet.delta_psi_n, jet.psi_n)]
        return [
            ((d, p), tuple(int(a) - int(b) for a, b in zip(jet.delta_psi_n[d], jet.psi_n[p])),
             (jet.m, sorted((squares[0][d], squares[1][p]))))
            for d in range(len(jet.delta_psi_n))
            for p in range(len(jet.psi_n))
        ]

    quadruples, flagged = [], []
    for pair_u, dn_u, dw_u in transfers(jet_u):
        for pair_v, dn_v, dw_v in transfers(jet_v):
            equal, opposite = dn_u == dn_v, dn_u == tuple(-c for c in dn_v)
            if equal or opposite:
                quadruples.append([*pair_u, *pair_v])
                if opposite or dw_u != dw_v:
                    flagged.append([*pair_u, *pair_v])
    return quadruples, flagged


# Equal transfers (0, -2, -8) with |n|^2 {0, 68} and {33, 33}: in the box
# 32 pi, omega(0) + omega(68) = 2 omega(33) = 17/8, so in the float box the
# frequency sums agree to roundoff, and the exact gap is -2.5e-19
_COINCIDENT = (([(0, 2, 8)], [(0, 0, 0)]), ([(-4, 1, 4)], [(-4, -1, -4)]))


def test_pairing_predicates_matches_reference(rng):
    cases = [("violating", *violating_jet_pair(rng)), ("opposite", *opposite_transfer_pair(rng))]
    cases += [("matched", *matched_jet_pair(rng)) for _ in range(2)]
    # zero transfers, which are equal and opposite at once, are frequent here
    cases += [("dense", *dense_jet_pair(rng, n)) for n in (1, 2, 3, 4, 6) for _ in range(2)]
    u = random_jet(rng, n_psi=2, n_delta=2)
    empty = FermionicJet((), (), (), (), 1.0)
    cases += [("empty", empty, u), ("empty", u, empty), ("empty", jet_at(rng, [], [(1, 0, 0)]), u)]
    # transfers of +-(2^63 - 2), opposite, and rows too far apart to pack into one int64
    far = 2**62 - 1
    cases.append(("far", jet_at(rng, [(-far, 0, 0)], [(far, 0, 0)]), jet_at(rng, [(far, 0, 0)], [(-far, 0, 0)])))
    # equal transfers whose float frequency transfers coincide, though the
    # exact ones differ
    coincident = [jet_at(rng, *sides) for sides in _COINCIDENT]
    for name, (u, v) in (("gap", gap_family_pair(rng, 3 * 10**4)), ("coincident", coincident)):
        assert u.delta_psi_k0[0] - u.psi_k0[0] == v.delta_psi_k0[0] - v.psi_k0[0]
        cases.append((name, u, v))
    # the same momenta at two masses
    psi_ns, delta_ns = [(1, 0, 0), (0, 2, 0)], [(0, 1, 0), (2, 0, 1)]
    cases.append(("masses", jet_at(rng, psi_ns, delta_ns), jet_at(rng, psi_ns, delta_ns, m=1.5)))
    seen = set()
    for name, u, v in cases:
        want_quadruples, want_flagged = reference_pairing_predicates(u, v)
        report = pairing_predicates(u, v)
        assert report["quadruples"].shape == (len(want_quadruples), 4), name
        assert report["quadruples"].tolist() == want_quadruples, name
        assert report["flagged"].shape == (len(want_flagged), 4), name
        assert report["flagged"].tolist() == want_flagged, name
        assert report["implication_holds"] == (not want_flagged), name
        if want_flagged:
            seen.add(name + " flagged")
        if any(not np.any(u.delta_psi_n[du] - u.psi_n[pu]) for du, pu, _, _ in want_quadruples):
            seen.add(name + " zero transfer")
    assert seen >= {
        "coincident flagged", "dense flagged", "dense zero transfer", "far flagged", "gap flagged",
        "masses flagged", "opposite flagged", "violating flagged",
    }


def _mp_omega(square, box=DEFAULT_BOX, m=1.0):
    """omega at a lattice index of squared norm square, in mpmath at its
    working precision, with the float box and mass taken exactly."""
    return mpmath.sqrt((2 * mpmath.pi / mpmath.mpf(box)) ** 2 * int(square) + mpmath.mpf(m) ** 2)


@pytest.mark.parametrize("big_n", [3 * 10**3, 10**4, 3 * 10**4, 10**5, 3 * 10**5, 10**6, 3 * 10**6, 10**7])
def test_the_gap_family_misses_its_frequency_relation_at_50_digits(rng, big_n):
    # the gap 2 omega(N) - omega(N - 1) - omega(N + 1) is -omega''(N) =
    # -A / omega(N)^3 to relative O(1/N^2), with A = (2 pi / L)^2: from
    # -5.9e-10 at N = 3000 to -1.6e-20 at 10^7, far above 50 digits'
    # resolution, where float64 loses it from N = 3 * 10^4
    with mpmath.workdps(50):
        gap = 2 * _mp_omega(big_n**2) - _mp_omega((big_n - 1) ** 2) - _mp_omega((big_n + 1) ** 2)
        a = (2 * mpmath.pi / mpmath.mpf(DEFAULT_BOX)) ** 2
        assert abs(gap / (-a / _mp_omega(big_n**2) ** 3) - 1) < 1e-6
    assert not pairing_predicates(*gap_family_pair(rng, big_n))["implication_holds"]


def test_frequency_sums_agree_exactly_when_the_squared_norm_multisets_do(rng):
    # on one-mode jets (d, p) and (c, q): the exact gap omega(d) + omega(p)
    # - omega(c) - omega(q), at 50 digits, is zero exactly when the two
    # pairs' transfer classes are equal
    (psi_u, delta_u), (psi_v, delta_v) = _COINCIDENT
    quadruples = [(delta_u[0], psi_u[0], delta_v[0], psi_v[0])]
    for _ in range(300):
        d, p, c, q = rng.integers(-3, 4, size=(4, 3))
        if rng.random() < 0.5:
            # the squared norms of d and p, in either order: permuted and reflected components
            pair = (d, p) if rng.random() < 0.5 else (p, d)
            c, q = (rng.permutation(x) * rng.choice((-1, 1), size=3) for x in pair)
        quadruples.append((d, p, c, q))
    seen = set()
    for d, p, c, q in quadruples:
        classes_u, classes_v = _transfer_classes(jet_at(rng, [p], [d]), jet_at(rng, [q], [c]))
        with mpmath.workdps(50):
            # each sum rounded once, so that equal multisets give equal sums
            omega_u, omega_v = (_mp_omega(np.dot(x, x)) + _mp_omega(np.dot(y, y)) for x, y in ((d, p), (c, q)))
            gap = omega_u - omega_v
        assert (gap == 0) == (classes_u[0] == classes_v[0]), (d, p, c, q, gap)
        seen.add(gap == 0)
    assert seen == {True, False}


def test_no_src_module_imports_mpmath():
    # mpmath is a test oracle: it shares no code path with the program
    src = pathlib.Path(fields.__file__).parent
    imported = [
        (path.name, name.split(".")[0])
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in ([alias.name for alias in node.names] if isinstance(node, ast.Import) else [node.module or ""])
    ]
    assert ("fields.py", "numpy") in imported
    assert [entry for entry in imported if entry[1] == "mpmath"] == []


def test_only_fields_decides_the_frequency_relation():
    # _transfer_classes decides every frequency relation; a module that
    # named it beside pairing_predicates would be a second decider
    src = pathlib.Path(fields.__file__).parent
    naming = {
        path.name
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Name) and node.id == "_transfer_classes")
        or (isinstance(node, ast.Attribute) and node.attr == "_transfer_classes")
        or (isinstance(node, ast.alias) and node.name == "_transfer_classes")
        or (isinstance(node, ast.FunctionDef) and node.name == "_transfer_classes")
    }
    assert naming == {"fields.py"}


def test_matched_pairs_orders_as_the_broadcast_mask(rng):
    none = np.zeros(0, dtype=np.int64)
    cases = [
        (rng.integers(0, 4, size=30), rng.integers(0, 4, size=25)),  # repeated codes
        (rng.integers(0, 40, size=30), rng.integers(0, 40, size=25)),
        (np.arange(5), np.arange(5, 9)),  # disjoint
        (none, rng.integers(0, 3, size=4)),
        (rng.integers(0, 3, size=4), none),
        (none, none),
    ]
    for a, b in cases:
        i, j = _matched_pairs(a, b)
        want_i, want_j = np.nonzero(a[:, None] == b[None, :])
        assert i.tolist() == want_i.tolist() and j.tolist() == want_j.tolist()
    assert len(_matched_pairs(*cases[0])[0]) > 30


def test_time_translation_phases(rng):
    jet = random_jet(rng, n_psi=2, n_delta=2)
    dt = 0.7
    moved = time_translate(jet, dt)
    assert np.allclose(moved.psi_a, jet.psi_a * np.exp(-1j * jet.psi_k0 * dt)[:, None])
    assert np.allclose(moved.delta_psi_a, jet.delta_psi_a * np.exp(-1j * jet.delta_psi_k0 * dt)[:, None])
    assert np.array_equal(moved.psi_n, jet.psi_n) and np.array_equal(moved.delta_psi_k0, jet.delta_psi_k0)
    field = random_maxwell_field(rng, n_modes=3)
    fmoved = time_translate(field, dt)
    assert np.allclose(fmoved.eps, field.eps * np.exp(-1j * field.p[:, 0] * dt)[:, None])
    assert np.array_equal(fmoved.p, field.p) and np.array_equal(fmoved.n, field.n)
    with pytest.raises(TypeError):
        time_translate("not a field", 1.0)


def test_time_translation_matches_the_validated_copy_without_validating(rng, monkeypatch):
    # bit for bit the copy dataclasses.replace builds through the
    # constructor, which time_translate does not run; a time whose phases
    # are not finite is malformed, as the constructor would find
    dt = 0.7
    jet, field = random_jet(rng, n_psi=2, n_delta=3), random_maxwell_field(rng, n_modes=3)
    wants = (
        replace(
            jet,
            psi_a=jet.psi_a * np.exp(-1j * jet.psi_k0 * dt)[:, None],
            delta_psi_a=jet.delta_psi_a * np.exp(-1j * jet.delta_psi_k0 * dt)[:, None],
        ),
        replace(field, eps=field.eps * np.exp(-1j * field.p[:, 0] * dt)[:, None]),
    )

    def refuse(self):
        raise AssertionError("__post_init__ ran")

    monkeypatch.setattr(FermionicJet, "__post_init__", refuse)
    monkeypatch.setattr(MaxwellField, "__post_init__", refuse)
    for obj, want in zip((jet, field), wants):
        moved = time_translate(obj, dt)
        assert type(moved) is type(want) and moved.__dict__.keys() == want.__dict__.keys()
        for name, value in want.__dict__.items():
            got = getattr(moved, name)
            if isinstance(value, np.ndarray):
                assert got.dtype == value.dtype and got.shape == value.shape and got.tobytes() == value.tobytes()
                assert not got.flags.writeable
            else:
                assert got == value
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(MalformedMode):
                time_translate(obj, bad)


def _sample_config():
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
            }
        ],
        "jets": [
            {
                "psi": [
                    {
                        "shell": -1,
                        "n": [0, 0, 0],
                        "a_re": [0.0, 0.0, 1.0, 0.0],
                        "a_im": [0.0] * 4,
                    }
                ],
                "delta_psi": [
                    {
                        "shell": 1,
                        "n": [0, 0, 0],
                        "a_re": [1.0, 0.0, 0.0, 0.0],
                        "a_im": [0.0] * 4,
                    }
                ],
            }
        ],
    }


def test_load_config_roundtrip(tmp_path):
    cfg = _sample_config()
    box, mass, maxwell_fields, jets = load_config(cfg)
    assert box == pytest.approx(DEFAULT_BOX)
    assert mass == 1.0
    assert len(maxwell_fields) == 1 and len(jets) == 1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    box2, _, fields2, jets2 = load_config(str(path))
    assert box2 == box
    assert np.array_equal(fields2[0].p, maxwell_fields[0].p)
    assert maxwell_fields[0].p.tolist() == [cfg["maxwell"][0]["p"]]


def test_load_config_rejects_bad_content(tmp_path):
    with pytest.raises(ConfigInvalid):
        load_config({"mass": 1.0})  # missing box
    with pytest.raises(ConfigInvalid):
        load_config({"box": -1.0, "mass": 1.0})
    for key in ("box", "mass"):
        for value in (float("nan"), float("inf")):
            bad_number = _sample_config()
            bad_number[key] = value
            with pytest.raises(ConfigMalformed):
                load_config(bad_number)
    bad = _sample_config()
    bad["maxwell"][0]["p"] = [1.0, 0.5, 0.0, 0.0]
    with pytest.raises(ConfigInvalid):
        load_config(bad)
    for path, value in (
        (("jets", 0, "psi", 0, "n"), [0.5, 0, 0]),
        (("jets", 0, "psi", 0, "n"), [float("nan"), 0, 0]),
        (("jets", 0, "delta_psi", 0, "a_re"), [float("nan"), 0.0, 0.0, 0.0]),
        (("jets", 0, "delta_psi", 0, "a_im"), [float("inf"), 0.0, 0.0, 0.0]),
        (("maxwell", 0, "p"), [float("nan"), 1.0, 0.0, 0.0]),
        (("maxwell", 0, "eps_im"), [0.0, 0.0, float("inf"), 0.0]),
    ):
        bad_mode = _sample_config()
        entry = bad_mode
        for key in path[:-1]:
            entry = entry[key]
        entry[path[-1]] = value
        with pytest.raises(ConfigMalformed):
            load_config(bad_mode)
    bad2 = _sample_config()
    bad2["jets"][0]["psi"][0]["shell"] = 1
    with pytest.raises(ConfigInvalid):
        load_config(bad2)
    # every entry is read before any mode is built: an entry the loader
    # cannot read wins over a malformed number in an earlier entry
    bad3 = _sample_config()
    bad3["jets"][0]["delta_psi"][0]["a_re"][0] = float("nan")
    bad3["jets"].append({"psi": [dict(bad3["jets"][0]["psi"][0], shell=1)]})
    with pytest.raises(ConfigInvalid) as info:
        load_config(bad3)
    assert not isinstance(info.value, ConfigMalformed)
    with pytest.raises(ConfigInvalid):
        load_config(str(tmp_path / "missing.json"))


def _number_paths(value, path=()):
    """The paths of every number and list of numbers in value, and of each
    such list's elements."""
    if isinstance(value, dict):
        return [p for key, item in value.items() for p in _number_paths(item, (*path, key))]
    if isinstance(value, list) and value and all(isinstance(x, (int, float)) for x in value):
        return [path, *((*path, i) for i in range(len(value)))]
    if isinstance(value, list):
        return [p for i, item in enumerate(value) for p in _number_paths(item, (*path, i))]
    return [path]


_NON_NUMBERS = st.one_of(
    st.sampled_from([10**400, -(10**400), 2**63, -(2**63), float("nan"), float("inf"), float("-inf"), -0.0, 1e308]),
    st.text(max_size=8),
    st.booleans(),
    st.none(),
    st.sampled_from([0, 3, 5]).flatmap(
        lambda size: st.lists(st.integers(-3, 3) | st.floats(-2.0, 2.0), min_size=size, max_size=size)
    ),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(_number_paths(fields.default_config())), _NON_NUMBERS)
def test_load_config_is_total(path, value):
    # any value at any number of the default config loads or is rejected as
    # ConfigInvalid (ConfigMalformed among them): no other exception and,
    # by the warning filters, no RuntimeWarning
    cfg = fields.default_config()
    entry = cfg
    for key in path[:-1]:
        entry = entry[key]
    entry[path[-1]] = value
    try:
        load_config(cfg)
    except ConfigInvalid:
        pass


def test_config_numbers_have_one_reader():
    # of load_config and the module-level functions of fields.py it reaches,
    # only _numbers converts values: none other calls float, int, complex or
    # a numpy array constructor, so "what counts as a number" is decided
    # once.  The classes MaxwellField and FermionicJet are not scanned: their
    # constructors take the arrays _numbers made and only fix their dtype
    tree = ast.parse(pathlib.Path(fields.__file__).read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    converters = {"float", "int", "complex", "np.asarray", "np.asanyarray", "np.array", "np.float64", "np.int64"}

    def calls(fn):
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                yield node.func.id
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                yield f"{getattr(node.func.value, 'id', '')}.{node.func.attr}"

    readers, todo = set(), ["load_config"]
    while todo:
        name = todo.pop()
        if name not in readers:
            readers.add(name)
            todo.extend(set(calls(functions[name])) & functions.keys())
    assert {"_objects", "_numbers", "_complex", "_jet_side_from_json"} < readers
    assert {name for name in readers if converters & set(calls(functions[name]))} == {"_numbers"}


def test_default_jet_coefficients_are_the_seeded_draws():
    # written out so that no run imports numpy.random, they stay the draws
    # normal(size=2) + 1j * normal(size=2), psi's then delta_psi's, bit for bit
    for seed, pairs in zip((101, 202), fields._JET_COEFFICIENTS):
        rng = np.random.default_rng(seed)
        for pair in pairs:
            assert (rng.normal(size=2) + 1j * rng.normal(size=2)).tolist() == list(pair)


def test_default_config_imports_no_numpy_random():
    script = (
        "import sys\n"
        "from lightcone import fields\n"
        "fields.load_config(fields.default_config())\n"
        "print('numpy.random' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(fields.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert proc.stdout.splitlines()[-1] == "False"
