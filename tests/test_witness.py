"""Per-site thresholds, verdicts, proof-support quantities and thermal crossings."""

import csv
import runpy
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinwitness import eigensolvers, witness
from spinwitness.cli import main
from spinwitness.operators import parse_spin, spin_str
from spinwitness.eigensolvers import (SolverError, dense_spectrum,
                                      sectored_ground_state)
from spinwitness.hamiltonians import (
    CHAIN,
    RING,
    Arc,
    SpinSystem,
    build_hamiltonian,
    defected_ring,
    site_maps,
)
from spinwitness.witness import (
    defect_series,
    eta_s,
    f_factor,
    full_spectrum,
    ground_energy,
    single_site_threshold,
    thermal_energy,
    threshold_table,
    threshold_temperature,
    verdict,
    verify_not_eigenstate,
)


class TestSingleSiteThreshold:
    def test_square_ring_analytic(self):
        # 4-qubit ring, one site factored out: dressed 3-chain ground energy
        # is -(1 + sqrt(3))/2 by direct diagonalization of the 8-dim block
        system = SpinSystem.ring(4, "1/2")
        e = single_site_threshold(system, 0)
        assert abs(e + (1 + np.sqrt(3)) / 2) < 1e-10

    def test_homogeneous_ring_site_independent(self):
        system = SpinSystem.ring(6, "1/2")
        values = [single_site_threshold(system, k) for k in range(6)]
        assert max(values) - min(values) < 1e-10

    def test_site_out_of_range(self):
        with pytest.raises(ValueError):
            single_site_threshold(SpinSystem.ring(4, "1/2"), 4)

    def test_chain_edge_one_neighbour(self):
        # chain edge spin has a single neighbour: threshold differs from bulk
        system = SpinSystem.chain(4, "1/2")
        edge = single_site_threshold(system, 0)
        bulk = single_site_threshold(system, 1)
        assert edge != pytest.approx(bulk, abs=1e-6)


class TestThresholdTable:
    def test_costs_positive(self):
        system = SpinSystem.ring(6, "1/2")
        e0 = ground_energy(system)
        assert all(e > e0 for e in threshold_table(system))

    def test_one_solve_on_a_homogeneous_ring(self, monkeypatch):
        calls = _count_solves(monkeypatch)
        thresholds = threshold_table(SpinSystem.ring(8, "1"))
        assert calls == [0]
        assert len(set(thresholds)) == 1

    def test_one_solve_per_site_class_of_the_bench_series(self, monkeypatch):
        # classes per table: spin 0 -> 4 of 7, homogeneous -> 1, others 5 of 8
        calls = _count_solves(monkeypatch)
        defect_series(SpinSystem.ring(8, "1"), 4,
                      ["0", "1/2", "1", "3/2", "2", "5/2"])
        assert len(calls) == 25


def _count_solves(monkeypatch) -> list:
    """Record the site of every single_site_threshold solve."""
    calls = []

    def counted(system, k, seed=42):
        calls.append(k)
        return single_site_threshold(system, k, seed)

    monkeypatch.setattr(witness, "single_site_threshold", counted)
    return calls


SPIN_LISTS = st.lists(st.sampled_from([1, 2, 3]), min_size=3, max_size=6)


@settings(max_examples=25, deadline=None)
@given(SPIN_LISTS, st.sampled_from([RING, CHAIN]), st.data())
def test_table_equals_per_site_solves(two_s, topology, data):
    """Copying a threshold across a symmetry class changes it by rounding
    only; random spin lists include defected and symmetric systems."""
    if data.draw(st.booleans(), label="homogeneous with one defect"):
        two_s = [two_s[0]] * len(two_s)
        two_s[data.draw(st.integers(0, len(two_s) - 1))] = two_s[-1]
    system = SpinSystem(topology, tuple(two_s))
    thresholds = threshold_table(system)
    assert len(thresholds) == system.n_sites
    for k, e in enumerate(thresholds):
        assert abs(e - single_site_threshold(system, k)) < 1e-12, k


class TestDefectSeries:
    def test_spinless_defect_zero_cost_entry(self):
        tables = defect_series(SpinSystem.ring(4, "1/2"), 0, ["0"])
        table = tables[0]
        assert table.entries[0] == (0, table.e0, 0.0)
        assert len(table.entries) == 4

    def test_mirror_symmetry(self):
        tables = defect_series(SpinSystem.ring(6, "1/2"), 2, ["1"])
        costs = {k: c for k, _, c in tables[0].entries}
        for d in (1, 2, 3):
            assert abs(costs[(2 - d) % 6] - costs[(2 + d) % 6]) < 1e-8

    def test_labels(self):
        tables = defect_series(SpinSystem.ring(4, "1/2"), 0, ["1/2", "1"],
                               labels=["a", "b"])
        assert [t.label for t in tables] == ["a", "b"]
        auto = defect_series(SpinSystem.ring(4, "1/2"), 0, ["3/2"])
        assert auto[0].label == "s_M=3/2"

    def test_workers_give_the_same_tables(self):
        args = (SpinSystem.ring(4, "1/2"), 1, ["0", "1", "3/2"])
        assert defect_series(*args, workers=2) == defect_series(*args, workers=1)


class TestVerdict:
    def test_boundary_is_exclusive(self):
        thresholds = [-1.5, -1.4]
        v = verdict(-1.45, thresholds, global_ebs=-1.3)
        assert v.sites_provably_entangled == [1]
        # at exactly max_k E_bs^k the strict inequality certifies nothing new
        v = verdict(max(thresholds), thresholds, -1.3)
        assert v.sites_provably_entangled == []
        v = verdict(-1.2, thresholds, -1.3)
        assert v.sites_provably_entangled == []
        assert not v.multipartite_detected

    def test_multipartite_implies_all_sites(self):
        system = SpinSystem.ring(6, "1/2")
        thresholds = threshold_table(system)
        from spinwitness.scf import biseparable_scan
        scan = biseparable_scan(system)
        v = verdict(scan.ebs - 1e-6, thresholds, scan.ebs)
        assert v.multipartite_detected
        assert v.sites_provably_entangled == list(range(6))


class TestProofSupport:
    def test_eta_closed_form(self):
        # eta_s = sqrt(s(s+1)/3)
        for spin in ("1/2", "1", "3/2", "2", "5/2"):
            from fractions import Fraction
            s = Fraction(spin)
            expected = np.sqrt(float(s * (s + 1) / 3))
            assert abs(eta_s(spin) - expected) < 1e-12

    def test_eta_half(self):
        assert abs(eta_s("1/2") - 0.5) < 1e-15

    def test_eta_requires_positive_spin(self):
        with pytest.raises(ValueError):
            eta_s(0)

    def test_f_at_origin(self):
        assert f_factor(0, 0, "1/2") == 2.0
        assert f_factor(0, 0, "5/2") == 2.0

    def test_f_qubit_value(self):
        # s=1/2: x=1 bracket is -(1 - 2/(2*3/4)) = 1/3
        assert abs(f_factor(1, 0, "1/2") - 4.0 / 3.0) < 1e-15

    def test_f_never_vanishes(self):
        for two_s in range(1, 6):
            spin = two_s / 2.0
            for xa in range(two_s + 1):
                for xb in range(two_s + 1):
                    assert abs(f_factor(xa, xb, spin)) > 1e-12

    def test_f_bracket_modulus_below_one(self):
        for two_s in range(1, 6):
            spin = two_s / 2.0
            for xa in range(two_s + 1):
                for xb in range(two_s + 1):
                    if (xa, xb) == (0, 0):
                        continue
                    assert abs(f_factor(xa, xb, spin) - 1.0) < 1.0

    def test_f_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            f_factor(2, 0, "1/2")
        with pytest.raises(ValueError):
            f_factor(-1, 0, "1")


class TestEigenstateCheck:
    def test_square_even_split_positive_variance(self):
        system = SpinSystem.ring(4, "1/2")
        check = verify_not_eigenstate(system, Arc(0, 2), samples=100)
        assert not check.no_singlet_sector
        assert check.min_variance > 1e-6

    def test_odd_arc_has_no_singlet(self):
        system = SpinSystem.ring(4, "1/2")
        check = verify_not_eigenstate(system, Arc(0, 1), samples=10)
        assert check.no_singlet_sector
        assert check.min_variance is None

    def test_deterministic(self):
        system = SpinSystem.ring(6, "1/2")
        a = verify_not_eigenstate(system, Arc(0, 2), samples=50, seed=5)
        b = verify_not_eigenstate(system, Arc(0, 2), samples=50, seed=5)
        assert a.min_variance == b.min_variance


class TestThermal:
    def setup_method(self):
        self.system = SpinSystem.ring(6, "1/2")
        self.spectrum = full_spectrum(self.system)

    def test_full_spectrum_matches_dense(self):
        dense = dense_spectrum(build_hamiltonian(self.system).matrix)
        assert np.abs(self.spectrum - dense).max() < 1e-10

    def test_zero_temperature_is_ground(self):
        e0 = self.spectrum[0]
        assert abs(thermal_energy(self.spectrum, 0.0) - e0) < 1e-12

    def test_monotone_in_temperature(self):
        temps = np.linspace(0.0, 5.0, 30)
        values = [thermal_energy(self.spectrum, t) for t in temps]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            thermal_energy(self.spectrum, -1.0)

    def test_threshold_temperature_bisection(self):
        e0 = self.spectrum[0]
        ebs = e0 + 0.5
        tstar = threshold_temperature(self.spectrum, ebs)
        assert abs(thermal_energy(self.spectrum, tstar) - ebs) < 1e-10

    def test_threshold_temperature_independent_of_scale_of_coupling(self):
        # T* in units of J: a spectrum and threshold converted to J = c
        # (times c) cross at c T*, to the bisection's 1e-10 tolerance
        spectrum = full_spectrum(SpinSystem.ring(4, "1/2"))
        tstar = threshold_temperature(spectrum, -1.0)
        assert tstar == pytest.approx(0.8634, abs=1e-4)
        for coupling in (0.5, 2.0):
            assert threshold_temperature(coupling * spectrum, -coupling) \
                == pytest.approx(coupling * tstar, rel=1e-8)

    def test_threshold_out_of_range(self):
        with pytest.raises(ValueError):
            threshold_temperature(self.spectrum, self.spectrum[0] - 0.1)
        with pytest.raises(ValueError):
            threshold_temperature(self.spectrum, self.spectrum.mean() + 0.1)

    def test_zero_temperature_averages_degenerate_level(self):
        # N=3 qubit ring: fourfold ground level at -3/4, then -3/4 + 3/2
        spectrum = full_spectrum(SpinSystem.ring(3, "1/2"))
        assert thermal_energy(spectrum, 0.0) == pytest.approx(-0.75, abs=1e-12)
        assert thermal_energy(spectrum + 1e-13 * np.arange(8), 0.0) \
            == pytest.approx(-0.75, abs=1e-12)

    def test_oversize_block_refused_before_assembly(self, monkeypatch):
        # the 7-chain's 2M = 1 sector (35 states, 3 of them mirror-symmetric)
        # splits by reversal parity into blocks of 19 and 16 states
        def assemble(*args, **kwargs):
            raise AssertionError("full-space Hamiltonian assembled")
        monkeypatch.setattr(eigensolvers, "DENSE_LIMIT", 16)
        monkeypatch.setattr(witness, "heisenberg_matrix", assemble)
        with pytest.raises(SolverError, match="dimension 19 exceeds dense limit 16"):
            full_spectrum(SpinSystem.chain(7, "1/2"))


@pytest.mark.parametrize("topology, n, spin", [
    ("ring", 4, "1/2"),   # singlet, gap 1
    ("ring", 6, "3/2"),   # singlet on the eigsh route
    ("ring", 3, "1/2"),   # a fourfold ground level
    ("chain", 5, "1"),
], ids=["ring4-s12", "ring6-s32", "ring3-s12", "chain5-s1"])
def test_degeneracy_window_scales_with_coupling(topology, n, spin):
    """`degenerate` is the spectrum's own at J = 1, and the T = 0 energy of
    the spectrum converted to any J (times J) is J times its own: the window
    of ``thermal_energy`` is in units of the spectrum's width."""
    system = SpinSystem(topology, (parse_spin(spin),) * n)
    spectrum = full_spectrum(system)
    e0 = spectrum[0]
    assert sectored_ground_state(system).degenerate == (
        spectrum[1] - e0 <= 1e-9 * max(1.0, abs(e0)))
    for coupling in (1e-10, 1.0, 1e3):
        assert thermal_energy(coupling * spectrum, 0.0) == pytest.approx(
            coupling * thermal_energy(spectrum, 0.0), rel=1e-12)


# above this dimension the oracle goes sector by sector, so that the suite
# never makes the 6561-dim N=8 s=1 ring dense
ORACLE_WHOLE_LIMIT = 4096


def _oracle_spectrum(system):
    """Dense spectrum of the whole Hamiltonian; above ORACLE_WHOLE_LIMIT, of
    every Sz sector (both signs, no translation or spin-flip blocking)."""
    op = build_hamiltonian(system)
    if op.dim <= ORACLE_WHOLE_LIMIT:
        return dense_spectrum(op.matrix)
    tmax = sum(system.site_two_s)
    return np.sort(np.concatenate([
        dense_spectrum(build_hamiltonian(system, two_m).matrix)
        for two_m in range(-tmax, tmax + 1, 2)]))


SPECTRUM_SYSTEMS = (
    [SpinSystem.ring(n, spin) for n in range(3, 9) for spin in ("1/2", "1")]
    + [SpinSystem.from_spins("ring", ["1/2", "1"] * 3),  # translation step 2, L = 3
       SpinSystem.from_spins("ring", ["1/2", "1"] * 4),  # L = 4: k = pi as well
       defected_ring(SpinSystem.ring(5, "1/2"), 2, "1")[0],   # reflection only
       defected_ring(SpinSystem.ring(6, "1"), 1, "3/2")[0],   # even, s >= 1 defect
       SpinSystem.chain(6, "1/2"),
       SpinSystem.chain(5, "1"),                              # odd chain
       SpinSystem.from_spins("ring", ["1/2", "1", "3/2"] * 2)])  # no reflection


def _spectrum_id(system) -> str:
    spins = {spin_str(t) for t in system.site_two_s}
    tag = spins.pop() if len(spins) == 1 else "mixed"
    # every spectrum is in units of J
    return (f"{system.topology} N={system.n_sites} s={tag} "
            f"{system.site_two_s} J=1.0")


SPECTRUM_IDS = [_spectrum_id(s) for s in SPECTRUM_SYSTEMS]


def _record_block_dtypes(monkeypatch) -> list:
    """Record the dtype of every block full_spectrum hands to LAPACK."""
    dtypes = []

    def recorded(mat):
        dtypes.append(mat.dtype)
        return dense_spectrum(mat)
    monkeypatch.setattr(witness, "dense_spectrum", recorded)
    return dtypes


@pytest.mark.parametrize("system", SPECTRUM_SYSTEMS, ids=SPECTRUM_IDS)
def test_full_spectrum_matches_oracle(monkeypatch, system):
    """The blocks hold every level once; with a reflection they are all real."""
    dtypes = _record_block_dtypes(monkeypatch)
    spectrum = full_spectrum(system)
    assert len(spectrum) == np.prod([t + 1 for t in system.site_two_s])
    assert np.abs(spectrum - _oracle_spectrum(system)).max() < 1e-10
    if site_maps(system)[1]:
        assert not any(np.issubdtype(d, np.complexfloating) for d in dtypes)


@pytest.mark.parametrize("system", [SpinSystem.ring(6, "1/2"), SpinSystem.ring(5, "1"),
                                    SpinSystem.from_spins("ring", ["1/2", "1"] * 4)],
                         ids=["ring6-s12", "ring5-s1", "alternating-ring8"])
def test_bloch_blocks_without_reflection_match_oracle(monkeypatch, system):
    """A ring without a reflection keeps complex Bloch blocks for 0 < k < pi;
    here the reflections are withheld from rings that have them."""
    rotations, _ = site_maps(system)
    monkeypatch.setattr(witness, "site_maps", lambda s: (rotations, []))
    dtypes = _record_block_dtypes(monkeypatch)
    spectrum = full_spectrum(system)
    assert any(np.issubdtype(d, np.complexfloating) for d in dtypes)
    assert np.abs(spectrum - _oracle_spectrum(system)).max() < 1e-10


def _assert_csv_matches(out, golden):
    """The CSV file `out` reproduces `golden`: the header and non-numeric
    cells exactly, numbers to 1e-10."""
    with open(out) as fh_out, open(golden) as fh_gold:
        rows, gold_rows = list(csv.reader(fh_out)), list(csv.reader(fh_gold))
    assert rows[0] == gold_rows[0] and len(rows) == len(gold_rows)
    for row, gold in zip(rows[1:], gold_rows[1:]):
        assert len(row) == len(gold)
        for cell, expected in zip(row, gold):
            try:
                value, want = float(cell), float(expected)
            except ValueError:
                assert cell == expected
                continue
            assert np.allclose(value, want, rtol=0, atol=1e-10, equal_nan=True), \
                (cell, expected)


@pytest.mark.parametrize("command, config", [
    ("ground", "qubit_ring8.yaml"),
    ("bisep", "qubit_ring8.yaml"),
    ("scan", "qubit_ring8.yaml"),
    ("verdict", "qubit_ring8.yaml"),
    ("thermal", "qubit_ring8.yaml"),
    ("map", "boundary_map.yaml"),
    ("scan", "qubit_chain6.yaml"),
    ("bisep", "qubit_chain6.yaml"),
    ("scan", "ring8_s32.yaml"),
    ("defect", "ring6_s1.yaml"),
    ("defect", "substitution_series.yaml"),
    ("verdict", "ring8_s32.yaml"),
    ("ground", "ferri_ring8_s1.yaml"),
    ("ground", "ring8_s32.yaml"),
    ("thermal", "qubit_chain6.yaml"),
    ("thermal", "ring6_s1.yaml"),
    ("thermal", "ferri_ring8_s1.yaml"),
], ids=["ground", "bisep", "scan", "verdict", "thermal", "map", "scan-chain",
        "bisep-chain", "scan-ring8-s32", "defect", "defect-substitution",
        "verdict-ring8-s32", "ground-ferri", "ground-ring8-s32",
        "thermal-chain", "thermal-ring6-s1", "thermal-ferri"])
def test_cli_matches_golden(tmp_path, command, config):
    """`command` on configs/`config` reproduces its table in tests/golden."""
    root = Path(__file__).resolve().parent
    golden = f"{command}_{config.removesuffix('.yaml')}.csv"
    out = tmp_path / golden
    assert main([command, "--config", str(root.parent / "configs" / config),
                 "--out", str(out), "--workers", "1"]) == 0
    _assert_csv_matches(out, root / "golden" / golden)


@pytest.mark.parametrize("demo, tables", [
    ("01_boundary_map.py", ["boundary_map_angles.csv", "boundary_map_moduli.csv"]),
    ("02_bipartition_scan.py", ["bipartition_scan.csv"]),
    ("03_substitution_series.py", ["substitution_series.csv"]),
    ("04_thermal_window.py", ["thermal_window.csv"]),
], ids=["boundary_map", "bipartition_scan", "substitution_series",
        "thermal_window"])
def test_demo_matches_committed_tables(tmp_path, demo, tables):
    """A demo rewrites its committed demos/results tables."""
    demos = Path(__file__).resolve().parent.parent / "demos"
    demo_main = runpy.run_path(str(demos / demo), run_name="demo")["main"]
    demo_main.__globals__["OUT"] = tmp_path
    demo_main()
    for table in tables:
        _assert_csv_matches(tmp_path / table, demos / "results" / table)


class TestGroundEnergy:
    def test_matches_dense(self):
        system = SpinSystem.ring(6, "1/2")
        dense = dense_spectrum(build_hamiltonian(system).matrix)[0]
        assert abs(ground_energy(system) - dense) < 1e-10
