"""Per-site thresholds, verdicts, proof-support quantities and thermal crossings."""

import csv
from pathlib import Path

import numpy as np
import pytest

from spinwitness.cli import main
from spinwitness.eigensolvers import dense_spectrum
from spinwitness.hamiltonians import (
    Arc,
    SpinSystem,
    build_hamiltonian,
    defected_ring,
)
from spinwitness.operators import sector_two_m_values
from spinwitness.witness import (
    ThresholdTable,
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
        table = threshold_table(SpinSystem.ring(6, "1/2"))
        assert all(c > 0 for _, _, c in table.entries)

    def test_lookup_and_min_site(self):
        table = ThresholdTable("t", -2.0, [(0, -1.5, 0.5), (1, -1.7, 0.3)])
        assert table.cost(1) == 0.3
        assert table.threshold(0) == -1.5
        assert table.min_site() == (1, -1.7)
        with pytest.raises(KeyError):
            table.cost(9)

    def test_min_site_tie_breaks_on_index(self):
        table = ThresholdTable("t", -2.0, [(3, -1.5, 0.5), (1, -1.5, 0.5)])
        assert table.min_site()[0] == 1


class TestDefectSeries:
    def test_spinless_defect_zero_cost_entry(self):
        tables = defect_series(SpinSystem.ring(4, "1/2"), 0, ["0"])
        table = tables[0]
        assert table.cost(0) == 0.0
        assert len(table.entries) == 4

    def test_mirror_symmetry(self):
        tables = defect_series(SpinSystem.ring(6, "1/2"), 2, ["1"])
        table = tables[0]
        for d in (1, 2, 3):
            left = table.cost((2 - d) % 6)
            right = table.cost((2 + d) % 6)
            assert abs(left - right) < 1e-8

    def test_labels(self):
        tables = defect_series(SpinSystem.ring(4, "1/2"), 0, ["1/2", "1"],
                               labels=["a", "b"])
        assert [t.label for t in tables] == ["a", "b"]
        auto = defect_series(SpinSystem.ring(4, "1/2"), 0, ["3/2"])
        assert auto[0].label == "s_M=3/2"


class TestVerdict:
    def test_boundary_is_exclusive(self):
        table = ThresholdTable("t", -2.0, [(0, -1.5, 0.5), (1, -1.4, 0.6)])
        v = verdict(-1.45, table, global_ebs=-1.3)
        assert v.sites_provably_entangled == [1]
        # at exactly max_k E_bs^k the strict inequality certifies nothing new
        v = verdict(max(e for _, e, _ in table.entries), table, -1.3)
        assert v.sites_provably_entangled == []
        v = verdict(-1.2, table, -1.3)
        assert v.sites_provably_entangled == []
        assert not v.multipartite_detected

    def test_multipartite_implies_all_sites(self):
        system = SpinSystem.ring(6, "1/2")
        table = threshold_table(system)
        from spinwitness.scf import biseparable_scan
        scan = biseparable_scan(system)
        v = verdict(scan.ebs - 1e-6, table, scan.ebs)
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


# above this dimension the oracle goes sector by sector, so that the suite
# never makes the 6561-dim N=8 s=1 ring dense
ORACLE_WHOLE_LIMIT = 4096


def _oracle_spectrum(system):
    """Dense spectrum of the whole Hamiltonian; above ORACLE_WHOLE_LIMIT, of
    every Sz sector (both signs, no translation or spin-flip blocking)."""
    op = build_hamiltonian(system)
    if op.dim <= ORACLE_WHOLE_LIMIT:
        return dense_spectrum(op.matrix)
    return np.sort(np.concatenate([
        dense_spectrum(build_hamiltonian(system, two_m).matrix)
        for two_m in sector_two_m_values(system.site_two_s)]))


SPECTRUM_SYSTEMS = (
    [SpinSystem.ring(n, spin) for n in range(3, 9) for spin in ("1/2", "1")]
    + [SpinSystem.from_spins("ring", ["1/2", "1"] * 3),  # translation step 2
       defected_ring(SpinSystem.ring(5, "1/2"), 2, "1")[0],               # no translation
       SpinSystem.chain(6, "1/2"),
       SpinSystem.ring(6, "1/2", coupling=0.7)])


@pytest.mark.parametrize("system", SPECTRUM_SYSTEMS,
                         ids=lambda s: f"{s.describe()} {s.site_two_s} J={s.coupling}")
def test_full_spectrum_matches_oracle(system):
    spectrum = full_spectrum(system)
    assert len(spectrum) == np.prod([t + 1 for t in system.site_two_s])
    assert np.abs(spectrum - _oracle_spectrum(system)).max() < 1e-10


def _assert_cli_matches_golden(tmp_path, command, config, golden):
    """`command` on configs/`config` reproduces tests/golden/`golden`: the
    header and non-numeric cells exactly, numbers to 1e-10."""
    root = Path(__file__).resolve().parent
    out = tmp_path / golden
    assert main([command, "--config", str(root.parent / "configs" / config),
                 "--out", str(out), "--workers", "1"]) == 0
    with open(out) as fh_out, open(root / "golden" / golden) as fh_gold:
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


def test_thermal_cli_matches_golden(tmp_path):
    """`thermal` on configs/qubit_ring8.yaml reproduces the committed table."""
    _assert_cli_matches_golden(tmp_path, "thermal", "qubit_ring8.yaml",
                               "thermal_qubit_ring8.csv")


@pytest.mark.parametrize("command, config", [
    ("ground", "qubit_ring8.yaml"),
    ("bisep", "qubit_ring8.yaml"),
    ("scan", "qubit_ring8.yaml"),
    ("verdict", "qubit_ring8.yaml"),
    ("map", "boundary_map.yaml"),
], ids=["ground", "bisep", "scan", "verdict", "map"])
def test_cli_matches_golden(tmp_path, command, config):
    _assert_cli_matches_golden(tmp_path, command, config,
                               f"{command}_{config.removesuffix('.yaml')}.csv")


class TestGroundEnergy:
    def test_matches_dense(self):
        system = SpinSystem.ring(6, "1/2")
        dense = dense_spectrum(build_hamiltonian(system).matrix)[0]
        assert abs(ground_energy(system) - dense) < 1e-10
