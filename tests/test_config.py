"""Run-configuration parsing and validation."""

from pathlib import Path

import pytest
import yaml

from spinwitness.config import SCHEMA, ConfigError, load_config, parse_config

README = Path(__file__).resolve().parent.parent / "README.md"


def test_minimal_model():
    cfg = parse_config({"model": {"topology": "ring", "N": 4, "spin": "1/2"}})
    system, labels = cfg.build_system()
    assert system.n_sites == 4
    assert labels == [0, 1, 2, 3]
    assert cfg.seed == 42


def test_unknown_top_key_rejected():
    with pytest.raises(ConfigError):
        parse_config({"modle": {}})


def test_unknown_model_key_rejected():
    with pytest.raises(ConfigError):
        parse_config({"model": {"topology": "ring", "N": 4, "spin": "1/2",
                                "temperture": 1.0}})


def test_bad_topology():
    with pytest.raises(ConfigError):
        parse_config({"model": {"topology": "hexagon", "N": 6, "spin": "1/2"}})


def test_bad_n():
    with pytest.raises(ConfigError):
        parse_config({"model": {"topology": "ring", "N": "8", "spin": "1/2"}})
    with pytest.raises(ConfigError):
        parse_config({"model": {"topology": "ring", "N": 1, "spin": "1/2"}})


def test_spin_xor_spins():
    with pytest.raises(ConfigError):
        parse_config({"model": {"topology": "ring", "N": 4}})
    with pytest.raises(ConfigError):
        parse_config({"model": {"topology": "ring", "N": 4, "spin": "1/2",
                                "spins": ["1/2"] * 4}})


def test_bad_spin_string():
    with pytest.raises(ConfigError):
        parse_config({"model": {"topology": "ring", "N": 4, "spin": "1/3"}})


def test_spins_length_checked():
    cfg = parse_config({"model": {"topology": "ring", "N": 4,
                                  "spins": ["1/2"] * 3}})
    with pytest.raises(ConfigError):
        cfg.build_system()


def test_seed_must_be_int():
    with pytest.raises(ConfigError):
        parse_config({"seed": "7"})


def test_defect_needs_site_and_spin():
    with pytest.raises(ConfigError):
        parse_config({"model": {"topology": "ring", "N": 8, "spin": "3/2",
                                "defect": {"site": 5}}})


def test_defect_spinless_builds_chain():
    cfg = parse_config({"model": {"topology": "ring", "N": 8, "spin": "3/2",
                                  "defect": {"site": 5, "spin": "0"}}})
    system, labels = cfg.build_system()
    assert system.topology == "chain"
    assert system.n_sites == 7
    # config sites are 1-based: site 5 is library site 4
    assert labels == [5, 6, 7, 0, 1, 2, 3]


def test_defect_on_chain_rejected():
    cfg = parse_config({"model": {"topology": "chain", "N": 8, "spin": "3/2",
                                  "defect": {"site": 5, "spin": "1"}}})
    with pytest.raises(ConfigError):
        cfg.build_system()


def test_defect_site_range():
    cfg = parse_config({"model": {"topology": "ring", "N": 8, "spin": "3/2",
                                  "defect": {"site": 9, "spin": "1"}}})
    with pytest.raises(ConfigError):
        cfg.build_system()


def test_scf_block_overrides():
    cfg = parse_config({"scf": {"damping": 0.3, "tol": 1e-8, "max_iter": 50,
                                "etas": [1]}})
    scf = cfg.scf_config()
    assert scf.damping == 0.3
    assert scf.tol == 1e-8
    assert scf.max_iter == 50
    assert scf.etas == (1,)
    assert scf.seed == 42


def test_scf_eta_values_checked():
    with pytest.raises(ConfigError):
        parse_config({"scf": {"etas": [2]}}).scf_config()


def test_scf_bad_damping_surfaces_as_config_error():
    with pytest.raises(ConfigError):
        parse_config({"scf": {"damping": 2.0}}).scf_config()


def test_digest_stable_and_order_independent():
    a = parse_config({"seed": 7, "model": {"topology": "ring", "N": 4,
                                           "spin": "1/2"}})
    b = parse_config({"model": {"spin": "1/2", "N": 4, "topology": "ring"},
                      "seed": 7})
    assert a.digest() == b.digest()
    assert len(a.digest()) == 16


def test_digest_changes_with_content():
    a = parse_config({"seed": 7})
    b = parse_config({"seed": 8})
    assert a.digest() != b.digest()


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/run.yaml")


def test_load_config_invalid_yaml(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("model: [unclosed\n")
    with pytest.raises(ConfigError):
        load_config(str(p))


def test_load_config_empty_file(tmp_path):
    p = tmp_path / "empty.yaml"
    p.write_text("")
    cfg = load_config(str(p))
    assert "model" not in cfg.blocks
    assert cfg.seed == 42


def test_build_system_requires_model():
    cfg = parse_config({"seed": 1})
    with pytest.raises(ConfigError):
        cfg.build_system()


def test_defaults_filled_at_parse_time():
    cfg = parse_config({"thermal": {"points": 3}})
    assert cfg.block("thermal") == {"t_min": 0.0, "t_max": 2.0, "points": 3,
                                    "thresholds": ()}
    assert cfg.block("map")["lengths"] == (3, 4)
    assert cfg.block("scf") == {}  # ScfConfig holds the SCF defaults
    with pytest.raises(ConfigError):
        cfg.block("verdict")


def test_null_value_leaves_key_unset():
    cfg = parse_config({"seed": None, "thermal": {"points": None}})
    assert cfg.seed == 42
    assert cfg.block("thermal")["points"] == 21


def test_readme_schema_lists_every_key():
    text = README.read_text().split("### Config schema", 1)[1]
    documented = yaml.safe_load(text.split("```yaml\n", 1)[1].split("```", 1)[0])
    for name, keys in SCHEMA.items():
        block = documented
        for part in filter(None, name.split(".")):
            block = block[part]
        assert set(block) == set(keys), name or "top level"
