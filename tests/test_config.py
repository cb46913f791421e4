import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nvortex import ConformalDisk, config
from nvortex.config import ConfigError, load_run_config, parse_run_config


def minimal():
    return {"radius": 3.0, "interior": [{"x": 0.0, "y": 0.0, "n": 1}]}


class TestParsing:
    def test_defaults(self):
        cfg = parse_run_config(minimal())
        assert cfg.disk.radius == 3.0
        assert cfg.disk == ConformalDisk.flat(3.0)
        assert cfg.vortices.N == 1 and cfg.vortices.M == 0
        assert (cfg.nr, cfg.ntheta) == (256, 256)
        assert cfg.tol == 1e-8
        assert cfg.max_iter == 50
        assert cfg.out_dir == "out"

    def test_full_document(self):
        doc = {
            "radius": 3.0,
            "omega": [[0.0, 1.0], [1.5, 1.2], [3.0, 1.5]],
            "interior": [{"x": 0.5, "y": -0.5, "n": 2}],
            "boundary": [{"theta": 1.0, "m": 1}],
            "grid": {"nr": 64, "ntheta": 128},
            "solver": {"tol": 1e-9, "max_iter": 30},
            "outputs": {"dir": "results", "formats": ["json"]},
            "radial": {"steps": 20000, "eps": 1e-7, "tol": 1e-5},
        }
        cfg = parse_run_config(doc)
        assert cfg.disk != ConformalDisk.flat(3.0)
        assert cfg.disk.breakpoints == (1.5,)
        assert cfg.vortices.N == 2 and cfg.vortices.M == 1
        assert (cfg.nr, cfg.ntheta) == (64, 128)
        assert cfg.formats == ("json",)
        assert cfg.radial_steps == 20000

    def test_missing_radius(self):
        with pytest.raises(ConfigError, match="radius"):
            parse_run_config({"interior": [{"x": 0, "y": 0}]})

    def test_unknown_top_level_field(self):
        doc = minimal()
        doc["radiius"] = 3.0
        with pytest.raises(ConfigError, match="radiius"):
            parse_run_config(doc)

    def test_unknown_nested_field(self):
        doc = minimal()
        doc["grid"] = {"nr": 64, "nphi": 64}
        with pytest.raises(ConfigError, match="nphi"):
            parse_run_config(doc)

    def test_vortex_entry_validation(self):
        doc = minimal()
        doc["interior"] = [{"x": 0.0, "y": 0.0, "n": 0}]
        with pytest.raises(ConfigError):
            parse_run_config(doc)
        doc["interior"] = [{"x": 0.0, "y": 0.0, "n": 1.5}]
        with pytest.raises(ConfigError):
            parse_run_config(doc)

    def test_vortex_outside_disk(self):
        doc = minimal()
        doc["interior"] = [{"x": 5.0, "y": 0.0, "n": 1}]
        with pytest.raises(ConfigError):
            parse_run_config(doc)

    def test_empty_configuration_rejected(self):
        with pytest.raises(ConfigError):
            parse_run_config({"radius": 3.0})

    def test_bad_omega(self):
        doc = minimal()
        doc["omega"] = "flat"
        with pytest.raises(ConfigError):
            parse_run_config(doc)

    def test_bad_formats(self):
        doc = minimal()
        doc["outputs"] = {"formats": ["csv", "hdf5"]}
        with pytest.raises(ConfigError):
            parse_run_config(doc)

    # A metric section is not part of the schema, whatever its delta.
    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("solver", "tol", float("nan"), r"\.tol must"),
            (None, "radius", float("inf"), r"\.radius must"),
            ("metric", "delta", 0.0, r"unknown field\(s\) \['metric'\] in configuration"),
            ("metric", "delta", 5.0, r"unknown field\(s\) \['metric'\] in configuration"),
            (None, "radius", 10**400, r"\.radius must"),
            (None, "radius", 3 * 10**299, r"\.radius must"),
            ("radial", "eps", 0.0, r"\.eps must"),
            ("radial", "eps", 5.0, r"\.eps must"),
        ],
        ids=[
            "tol-nan", "radius-inf", "delta-zero", "delta-outside-disk",
            "radius-beyond-float", "radius-area-overflow", "eps-zero", "eps-outside-disk",
        ],
    )
    def test_unusable_number_rejected(self, tmp_path, section, key, value, message):
        doc = minimal()
        if section is None:
            doc[key] = value
        else:
            doc[section] = {key: value}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))  # NaN and Infinity as JSON literals
        with pytest.raises(ConfigError, match=message):
            load_run_config(str(path))

    @pytest.mark.parametrize(
        "section, value",
        [("interior", 5), ("boundary", None), ("grid", 5), ("grid", []), ("solver", None)],
        ids=["interior-number", "boundary-null", "grid-number", "grid-list", "solver-null"],
    )
    def test_section_of_wrong_type_rejected(self, section, value):
        doc = minimal()
        doc[section] = value
        with pytest.raises(ConfigError, match=rf"configuration\.{section} must be an? (object|list)"):
            parse_run_config(doc)

    @pytest.mark.parametrize(
        "omega",
        [[{}], [[0.0]], [[0.0, 1.0, 2.0]], [[10**400, 1.0], [3.0, 1.0]],
         [["0", "1"], ["3", "1.5"]], [[False, 1], [3, 1.5]]],
        ids=["object", "short", "long", "beyond-float", "strings", "boolean"],
    )
    def test_omega_entries_must_be_numeric_pairs(self, omega):
        doc = minimal()
        doc["omega"] = omega
        with pytest.raises(ConfigError, match="omega"):
            parse_run_config(doc)

    def test_metric_section_rejected(self):
        doc = minimal()
        doc["metric"] = {"delta": 0.03}
        with pytest.raises(ConfigError, match=r"unknown field\(s\) \['metric'\] in configuration"):
            parse_run_config(doc)

    @pytest.mark.parametrize(
        "path",
        [("radius",), ("interior", 0, "x"), ("interior", 0, "n"), ("boundary", 0, "theta"), ("grid", "nr")],
        ids=["radius", "interior-x", "interior-n", "boundary-theta", "grid-nr"],
    )
    def test_null_number_rejected(self, path):
        doc = {"radius": 3.0, "interior": [{"x": 0.0}], "boundary": [{"theta": 1.0}], "grid": {}}
        *parents, key = path
        section = doc
        for step in parents:
            section = section[step]
        section[key] = None
        with pytest.raises(ConfigError, match=rf"\.{key} must be a number, got None"):
            parse_run_config(doc)

    def test_readme_example_parses(self):
        # A field removed from the schema must not linger in the documentation.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        (example,) = re.findall(r"Example configuration:\n\n```json\n(.*?)```", readme, re.S)
        cfg = parse_run_config(json.loads(example))
        assert cfg.vortices.N == 1 and cfg.vortices.M == 1

    def test_grid_too_small(self):
        doc = minimal()
        doc["grid"] = {"nr": 4}
        with pytest.raises(ConfigError):
            parse_run_config(doc)


class TestLoading:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(minimal()))
        cfg = load_run_config(str(path))
        assert cfg.disk.radius == 3.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_run_config(str(tmp_path / "absent.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_run_config(str(path))


#: Every field name the schema knows, so generated documents reach the nested checks.
FIELD_NAMES = sorted(
    config._TOP_KEYS | config._GRID_KEYS | config._SOLVER_KEYS | config._OUTPUT_KEYS
    | config._RADIAL_KEYS | config._INTERIOR_KEYS | config._BOUNDARY_KEYS
)
JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(["euclidean", "csv", "json", ""]) | st.text(max_size=4)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(FIELD_NAMES) | st.text(max_size=4), children, max_size=4),
    max_leaves=16,
)
#: Arbitrary JSON, plus documents with a usable radius and arbitrary sections.
DOCUMENTS = JSON_VALUES | st.fixed_dictionaries(
    {"radius": st.floats(0.5, 10.0)},
    optional={key: JSON_VALUES for key in sorted(config._TOP_KEYS - {"radius"})},
)


class TestFuzz:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(doc=DOCUMENTS)
    def test_only_config_error_escapes(self, doc):
        try:
            parse_run_config(doc)
        except ConfigError:
            pass
