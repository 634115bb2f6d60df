"""SweepSpec expansion and validation: the run matrix is a pure function
of the spec -- sorted, content-addressed, and hostile to malformed input.
"""

import json

import pytest

from repro.experiments.sweep import (MatrixBlock, RunCell, SweepError,
                                     SweepSpec, load_spec, spec_from_dict)

from .sweep_specs import TINY_SPEC_DICT, tiny_spec


class TestExpansion:
    def test_cross_product_and_canonical_order(self):
        block = MatrixBlock.make(
            "openloop", base={"seed": 42},
            axes={"rate": [100.0, 200.0], "prefork": [4, 8]})
        spec = SweepSpec.make("m", [block])
        cells = spec.cells()
        assert len(cells) == 4
        # sorted by cell id, independent of axis insertion order
        assert [c.cell_id for c in cells] == sorted(c.cell_id for c in cells)
        rates = {c.params_dict()["rate"] for c in cells}
        assert rates == {100.0, 200.0}

    def test_cell_id_renders_json_literals(self):
        cell = RunCell.make("cell", {"seed": 7, "prewarm": True,
                                     "workload": "A"})
        assert cell.cell_id == 'cell[prewarm=true,seed=7,workload="A"]'

    def test_run_id_independent_of_param_order(self):
        a = RunCell.make("cell", {"seed": 1, "clients": 4})
        b = RunCell.make("cell", {"clients": 4, "seed": 1})
        assert a.run_id == b.run_id

    def test_run_id_differs_across_params_and_targets(self):
        base = RunCell.make("cell", {"seed": 1})
        assert base.run_id != RunCell.make("cell", {"seed": 2}).run_id
        assert base.run_id != RunCell.make("chaos", {"seed": 1}).run_id

    def test_spec_hash_changes_with_content(self):
        spec = tiny_spec()
        edited = dict(TINY_SPEC_DICT)
        edited = json.loads(json.dumps(edited))
        edited["blocks"][0]["base"]["seed"] = 43
        assert spec.spec_hash != spec_from_dict(edited).spec_hash

    def test_multiple_blocks_concatenate(self):
        spec = tiny_spec()
        assert len(spec.cells()) == 4
        targets = sorted({c.target for c in spec.cells()})
        assert targets == ["cell", "openloop"]


class TestValidation:
    def test_base_axis_collision_rejected(self):
        with pytest.raises(SweepError, match="both base and axes"):
            MatrixBlock.make("cell", base={"seed": 1}, axes={"seed": [1, 2]})

    def test_empty_axis_rejected(self):
        with pytest.raises(SweepError, match="empty"):
            MatrixBlock.make("cell", axes={"seed": []})

    def test_duplicate_axis_values_rejected(self):
        with pytest.raises(SweepError, match="duplicate values"):
            MatrixBlock.make("cell", axes={"seed": [1, 1]})

    def test_non_scalar_param_rejected(self):
        with pytest.raises(SweepError, match="not a JSON scalar"):
            MatrixBlock.make("cell", base={"seed": [1, 2]})

    def test_duplicate_cells_across_blocks_rejected(self):
        block = MatrixBlock.make("openloop", base={"seed": 42})
        with pytest.raises(SweepError, match="duplicate cell"):
            SweepSpec.make("dup", [block, block])

    def test_schema_version_enforced(self):
        with pytest.raises(SweepError, match="schema_version"):
            spec_from_dict({"schema_version": 99, "name": "x",
                            "blocks": [{"target": "openloop"}]})

    def test_unknown_keys_rejected(self):
        data = {"schema_version": 1, "name": "x", "blox": [],
                "blocks": [{"target": "openloop"}]}
        with pytest.raises(SweepError, match="unknown spec keys"):
            spec_from_dict(data)
        data = {"schema_version": 1, "name": "x",
                "blocks": [{"target": "openloop", "bases": {}}]}
        with pytest.raises(SweepError, match="unknown keys"):
            spec_from_dict(data)

    def test_bad_name_rejected(self):
        with pytest.raises(SweepError, match="slug"):
            SweepSpec.make("not a slug!", [MatrixBlock.make("openloop")])

    def test_load_spec_missing_file(self, tmp_path):
        with pytest.raises(SweepError, match="not found"):
            load_spec(tmp_path / "nope.json")

    def test_load_spec_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SweepError, match="not valid JSON"):
            load_spec(path)

    def test_load_round_trips_dict_form(self, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(TINY_SPEC_DICT))
        assert load_spec(path).spec_hash == tiny_spec().spec_hash


class TestCheckedInSpec:
    def test_smoke_spec_parses_and_covers_every_target(self):
        from pathlib import Path

        from repro.experiments.sweep import TARGETS
        spec = load_spec(Path(__file__).resolve().parents[2]
                         / "specs" / "sweep_smoke.json")
        assert spec.name == "sweep-smoke"
        targets = {c.target for c in spec.cells()}
        assert targets == set(TARGETS)
