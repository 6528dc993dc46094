"""The rows of ``scripts/stage_times.py``: each job of its one child
script, run at p=5, gives its row's keys in order, with integer peaks
and float seconds, and does its job's work; the in-process stages end
with a table that fails associativity."""

import importlib.util
from pathlib import Path

import pytest

from helpers import seeded_mutation
from projline import CandidateTable, formats, from_model, validate_structure

ROOT = Path(__file__).resolve().parents[1]
KEYS = {
    "peak_rss": ["p", "stage", "kib"],
    "gen": ["p", "stage", "kib", "seconds"],
    "coord": ["p", "stage", "kib", "table_kib", "seconds"],
    "parsed_load": ["p", "stage", "kib", "seconds"],
}


def _stage_times():
    path = ROOT / "scripts" / "stage_times.py"
    spec = importlib.util.spec_from_file_location("stage_times", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("job", sorted(KEYS))
def test_child_rows(tmp_path, job):
    path = tmp_path / "f5.json"
    if job in ("peak_rss", "parsed_load"):
        from_model(5).save(str(path))
    if job == "parsed_load":
        path = Path(_stage_times().swap_first_entries(str(path), str(tmp_path / "swapped.json")))
        # Valid but not canonical: the child takes the parsed path.
        assert formats._from_canonical(path.read_bytes()) is None
        assert CandidateTable.load(str(path)) == from_model(5)
    row = _stage_times().child_row(job, 5, str(ROOT / "src"), str(path))
    assert list(row) == KEYS[job]
    assert row["p"] == 5 and row["stage"] == job
    assert all(type(row[k]) is int and row[k] > 0 for k in ("kib", "table_kib") if k in row)
    assert "seconds" not in row or (type(row["seconds"]) is float and row["seconds"] > 0)
    if job == "gen":
        assert CandidateTable.load(str(path)) == from_model(5)
    if job == "coord":
        assert row["kib"] >= row["table_kib"]


def test_stage_rows_end_with_a_failing_table(tmp_path):
    module = _stage_times()
    rows = module.stage_rows(5, 2, str(tmp_path / "f5.json"))
    assert [row["stage"] for row in rows] == list(module.STAGES)
    assert rows[-1]["stage"] == "structure_failing" and rows[-1]["seconds"] > 0
    # Its table keeps every endpoint, so the associativity check sweeps in full.
    doc = module.failing_doc(from_model(5))
    assert doc == seeded_mutation(from_model(5).to_doc(), 0)
    table = CandidateTable.from_doc(doc)
    report = validate_structure(table)
    assert report.check("endpoints").passed and not report.check("associativity").passed
    assert report.check("associativity").checked == table.n_arrows**3 // table.n_objects**2


def test_kept_row_counts_what_the_slot_holds(tmp_path):
    module = _stage_times()
    rows = []
    for p in (5, 7):
        path = tmp_path / f"f{p}.json"
        from_model(p).save(str(path))
        rows.append(module.kept_row(p, str(path)))
    assert [list(row) for row in rows] == [["p", "stage", "bytes"]] * 2
    assert [(row["p"], row["stage"]) for row in rows] == [(5, "kept"), (7, "kept")]
    # The F_7 header's space and memo, every entry filled, and nothing else.
    table = from_model(7)
    names = ("_hom", "_ne3", "_hom_i", "_src_i", "_dst_i", "_id_idx")
    arrays = [getattr(table, name) for name in names]
    assert len(table._memo) == 7
    assert rows[1]["bytes"] == module._held(arrays) + module._held(table._memo)
    assert rows[1]["bytes"] > rows[0]["bytes"] > 0
