"""benchmarks/collect.py: the merge must survive missing, truncated or
hand-damaged per-experiment files (an interrupted bench run leaves
those behind) instead of aborting the whole BENCH_RESULTS build."""

import importlib.util
import json
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"


def load_collect():
    spec = importlib.util.spec_from_file_location(
        "bench_collect", BENCHMARKS / "collect.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def table(slug):
    return {"slug": slug, "title": f"{slug.upper()}: t", "scale": 0.1,
            "headers": ["a"], "rows": [[1]]}


def write_results(tmp_path, **files):
    results = tmp_path / "results"
    results.mkdir()
    for name, content in files.items():
        (results / f"{name}.json").write_text(content)
    return results


class TestCollectTolerance:
    def test_merges_well_formed_tables(self, tmp_path):
        collect = load_collect()
        results = write_results(tmp_path, e1=json.dumps(table("e1")),
                                e2=json.dumps(table("e2")))
        output = tmp_path / "out.json"
        payload = collect.collect(results, output)
        assert [t["slug"] for t in payload["tables"]] == ["e1", "e2"]
        assert payload["skipped"] == 0
        assert json.loads(output.read_text()) == payload

    def test_truncated_json_is_skipped_with_the_rest_kept(self, tmp_path,
                                                          capsys):
        collect = load_collect()
        results = write_results(
            tmp_path,
            e1=json.dumps(table("e1")),
            e2=json.dumps(table("e2"))[:25],  # interrupted mid-write
            e3=json.dumps(table("e3")))
        payload = collect.collect(results, tmp_path / "out.json")
        assert [t["slug"] for t in payload["tables"]] == ["e1", "e3"]
        assert payload["skipped"] == 1
        assert "skipping e2.json" in capsys.readouterr().err

    def test_tables_missing_required_keys_are_skipped(self, tmp_path, capsys):
        collect = load_collect()
        damaged = {"slug": "e2", "rows": []}  # no title/headers
        results = write_results(tmp_path, e1=json.dumps(table("e1")),
                                e2=json.dumps(damaged),
                                e3=json.dumps([1, 2, 3]))
        payload = collect.collect(results, tmp_path / "out.json")
        assert [t["slug"] for t in payload["tables"]] == ["e1"]
        assert payload["skipped"] == 2
        err = capsys.readouterr().err
        assert "e2.json" in err and "e3.json" in err

    def test_empty_results_dir_still_writes_a_payload(self, tmp_path):
        collect = load_collect()
        results = tmp_path / "results"
        results.mkdir()
        payload = collect.collect(results, tmp_path / "out.json")
        assert payload["tables"] == [] and payload["skipped"] == 0

    def test_partial_rerun_keeps_absent_experiments(self, tmp_path):
        """A run that only regenerated some experiments must not erase
        the others' tables from the merged output."""
        collect = load_collect()
        output = tmp_path / "out.json"
        results = write_results(tmp_path, e1=json.dumps(table("e1")),
                                e2=json.dumps(table("e2")))
        collect.collect(results, output)
        (results / "e1.json").unlink()
        fresh = table("e2")
        fresh["rows"] = [[2]]  # e2 reran with new numbers
        (results / "e2.json").write_text(json.dumps(fresh))
        payload = collect.collect(results, output)
        by_slug = {t["slug"]: t for t in payload["tables"]}
        assert set(by_slug) == {"e1", "e2"}  # e1 survived the rerun
        assert by_slug["e2"]["rows"] == [[2]]  # e2 was updated

    def test_unreadable_previous_output_is_ignored(self, tmp_path, capsys):
        collect = load_collect()
        output = tmp_path / "out.json"
        output.write_text("{broken")
        results = write_results(tmp_path, e1=json.dumps(table("e1")))
        payload = collect.collect(results, output)
        assert [t["slug"] for t in payload["tables"]] == ["e1"]
        assert "ignoring unreadable" in capsys.readouterr().err

    def test_tables_of_deleted_experiments_are_dropped(self, tmp_path):
        """Once an experiment's script is gone its tables leave the
        merged output, whether the previous output still holds them or
        a per-experiment file was left behind."""
        collect = load_collect()
        scripts = tmp_path / "scripts"
        scripts.mkdir()
        (scripts / "bench_e1_zipf.py").write_text("")
        (scripts / "bench_e16_cache.py").write_text("")
        output = tmp_path / "out.json"
        results = write_results(tmp_path, e1a=json.dumps(table("e1a")),
                                e16=json.dumps(table("e16")))
        payload = collect.collect(results, output, scripts)
        assert [t["slug"] for t in payload["tables"]] == ["e16", "e1a"]
        (scripts / "bench_e16_cache.py").unlink()
        (results / "e16.json").unlink()
        payload = collect.collect(results, output, scripts)
        assert [t["slug"] for t in payload["tables"]] == ["e1a"]
        (results / "e16.json").write_text(json.dumps(table("e16")))
        payload = collect.collect(results, output, scripts)
        assert [t["slug"] for t in payload["tables"]] == ["e1a"]
