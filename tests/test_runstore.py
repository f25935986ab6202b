import hashlib

import pytest

from gibbsline.errors import MissingRun
from gibbsline.runstore import RunStore


@pytest.fixture
def store(tmp_path):
    return RunStore(tmp_path / "runs")


def test_put_writes_the_data_under_its_digest(store):
    rid = store.new_run("a" * 64, "pressure", "0.1.0")
    data = b"k,t,quantity,value,gap,flag\n1,2,pressure,-1.25,,\n"
    digest = store.put(rid, "pressure.csv", data)
    stored = (store.run_dir(rid) / "pressure.csv").read_bytes()
    assert stored == data
    assert hashlib.sha256(stored).hexdigest() == digest == store.manifest(rid).files["pressure.csv"]


def test_manifest_lists_files_with_digests(store):
    rid = store.new_run("b" * 64, "zerotemp", "0.1.0")
    store.put(rid, "a.json", "{}")
    store.put(rid, "b.csv", "k,t\n")
    man = store.manifest(rid)
    assert set(man.files) == {"a.json", "b.csv"}
    assert all(len(d) == 64 for d in man.files.values())
    assert man.config_hash == "b" * 64
    assert man.commands[0]["command"] == "zerotemp"


def test_missing_run(store):
    with pytest.raises(MissingRun):
        store.run_dir("nope")
    with pytest.raises(MissingRun):
        store.manifest("nope")


def test_same_config_two_distinct_runs(store):
    r1 = store.new_run("e" * 64, "pressure", "0.1.0")
    r2 = store.new_run("e" * 64, "pressure", "0.1.0")
    assert r1 != r2
    assert store.manifest(r1).config_hash == store.manifest(r2).config_hash


def test_finish_command_status(store):
    rid = store.new_run("f" * 64, "diagnose", "0.1.0")
    store.finish_command(rid, "ok")
    man = store.manifest(rid)
    assert man.commands[-1]["status"] == "ok"
    assert man.commands[-1]["finished_utc"] is not None
