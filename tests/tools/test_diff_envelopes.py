"""The CI determinism diff (tools/diff_envelopes.py)."""

import importlib.util
import json
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
SCRIPT = REPO_ROOT / "tools" / "diff_envelopes.py"

spec = importlib.util.spec_from_file_location("diff_envelopes", SCRIPT)
diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(diff)


def envelope(**overrides):
    doc = {
        "schema": "repro.run/1",
        "experiment": "demo",
        "version": "1.0.0",
        "params": {"nodes": 64, "turns": 8},
        "results": {"counters": [7, 7], "match": True, "end_time": 5633},
        "metrics": {"net.messages": 1006},
        "perf": {"wall_seconds": 0.41},
    }
    doc.update(overrides)
    return doc


def write_all(tmp_path, *docs):
    paths = []
    for i, doc in enumerate(docs):
        path = tmp_path / f"env{i}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    return paths


def test_identical_envelopes_pass(tmp_path, capsys):
    paths = write_all(tmp_path, envelope(), envelope(), envelope())
    assert diff.main(paths) == 0
    assert "2 envelope(s) byte-identical" in capsys.readouterr().out


def test_host_time_sections_are_always_stripped(tmp_path):
    a = envelope(perf={"wall_seconds": 0.41})
    b = envelope(perf={"wall_seconds": 99.0})
    c = envelope()
    c.pop("perf")
    c["profile"] = {"total_ns": 123}
    assert diff.main(write_all(tmp_path, a, b, c)) == 0


def test_stitched_critpath_is_not_stripped(tmp_path, capsys):
    """Critical-path blame is simulation output: differences must fail."""
    a = envelope(critpath={"txns": 8, "cycles": 640})
    b = envelope(critpath={"txns": 8, "cycles": 641})
    assert diff.main(write_all(tmp_path, a, b)) == 1
    assert "critpath.cycles" in capsys.readouterr().out


def test_simulation_divergence_fails_with_leaf_report(tmp_path, capsys):
    a = envelope()
    b = envelope(results={"counters": [7, 8], "match": True,
                          "end_time": 5633})
    assert diff.main(write_all(tmp_path, a, b)) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "results.counters[1]" in out


def test_ignore_strips_dotted_paths(tmp_path):
    a = envelope()
    b = envelope()
    b["params"]["directory"] = "limited:64"
    paths = write_all(tmp_path, a, b)
    assert diff.main(paths) == 1
    assert diff.main(["--ignore", "params.directory", *paths]) == 0


def test_ignore_tolerates_absent_paths(tmp_path):
    paths = write_all(tmp_path, envelope(), envelope())
    assert diff.main(["--ignore", "params.nonesuch",
                      "--ignore", "no.such.section", *paths]) == 0


def test_type_change_is_a_divergence(tmp_path, capsys):
    a = envelope(metrics={"net.messages": 1006})
    b = envelope(metrics={"net.messages": 1006.0})
    assert diff.main(write_all(tmp_path, a, b)) == 1


def test_missing_key_is_a_divergence(tmp_path, capsys):
    a = envelope()
    b = envelope()
    del b["metrics"]["net.messages"]
    assert diff.main(write_all(tmp_path, a, b)) == 1
    assert "only in reference" in capsys.readouterr().out


def test_ignore_topology_and_directory_params(tmp_path):
    """Representation ablations: the same simulation tagged with
    different params.directory / params.topology labels must diff
    clean once that concern is stripped."""
    full = envelope()
    full["params"].update({"topology": "mesh", "directory": "full"})
    limited = envelope()
    limited["params"].update({"topology": "mesh", "directory": "limited:64"})
    coarse = envelope()
    coarse["params"].update({"topology": "torus", "directory": "coarse:1"})
    paths = write_all(tmp_path, full, limited, coarse)
    assert diff.main(paths) == 1
    assert diff.main(["--ignore", "params.directory",
                      "--ignore", "params.topology", *paths]) == 0
    # Ignoring only one concern still reports the other.
    assert diff.main(["--ignore", "params.directory", *paths]) == 1
