"""Golden-artifact corpus: CLI runs on small bundles, every file they write
compared with the SHA-256 digest recorded in `golden_corpus.json`.  The
bundles are planted ones (k = 3 and 8), the adversarial kinds, the bundled
similarity TSV after `ingest`, and a pair file with infinite distances.

Each bundle's commands run in-process, in a fresh working directory and with
relative paths (the bundled TSV is read from the package), so no artifact
holds a temporary path.  A command's stdout,
its non-empty stderr and its exit code are artifacts too.  For a JSON
artifact the corpus also records a short digest of each key (dicts nested as
"a.b", lists as one value), so a mismatch names the first key that differs.

The digests were recorded under the Python major.minor and numpy versions
stored beside them.  Under those versions a mismatch fails.  Under other
versions the commands still run and are compared: a match passes, and a
mismatch is reported as an expected failure (xfail) that names both version
pairs and the first differing key, since another numpy or Python minor may
order a float sum differently.

To record the corpus again after a deliberate change of an artifact:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from landmark_minsum import generate_adversarial, save_bundle
from landmark_minsum.cli import main

CORPUS = Path(__file__).with_name("golden_corpus.json")


def _planted(sizes: str, theta: str, seed: str, bad_fraction: str = "0.0"):
    """The `generate` step that writes a planted bundle named "bundle"."""
    return ("generate", ["generate", "--sizes", sizes, "--theta", theta,
                         "--bad-fraction", bad_fraction, "--seed", seed,
                         "--output", "bundle"])


def _adversarial(kind: str, n: int, k: int):
    """A maker that saves the adversarial kind as "bundle"; `generate` makes
    planted bundles only."""
    def make(work: Path) -> None:
        save_bundle(generate_adversarial(kind, n=n, k=k, seed=0), work / "bundle")
    return make


TOY_SCORES = resources.files("landmark_minsum").joinpath("data/toy_scores.tsv")

# 8 ids: triangles a-b-c and d-e-f and a pair g-h with no hit to either, so
# the completed clustering joins g and h to a cluster at infinite distance
INF_PAIRS = "".join(f"{a}\t{b}\t{s}\n" for a, b, s in (
    ("id_a", "id_b", "bit_score"),
    ("a", "b", 50), ("a", "c", 45), ("b", "c", 40),
    ("d", "e", 48), ("d", "f", 42), ("e", "f", 44),
    ("g", "h", 1),
))


def _write_inf_pairs(work: Path) -> None:
    (work / "pairs.tsv").write_text(INF_PAIRS)


def _queries(k: str, landmarks: str, threshold: str, seed: str, stop_bound: str):
    """The cluster (raw and completed), sweep, baseline, evaluate and verify
    commands on the bundle, as (name, argv) pairs."""
    query = ["--input", "bundle/matrix.csv", "--k", k, "--landmarks", landmarks,
             "--seed", seed]
    cluster = ["cluster", *query, "--threshold", threshold]
    return [
        ("cluster-raw", [*cluster, "--raw", "--output", "cluster-raw.json"]),
        ("cluster", [*cluster, "--output", "cluster.json"]),
        ("sweep", ["sweep", *query, "--stop-bound", stop_bound,
                   "--output", "sweep.json"]),
        ("baseline", ["baseline", *query, "--output", "baseline.json"]),
        ("evaluate-labels", ["evaluate", "--clustering", "cluster.json",
                             "--labels", "bundle/labels.csv",
                             "--input", "bundle/matrix.csv",
                             "--output", "evaluate-labels.json"]),
        ("evaluate-against", ["evaluate", "--clustering", "cluster.json",
                              "--against", "baseline.json",
                              "--output", "evaluate-against.json"]),
    ]


def _verify(seed: str, *extra: str):
    argv = ["verify", "--input", "bundle", *extra, "--seed", seed]
    return [
        ("verify", [*argv, "--output", "verify.json"]),
        ("verify-stability", [*argv, "--check-stability",
                              "--output", "verify-stability.json"]),
    ]


# per bundle: a maker, called with the working directory, or None; then the
# commands run in it, as (name, argv) pairs
BUNDLES = {
    # n = 66: its stability walk is refused, so that message is pinned
    "planted-k3": (None, [
        _planted("30,20,15", "4.0", "5", bad_fraction="0.02"),
        *_queries("3", "10", "1.0", "5", "2"), *_verify("5"),
    ]),
    # n = 11, k = 3: the stability check holds
    "planted-n11": (None, [
        _planted("4,4,3", "1.5", "2"),
        *_queries("3", "4", "0.05", "2", "1"), *_verify("2"),
    ]),
    # n = 36, k = 8: the raw run leaves three points unassigned
    "planted-k8": (None, [
        _planted("6,6,5,5,4,4,3,3", "2.0", "3"),
        *_queries("8", "16", "1.0", "3", "2"), _verify("3")[0],
    ]),
    # the stability check fails and pins its counterexample
    "uniform-n9": (
        _adversarial("uniform", 9, 2),
        _queries("2", "3", "2.0", "0", "1")
        + _verify("0", "--alpha", "1", "--epsilon", "0.2"),
    ),
    "duplicates-n12": (
        _adversarial("duplicate_points", 12, 3),
        _queries("3", "6", "1.0", "0", "1")
        + _verify("0", "--alpha", "1", "--epsilon", "0.2"),
    ),
    "outlier-n12": (
        _adversarial("single_outlier_cluster", 12, 2),
        _queries("2", "4", "5.0", "0", "1")
        + _verify("0", "--alpha", "1", "--epsilon", "0.2"),
    ),
    # the bundled TSV: 27 ids, most pairs unreported (+inf)
    "toy-ingest": (None, [
        ("ingest", ["ingest", "--input", str(TOY_SCORES), "--output", "toy.csv",
                    "--ids-output", "ids.csv"]),
        ("cluster", ["cluster", "--input", "toy.csv", "--k", "3",
                     "--landmarks", "10", "--threshold", "0.5", "--seed", "1",
                     "--output", "cluster.json"]),
        ("sweep", ["sweep", "--input", "toy.csv", "--k", "3", "--landmarks", "10",
                   "--stop-bound", "3", "--seed", "1", "--output", "sweep.json"]),
    ]),
    # an 8-id pair file whose completion assigns at infinite distance
    "inf-pairs": (_write_inf_pairs, [
        (name, ["cluster", "--input", "pairs.tsv", "--k", "2", "--landmarks", "8",
                "--threshold", "1.0", "--seed", "0", *extra,
                "--output", f"{name}.json"])
        for name, extra in (("cluster-raw", ["--raw"]), ("cluster", []))
    ]),
}


def _versions() -> dict:
    # a Python patch release keeps float sums as they are; 3.12 changed them
    python = ".".join(platform.python_version_tuple()[:2])
    return {"python": python, "numpy": np.__version__}


def _key_digests(value, prefix: str = "") -> dict:
    """A short digest per key of a JSON value, nested dicts as "a.b"."""
    if not isinstance(value, dict) or not value:
        text = json.dumps(value, sort_keys=True)
        return {prefix: hashlib.sha256(text.encode()).hexdigest()[:16]}
    out = {}
    for key in sorted(value):
        out.update(_key_digests(value[key], f"{prefix}.{key}" if prefix else key))
    return out


def _record(data: bytes) -> dict:
    record = {"sha256": hashlib.sha256(data).hexdigest()}
    try:
        record["keys"] = _key_digests(json.loads(data))
    except ValueError:  # a CSV, the binary twin or a plain message
        pass
    return record


@contextlib.contextmanager
def _fresh_directory():
    """Run the block in a new, empty working directory, removed after it."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield Path(tmp)
        finally:
            os.chdir(cwd)


def run_bundle(name: str) -> dict:
    """Make the bundle and run its commands in a fresh working directory;
    returns the record of every artifact by its relative path."""
    make, commands = BUNDLES[name]
    with _fresh_directory() as work:
        if make is not None:
            make(work)
        for step, argv in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            (work / f"{step}.exit").write_text(f"{code}\n")
            for suffix, text in (("stdout", out), ("stderr", err)):
                if text.getvalue():
                    (work / f"{step}.{suffix}").write_text(text.getvalue())
        return {
            path.relative_to(work).as_posix(): _record(path.read_bytes())
            for path in sorted(work.rglob("*")) if path.is_file()
        }


def first_difference(want: dict, got: dict) -> str | None:
    """The first artifact, in path order, whose digest differs, with the
    first of its JSON keys that differs; None when all agree."""
    for path in sorted(set(want) | set(got)):
        if path not in got or path not in want:
            return f"{path}: {'missing' if path not in got else 'not recorded'}"
        if want[path]["sha256"] == got[path]["sha256"]:
            continue
        keys_want, keys_got = want[path].get("keys", {}), got[path].get("keys", {})
        for key in sorted(set(keys_want) | set(keys_got)):
            if keys_want.get(key) != keys_got.get(key):
                return f"{path}: key {key!r} differs"
        return f"{path}: bytes differ"
    return None


@pytest.mark.parametrize("name", BUNDLES)
def test_artifacts_match_the_corpus(name):
    corpus = json.loads(CORPUS.read_text())
    difference = first_difference(corpus["bundles"][name], run_bundle(name))
    if difference is None:
        return
    recorded = {key: corpus[key] for key in ("python", "numpy")}
    if recorded == _versions():
        pytest.fail(difference)
    pytest.xfail(f"recorded under {recorded}, run under {_versions()}: {difference}")


def test_uniform_control_counterexample():
    # the corpus pins it by digest; its content, readable: the first
    # partition in label order within (1 + alpha) OPT and 4/9 from the target
    make, commands = BUNDLES["uniform-n9"]
    with _fresh_directory() as work:
        make(work)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(dict(commands)["verify-stability"]) == 0
        verdict = json.loads((work / "verify-stability.json").read_text())
    assert verdict["stability_holds"] is False
    assert verdict["stability_counterexample"] == {
        "clusters": [[0, 1, 2, 3, 4, 5, 6, 7], [8]],
        "distance": 4 / 9,
        "value": 56.0,
    }


if __name__ == "__main__":
    corpus = {**_versions(), "bundles": {name: run_bundle(name) for name in BUNDLES}}
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"wrote {CORPUS}", file=sys.stderr)
