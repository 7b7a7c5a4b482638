"""The benchmark's four workloads.

Each workload makes its inputs from the workload seed in `setup`, and lists
the ops of one pass in `op_list`.  `execute` is the timed part of an op: it
only calls the program.  `check` runs afterwards, untimed: it validates the
outputs and returns the op's record (failure, digests, exact counts and
quality figures).  Before each op the runner calls `gap`, which times a fixed
probe that never touches the package, to follow the host's speed; a workload
whose op is a chain of long steps also calls it between them.

Only interfaces that the roadmap keeps are called: the CLI (the sweep only
through `sweep` without `--mode`/`--gamma`), `generate`/`save_bundle`/
`generate_adversarial`, `PointCloudDistanceSource`, `sample_landmarks`,
`build_landmark_table`, `cluster_min_sum(table, k, T)`, `assign_remainder`,
`clustering_distance`, `classify_points`, and the `InstanceSpec` and
`Clustering` records.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

PACKAGE = "landmark_minsum"
LAUNCH = Path(__file__).resolve().parent / "launch.py"
PROBES_PER_GAP = 4
SORT_PROBE_DATA = np.random.default_rng(0).random(300_000)


def python_probe() -> float:
    """Seconds taken by a fixed pure-Python loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def numpy_probe() -> float:
    """Seconds taken by a fixed numpy argsort and lexsort of 300k floats."""
    t0 = time.perf_counter()
    np.argsort(SORT_PROBE_DATA)
    np.lexsort((SORT_PROBE_DATA, SORT_PROBE_DATA))
    return time.perf_counter() - t0


# Probes by kind, with their time on a 2-vCPU Xeon at its usual speed.  They
# never call the package, so only the host's speed moves them: on a shared
# host that speed drifts by up to 1.5x within minutes, and an op's time
# follows the probe of the kind whose code it resembles (per-op correlation
# 0.5-0.7, where a probe of the other kind did worse).
PROBES = {"python": (python_probe, 0.025), "numpy": (numpy_probe, 0.068)}


def module(name: str):
    """A submodule of the package (`landmark_minsum.generate` is shadowed by
    the function of that name in the package namespace)."""
    return importlib.import_module(f"{PACKAGE}.{name}")


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def partition_labels(n: int, clusters, unassigned, k: int):
    """Labels of a full partition of range(n) into k clusters, else a reason."""
    if unassigned:
        return None, f"{len(unassigned)} points unassigned"
    if len(clusters) != k:
        return None, f"{len(clusters)} clusters, expected {k}"
    labels = np.full(n, -1, dtype=np.int64)
    for index, members in enumerate(clusters):
        members = np.asarray(members, dtype=np.int64)
        if members.size and (members.min() < 0 or members.max() >= n):
            return None, f"cluster {index} holds a point outside [0, {n})"
        if (labels[members] >= 0).any() or np.unique(members).size != members.size:
            return None, f"cluster {index} overlaps another"
        labels[members] = index
    if (labels < 0).any():
        return None, f"point {int(np.argmax(labels < 0))} missing"
    return labels, None


def labels_digest(labels: np.ndarray) -> str:
    return sha256_bytes(labels.astype("<i8").tobytes())


def distance_to(labels: np.ndarray, target) -> float:
    """Best-bijection distance of a labelled partition to a target Clustering."""
    clustering = module("landmark").Clustering(
        n=len(labels),
        clusters=[np.nonzero(labels == i)[0].tolist() for i in range(labels.max() + 1)],
    )
    return module("evaluation").clustering_distance(clustering, target)


def useful_runs(coverage) -> int:
    """Runs whose coverage differs from the previous run's (the first counts)."""
    return sum(1 for i, c in enumerate(coverage) if i == 0 or c != coverage[i - 1])


def call_cli(argv: list[str]) -> tuple[int, str]:
    """`landmark-minsum` in this process; returns the exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = module("cli").main(argv)
    return code, err.getvalue()


def cli_error(code: int, stderr: str) -> str:
    """Failure text for a non-zero exit, naming the typed error if any."""
    name = "?"
    for line in reversed(stderr.strip().splitlines()):
        with contextlib.suppress(ValueError, AttributeError):
            name = json.loads(line).get("error", "?")
            break
    return f"exit {code} ({name})"


class Workload:
    name = ""
    why = ""
    subprocesses = False
    probe_kind = "python"

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.op_list: list[dict] = []
        self.probe_s: list[float] = []

    def gap(self) -> None:
        """Probe the host's speed; the probe times go to `probe_s`."""
        probe = PROBES[self.probe_kind][0]
        self.probe_s.extend(probe() for _ in range(PROBES_PER_GAP))

    def params(self) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Run the code paths once so lazy set-up is not timed."""

    def execute(self, op: dict, recorder) -> dict:
        raise NotImplementedError

    def check(self, op: dict, outcome: dict) -> dict:
        raise NotImplementedError


def op_record(op: dict, **fields) -> dict:
    rec = {
        "op": op["id"],
        "failure": None,
        "exit": 0,
        "labels_sha256": None,
        "artifact_sha256": None,
        "counts": {},
        "dist_to_target": None,
        "within_bound": None,
        "queries": 0,
        "peak_rss_mb": None,
    }
    rec.update(fields)
    return rec


class SweepSmall(Workload):
    """`sweep` in-process on the criterion-07 instances, n' and b from (alpha, eps).

    The instances are criterion 07's first trials, whatever the workload seed:
    the exact sweep's cost varies tenfold between instances and landmark
    samples (heavy-tailed in its run count), so the few instances a run can
    hold never gave a steady total when drawn from the seed.
    """

    name = "sweep-small"
    why = ("unknown-OPT sweep on the fixed criterion-07 instances (n 120-150): "
           "the sweep layer and thousands of tiny cluster_min_sum calls do nearly all the work")
    MIX = (((50, 40, 30), 0.0), ((45, 40, 35, 30), 0.0), ((60, 45, 35), 0.01))
    THETA = 5.0
    FIRST_SEED = 700
    TRIALS = 9

    def params(self) -> dict:
        return {
            "instances": f"criterion 07 trials 0-{self.TRIALS - 1} (seeds "
                         f"{self.FIRST_SEED}-{self.FIRST_SEED + self.TRIALS - 1}), "
                         "independent of the workload seed",
            "size_mix": [list(s) for s, _ in self.MIX],
            "bad_fraction_mix": [b for _, b in self.MIX],
            "theta": self.THETA,
            "landmarks": "from the bundle's declared (alpha, epsilon)",
            "stop_bound": "from the bundle's declared (alpha, epsilon)",
            "ops": [{k: op[k] for k in ("id", "n", "k", "bad_fraction", "b_observed", "epsilon")}
                    for op in self.op_list],
        }

    def _bundle(self, seed: int, sizes, bad: float, op_id: str) -> dict:
        gen = module("generate")
        inst = gen.generate(gen.InstanceSpec(sizes=sizes, theta=self.THETA,
                                             bad_fraction=bad, seed=seed))
        directory = self.work / op_id
        gen.save_bundle(inst, directory)
        st = inst.stability
        report = module("evaluation").classify_points(inst.matrix, inst.target, st)
        out = self.work / f"{op_id}.json"
        return {
            "id": op_id, "n": inst.n, "k": len(sizes), "bad_fraction": bad,
            "b_observed": report.b_observed, "epsilon": st.epsilon,
            "target": inst.target, "output": out,
            "argv": ["sweep", "--input", str(directory / "matrix.csv"),
                     "--k", str(len(sizes)), "--alpha", repr(st.alpha),
                     "--epsilon", repr(st.epsilon), "--seed", str(seed),
                     "--output", str(out)],
        }

    def setup(self) -> None:
        self.op_list = [
            self._bundle(self.FIRST_SEED + t, *self.MIX[t % len(self.MIX)], f"trial{t}")
            for t in range(self.TRIALS)
        ]

    def warm_up(self) -> None:
        op = self._bundle(self.FIRST_SEED - 1, (8, 6, 5), 0.0, "warm")
        call_cli(op["argv"])

    def execute(self, op: dict, recorder) -> dict:
        code, err = call_cli(op["argv"])
        return {"exit": code, "stderr": err}

    def check(self, op: dict, outcome: dict) -> dict:
        if outcome["exit"] != 0:
            return op_record(op, exit=outcome["exit"],
                             failure=cli_error(outcome["exit"], outcome["stderr"]))
        raw = op["output"].read_bytes()
        art = json.loads(raw)
        n, k = op["n"], op["k"]
        cl = art["clustering"]
        labels, problem = partition_labels(n, cl["clusters"], cl.get("unassigned"), k)
        params = art["params"]
        queries = art["queries_issued"]
        coverage = art.get("coverage_per_candidate", [])
        runs = art["runs_executed"]
        rec = op_record(
            op, labels_sha256=None if labels is None else labels_digest(labels),
            artifact_sha256=sha256_bytes(raw), queries=queries,
            counts={"queries": queries, "sweep.runs": runs,
                    "sweep.useful_runs": useful_runs(coverage),
                    "landmark.table.pairs": params["landmarks"] * n,
                    "cli.artifact.bytes": len(raw)},
        )
        if problem:
            rec["failure"] = problem
        elif queries != params["landmarks"] or queries != len(params["landmark_ids"]):
            rec["failure"] = f"{queries} queries for {params['landmarks']} landmarks"
        elif art["points_clustered_at_stop"] < n - params["stop_bound"]:
            rec["failure"] = "sweep stopped below n - b clustered points"
        else:
            dist = distance_to(labels, op["target"])
            rec["dist_to_target"] = dist
            rec["within_bound"] = dist <= (2 * op["b_observed"] + op["epsilon"] * n) / n
        return rec


class CloudLarge(Workload):
    """One stream pass at n ~ 100k through the library."""

    name = "cloud-100k"
    probe_kind = "numpy"
    why = ("one stream pass at n~100k via PointCloudDistanceSource: row queries, "
           "the 3.2M-pair sort and one long stream sweep; no sweep layer, no I/O")
    K = 8
    DIM = 8
    CORE = 12_375
    BAD_FRACTION = 0.01
    THETA = 5.0
    # size * diameter <= THETA inside a core; the nearest point outside a core
    # is at distance ~0.5 or more, so its product exceeds CORE * 0.5 >> T.
    THRESHOLD = 9.0 * THETA
    LANDMARKS = 32
    OPS = 6

    def params(self) -> dict:
        return {
            "n": self.n, "k": self.K, "dim": self.DIM, "core_size": self.CORE,
            "bad_fraction": self.BAD_FRACTION, "theta": self.THETA,
            "threshold": self.THRESHOLD, "landmarks": self.LANDMARKS,
            "ops_per_pass": self.OPS,
        }

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        centers = np.eye(self.K, self.DIM)
        radius = self.THETA / (2.0 * self.CORE)
        blocks = []
        for center in centers:
            g = rng.standard_normal((self.CORE, self.DIM))
            g /= np.linalg.norm(g, axis=1, keepdims=True)
            r = radius * rng.uniform(0.0, 1.0, self.CORE) ** (1.0 / self.DIM)
            blocks.append(center + g * r[:, None])
        cores = np.vstack(blocks)
        n_bad = int(self.BAD_FRACTION * cores.shape[0])
        bad = rng.uniform(cores.min(axis=0), cores.max(axis=0), (n_bad, self.DIM))
        self.points = np.vstack([cores, bad])
        self.n = self.points.shape[0]
        nearest = np.argmin(
            np.linalg.norm(bad[:, None, :] - centers[None, :, :], axis=2), axis=1)
        labels = np.concatenate([np.repeat(np.arange(self.K), self.CORE), nearest])
        self.target = module("landmark").Clustering(
            n=self.n, clusters=[np.nonzero(labels == i)[0].tolist() for i in range(self.K)])
        self.op_list = [{"id": f"cloud{j}", "landmark_seed": 1000 * self.seed + j}
                        for j in range(self.OPS)]

    def warm_up(self) -> None:
        self.execute(self.op_list[0], None)

    def execute(self, op: dict, recorder) -> dict:
        metric, landmark = module("metric"), module("landmark")
        source = metric.PointCloudDistanceSource(self.points)
        ids = landmark.sample_landmarks(self.n, self.LANDMARKS, op["landmark_seed"])
        table = landmark.build_landmark_table(source, ids)
        run = landmark.cluster_min_sum(table, self.K, self.THRESHOLD)
        final = landmark.assign_remainder(run, table)
        return {"clustering": final, "queries": source.ledger.queries_issued,
                "remainder": len(run.unassigned)}

    def check(self, op: dict, outcome: dict) -> dict:
        c = outcome["clustering"]
        labels, problem = partition_labels(self.n, c.clusters, c.unassigned, self.K)
        queries = outcome["queries"]
        rec = op_record(
            op, labels_sha256=None if labels is None else labels_digest(labels),
            queries=queries,
            counts={"queries": queries,
                    "landmark.table.pairs": self.LANDMARKS * self.n,
                    "landmark.remainder.points": outcome["remainder"]},
        )
        if problem:
            rec["failure"] = problem
        elif queries != self.LANDMARKS:
            rec["failure"] = f"{queries} queries for {self.LANDMARKS} landmarks"
        else:
            rec["dist_to_target"] = distance_to(labels, self.target)
            core = labels[: self.K * self.CORE].reshape(self.K, self.CORE)
            intact = (core == core[:, :1]).all()
            rec["within_bound"] = bool(intact and np.unique(core[:, 0]).size == self.K)
        return rec


class Cli2k(Workload):
    """The CLI as a user scripts it, one subprocess per subcommand."""

    name = "cli-2k"
    why = ("one subprocess per subcommand on a ~2k-point bundle: generate's CSV "
           "write, CSV reads in verify/cluster/evaluate, and four interpreter starts")
    subprocesses = True
    probe_kind = "numpy"
    SIZES = (800, 700, 500)
    THETA = 5.0
    BAD_FRACTION = 0.01

    def params(self) -> dict:
        return {
            "sizes": list(self.SIZES), "theta": self.THETA,
            "bad_fraction": self.BAD_FRACTION, "k": len(self.SIZES),
            "landmarks": "from the bundle's declared (alpha, epsilon)",
            "threshold": "alpha*OPT/(40*eps*n), OPT = w*n from verify",
            "stages": ["generate", "verify", "cluster", "evaluate"],
            "ops_per_pass": 1,
        }

    def setup(self) -> None:
        self.op_list = [{"id": "cli0", "seed": self.seed, "bundle": self.work / "bundle"}]

    def _stage(self, stage: str, argv: list[str], recorder, outcome: dict) -> bool:
        """Run one subcommand as a child process in the work directory, so
        that the paths in its artifacts are relative; False if it failed.
        The host's speed is probed first: a stage takes 2-12 s, and the
        speed moves within an op."""
        self.gap()
        out = self.work / f"{stage}.stdout"
        err = self.work / f"{stage}.stderr"
        spans_file = self.work / f"{stage}.spans.json"
        cmd = [sys.executable, str(LAUNCH)]
        if recorder is not None:
            spans_file.unlink(missing_ok=True)
            cmd += ["--spans", str(spans_file)]
        span = recorder.begin(f"cli.proc.{stage}") if recorder is not None else None
        with open(out, "wb") as fo, open(err, "wb") as fe:
            child = subprocess.Popen(cmd + ["--"] + argv, stdout=fo, stderr=fe,
                                     cwd=self.work)
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
        if recorder is not None:
            recorder.end(span)
            if spans_file.exists():
                recorder.add(json.loads(spans_file.read_text()), span)
        outcome["rss_mb"][stage] = usage.ru_maxrss / 1024.0
        if child.returncode != 0:
            outcome.update(exit=child.returncode, stage=stage,
                           stderr=err.read_text(errors="replace"))
            return False
        return True

    def execute(self, op: dict, recorder) -> dict:
        seed, work = str(op["seed"]), self.work
        outcome = {"exit": 0, "rss_mb": {}}
        sizes = ",".join(str(s) for s in self.SIZES)
        if not self._stage("generate", [
                "generate", "--sizes", sizes, "--theta", repr(self.THETA),
                "--bad-fraction", repr(self.BAD_FRACTION), "--seed", seed,
                "--output", "bundle"], recorder, outcome):
            return outcome
        if not self._stage("verify", [
                "verify", "--input", "bundle", "--seed", seed,
                "--output", "verify.json"], recorder, outcome):
            return outcome
        summary = json.loads((work / "generate.stdout").read_text())
        st = summary["stability"]
        w = json.loads((work / "verify.json").read_text())["w"]
        if not self._stage("cluster", [
                "cluster", "--input", "bundle/matrix.csv",
                "--k", str(summary["k"]), "--opt", repr(w * summary["n"]),
                "--alpha", repr(st["alpha"]), "--epsilon", repr(st["epsilon"]),
                "--seed", seed, "--output", "cluster.json"], recorder, outcome):
            return outcome
        self._stage("evaluate", [
            "evaluate", "--clustering", "cluster.json", "--labels", "bundle/labels.csv",
            "--input", "bundle/matrix.csv", "--output", "evaluate.json"],
            recorder, outcome)
        return outcome

    def _target(self, n: int):
        rows = (self.op_list[0]["bundle"] / "labels.csv").read_text().split()
        by_point = dict(tuple(map(int, row.split(","))) for row in rows[1:])
        labels = [by_point[p] for p in range(n)]
        return module("landmark").Clustering(
            n=n, clusters=[[p for p, lab in enumerate(labels) if lab == i]
                           for i in range(max(labels) + 1)])

    def check(self, op: dict, outcome: dict) -> dict:
        peak = max(outcome["rss_mb"].values(), default=None)
        if outcome["exit"] != 0:
            failure = cli_error(outcome["exit"], outcome["stderr"])
            return op_record(op, exit=outcome["exit"], peak_rss_mb=peak,
                             failure=f"{outcome['stage']}: {failure}")
        work, bundle = self.work, op["bundle"]
        files = {name: work / name for name in
                 ("generate.stdout", "verify.json", "cluster.json", "evaluate.json")}
        files.update({name: bundle / name for name in
                      ("matrix.csv", "labels.csv", "instance.json")})
        raw = {name: path.read_bytes() for name, path in files.items() if name != "matrix.csv"}
        summary = json.loads(raw["generate.stdout"])
        verify = json.loads(raw["verify.json"])
        art = json.loads(raw["cluster.json"])
        ev = json.loads(raw["evaluate.json"])
        n, k = summary["n"], summary["k"]
        labels, problem = partition_labels(n, art["clusters"], art.get("unassigned"), k)
        queries = art["queries_issued"]
        landmarks = art["params"]["landmarks"]
        artifact_digest = hashlib.sha256()
        for name in sorted(files):
            artifact_digest.update(name.encode())
            artifact_digest.update(
                sha256_file(files[name]).encode() if name == "matrix.csv"
                else sha256_bytes(raw[name]).encode())
        rec = op_record(
            op, peak_rss_mb=peak,
            labels_sha256=None if labels is None else labels_digest(labels),
            artifact_sha256=artifact_digest.hexdigest(), queries=queries,
            counts={"queries": queries, "landmark.table.pairs": landmarks * n,
                    "cli.artifact.bytes": sum(len(raw[name]) for name in
                                              ("generate.stdout", "verify.json",
                                               "cluster.json", "evaluate.json")),
                    "metric.csv_write.bytes": files["matrix.csv"].stat().st_size},
        )
        phi, psi = ev.get("phi"), ev.get("psi")
        if problem:
            rec["failure"] = "cluster: " + problem
        elif queries != landmarks:
            rec["failure"] = f"cluster: {queries} queries for {landmarks} landmarks"
        elif verify["n"] != n or verify["metric_check"]["violations"]:
            rec["failure"] = "verify: wrong n or triangle violations on a Euclidean bundle"
        elif phi is None or psi is None or not psi / 2 * (1 - 1e-9) <= phi <= psi * (1 + 1e-9):
            rec["failure"] = "evaluate: objectives outside psi/2 <= phi <= psi"
        else:
            dist = distance_to(labels, self._target(n))
            if not math.isclose(ev["dist_to_target"], dist, rel_tol=0, abs_tol=1e-12):
                rec["failure"] = f"evaluate: dist {ev['dist_to_target']} != {dist}"
            else:
                eps = summary["stability"]["epsilon"]
                rec["dist_to_target"] = dist
                rec["within_bound"] = dist <= (verify["b_observed"] + eps * n) / n
        return rec


class CertifyTiny(Workload):
    """Exhaustive stability certification through `verify --check-stability`."""

    name = "certify-tiny"
    why = ("verify --check-stability on n=10-11, k=2-3 bundles plus a uniform "
           "control: the only workload that runs verify_stability's Bell-number walk")
    # As many ops below (the control, n=10 k=2) as above (n=11 k=3) the four
    # n=10 k=3 walks, so the median op is the middle of those four.
    MIX = ((5, 5), (4, 3, 3), (4, 4, 2), (4, 3, 3), (4, 4, 2), (4, 4, 3), (5, 4, 2))
    THETA = 1.5
    CONTROL = {"kind": "uniform", "n": 9, "k": 2, "alpha": 1.0, "epsilon": 0.2}

    def params(self) -> dict:
        return {"size_mix": [list(s) for s in self.MIX], "theta": self.THETA,
                "control": self.CONTROL, "ops_per_pass": len(self.MIX) + 1}

    def _op(self, op_id: str, directory: Path, n: int, extra=()) -> dict:
        out = self.work / f"{op_id}.json"
        return {"id": op_id, "n": n, "output": out, "control": bool(extra),
                "argv": ["verify", "--input", str(directory), "--check-stability",
                         *extra, "--seed", str(self.seed), "--output", str(out)]}

    def setup(self) -> None:
        gen = module("generate")
        ops = []
        for i, sizes in enumerate(self.MIX):
            inst = gen.generate(gen.InstanceSpec(sizes=sizes, theta=self.THETA,
                                                 seed=1000 * self.seed + i))
            gen.save_bundle(inst, self.work / f"tiny{i}")
            ops.append(self._op(f"tiny{i}", self.work / f"tiny{i}", inst.n))
        c = self.CONTROL
        inst = gen.generate_adversarial(c["kind"], n=c["n"], k=c["k"], seed=self.seed)
        gen.save_bundle(inst, self.work / "control")
        ops.append(self._op("control", self.work / "control", c["n"],
                            ("--alpha", repr(c["alpha"]), "--epsilon", repr(c["epsilon"]))))
        self.op_list = ops

    def warm_up(self) -> None:
        call_cli(self.op_list[-1]["argv"])

    def execute(self, op: dict, recorder) -> dict:
        code, err = call_cli(op["argv"])
        return {"exit": code, "stderr": err}

    def check(self, op: dict, outcome: dict) -> dict:
        if outcome["exit"] != 0:
            return op_record(op, exit=outcome["exit"],
                             failure=cli_error(outcome["exit"], outcome["stderr"]))
        raw = op["output"].read_bytes()
        out = json.loads(raw)
        holds = out.get("stability_holds")
        rec = op_record(op, artifact_sha256=sha256_bytes(raw),
                      counts={"cli.artifact.bytes": len(raw), "queries": 0,
                              "stability_holds": holds})
        if not isinstance(holds, bool):
            rec["failure"] = "no stability verdict"
        elif op["control"] and holds:
            rec["failure"] = "uniform control reported stability_holds: true"
        elif out["n"] != op["n"] or out["metric_check"]["violations"]:
            rec["failure"] = "wrong n or triangle violations"
        return rec


WORKLOADS = {w.name: w for w in (SweepSmall, CloudLarge, Cli2k, CertifyTiny)}
