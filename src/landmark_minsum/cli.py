"""Command-line surface: generate / cluster / sweep / baseline / evaluate /
verify / ingest, with JSON artifacts and machine-readable errors.

Exit codes: 0 success, 2 parameter error, 3 data error.
Every artifact embeds the tool version, and those of generate / cluster /
sweep / baseline also the seed and the parameters, so a run can be
reproduced byte-for-byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from contextlib import nullcontext
from pathlib import Path

from . import __version__
from .errors import (
    DataError,
    LandmarkMinsumError,
    ParameterError,
    open_input,
    open_output,
)
from .evaluation import (
    balanced_k_median,
    classify_points,
    clustering_distance,
    embed_kmeans_baseline,
    min_sum,
    verify_stability,
)
from .generate import (
    Instance,
    InstanceSpec,
    generate,
    load_bundle,
    read_target_labels,
    save_bundle,
)
from .landmark import (
    Clustering,
    StabilityParams,
    assign_remainder,
    build_landmark_table,
    cluster_min_sum,
    landmark_count_for,
    sample_landmarks,
    threshold_from_opt,
)
from .metric import (
    SYMMETRIZE_POLICIES,
    MatrixDistanceSource,
    MetricMatrix,
    QueryLedger,
    check_metric,
    ingest_similarity,
    read_pair_file,
    twin_path,
)
from .sweep import stop_bound_from, sweep

SEED_ENV_VAR = "LANDMARK_MINSUM_SEED"

# the first class in an error's MRO that appears here gives the exit code;
# a DataError gives 3 through its base class
_EXIT_CODES = {
    ParameterError: 2,
    LandmarkMinsumError: 3,
}


def _resolve_seed(args) -> int:
    env = os.environ.get(SEED_ENV_VAR, "0")
    try:
        seed = args.seed if args.seed is not None else int(env)
    except ValueError:
        raise ParameterError(f"{SEED_ENV_VAR} must be an integer, got {env!r}")
    if seed < 0:
        source = "--seed" if args.seed is not None else SEED_ENV_VAR
        raise ParameterError(f"{source} must be non-negative, got {seed}")
    return seed


def _emit(payload: dict, args) -> None:
    indent = None if args.format == "compact" else 2
    text = json.dumps(payload, indent=indent, sort_keys=True)
    out = getattr(args, "output", None)  # generate and ingest have none
    if out:
        with open_output(out) as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _load_matrix(args) -> MetricMatrix:
    path = args.input
    if path is None:
        raise ParameterError("--input is required")
    with open_input(path) as fh:
        first = fh.readline().strip()
    if first.isdigit():  # a matrix CSV starts with its point count
        return MetricMatrix.from_csv(path)
    pairs, _labels = read_pair_file(path)
    return ingest_similarity(pairs, policy=args.policy)


def _stability_from(args) -> StabilityParams | None:
    if args.alpha is None and args.epsilon is None:
        if args.delta is not None:
            raise ParameterError("--delta needs --alpha and --epsilon")
        return None
    if args.alpha is None or args.epsilon is None:
        raise ParameterError("--alpha and --epsilon must be given together")
    return StabilityParams(
        alpha=args.alpha, epsilon=args.epsilon,
        delta=args.delta if args.delta is not None else StabilityParams.delta,
    )


def _query_setup(args, command: str) -> tuple[MatrixDistanceSource, dict]:
    """What cluster, sweep and baseline share: the seed, the matrix, the k
    check, a source that counts queries against --budget, and the params
    block every artifact carries."""
    seed = _resolve_seed(args)
    matrix = _load_matrix(args)
    if args.k is None:
        raise ParameterError("--k is required")
    source = MatrixDistanceSource(matrix, QueryLedger(budget=args.budget))
    params = {"command": command, "version": __version__, "seed": seed, "k": args.k}
    return source, params


def _landmark_table(args, source, params: dict):
    """Sample n' landmarks (from --landmarks, else from the stability
    parameters), query them, and record them in `params`."""
    stability = _stability_from(args)
    if args.landmarks is not None:
        n_prime = args.landmarks
    elif stability is not None:
        n_prime = landmark_count_for(stability, args.k, source.n)
    else:
        raise ParameterError("need --landmarks or stability parameters")
    table = build_landmark_table(
        source, sample_landmarks(source.n, n_prime, params["seed"])
    )
    params.update(
        landmarks=n_prime,
        landmark_ids=table.landmark_ids,
        stability=stability.to_dict() if stability else None,
    )
    return table, stability


def _artifact(body: dict, source, params: dict) -> dict:
    return {**body, "params": params, "queries_issued": source.ledger.queries_issued}


def cmd_generate(args) -> dict:
    if args.bundle is None:
        raise ParameterError("generate needs --output DIRECTORY")
    seed = _resolve_seed(args)
    try:
        sizes = tuple(int(s) for s in args.sizes.split(","))
    except ValueError as exc:  # the message quotes the bad entry
        raise ParameterError(
            f"--sizes takes comma-separated integers: {exc}"
        ) from None
    spec = InstanceSpec(
        sizes=sizes,
        theta=args.theta,
        separation_factor=args.separation_factor,
        bad_fraction=args.bad_fraction,
        embed_dim=args.embed_dim,
        seed=seed,
    )
    inst = generate(spec)
    save_bundle(inst, args.bundle)
    return {
        "version": __version__,
        "output": str(args.bundle),
        "n": inst.n,
        "k": spec.k,
        "seed": seed,
        "spec": spec.to_dict(),
        "stability": inst.stability.to_dict() if inst.stability else None,
    }


def cmd_cluster(args) -> dict:
    source, params = _query_setup(args, "cluster")
    table, stability = _landmark_table(args, source, params)
    if args.threshold is not None and args.opt is not None:
        raise ParameterError("--threshold and --opt both set the threshold: give one")
    if args.threshold is not None:
        threshold = args.threshold
    elif args.opt is not None:
        if stability is None:
            raise ParameterError("--opt needs --alpha and --epsilon")
        threshold = threshold_from_opt(
            stability.alpha, stability.epsilon, args.opt, source.n
        )
    else:
        raise ParameterError("need --threshold, or --opt with stability params")
    run = cluster_min_sum(table, args.k, threshold)
    if not args.raw:
        run = assign_remainder(run, table)
    params.update(threshold=threshold, raw=bool(args.raw))
    return _artifact(run.to_dict(), source, params)


def cmd_sweep(args) -> dict:
    source, params = _query_setup(args, "sweep")
    table, stability = _landmark_table(args, source, params)
    if args.stop_bound is not None:
        bound = args.stop_bound
    elif stability is not None:
        bound = stop_bound_from(stability, source.n)
    else:
        raise ParameterError("need --stop-bound or stability parameters")
    params["stop_bound"] = bound
    return _artifact(sweep(table, args.k, bound).to_dict(), source, params)


def cmd_baseline(args) -> dict:
    source, params = _query_setup(args, "baseline")
    if args.landmarks is None:
        raise ParameterError("baseline needs --landmarks")
    run = embed_kmeans_baseline(
        source, args.landmarks, args.k, seed=params["seed"], max_iters=args.max_iters
    )
    params.update(landmarks=args.landmarks, max_iters=args.max_iters)
    return _artifact(run.to_dict(), source, params)


def cmd_evaluate(args) -> dict:
    if bool(args.against) == bool(args.labels):
        raise ParameterError("evaluate needs one of --against and --labels")
    clustering = Clustering.read_json(args.clustering)
    matrix = _load_matrix(args) if args.input else None
    if args.against:
        other = Clustering.read_json(args.against)
    else:
        other = read_target_labels(args.labels, clustering.n)
    out: dict = {
        "version": __version__,
        "n": clustering.n,
        "dist_to_target": clustering_distance(clustering, other),
    }
    if matrix is not None:
        out["phi"] = min_sum(clustering, matrix).value
        out["psi"] = balanced_k_median(clustering, matrix).value
    return out


def cmd_verify(args) -> dict:
    path = Path(args.input) if args.input else None
    if path and path.is_dir():
        if args.labels:
            raise ParameterError("--labels with a bundle --input: it has its labels")
        inst = load_bundle(path)
        matrix, target = inst.matrix, inst.target
        stability = inst.stability
    else:
        matrix = _load_matrix(args)
        if not args.labels:
            raise ParameterError("verify needs a bundle dir or --labels")
        target = read_target_labels(args.labels, matrix.n)
        stability = None
    override = _stability_from(args)
    if override is not None:
        stability = override
    if stability is None:
        raise ParameterError(
            "no stability parameters: pass --alpha/--epsilon or use a bundle"
        )
    seed = _resolve_seed(args)
    # the walk refuses an oversized check before the classification and audit
    verdict = (verify_stability(matrix, target, target.k, stability)
               if args.check_stability else None)
    out = classify_points(matrix, target, stability).to_dict()
    out["version"] = __version__
    metric_report = check_metric(
        matrix,
        mode="exhaustive" if matrix.n <= 300 else "sampled",
        seed=seed,
    )
    out["metric_check"] = {
        "mode": metric_report.mode,
        "triples_checked": metric_report.triples_checked,
        "violations": metric_report.violations,
    }
    if verdict is not None:
        out["stability_holds"] = verdict.holds
        if not verdict.holds:
            out["stability_counterexample"] = {
                "clusters": verdict.counterexample.to_dict()["clusters"],
                "value": verdict.counterexample_value,
                "distance": verdict.counterexample_distance,
            }
    return out


def cmd_ingest(args) -> dict:
    if args.matrix_output is None:
        raise ParameterError("ingest needs --output for the matrix CSV")
    if args.ids_output and os.path.realpath(args.ids_output) in {
        os.path.realpath(args.matrix_output),
        os.path.realpath(twin_path(args.matrix_output)),
    }:
        raise ParameterError(
            "--ids-output names the file of --output or of its binary twin"
        )
    pairs, labels = read_pair_file(args.input)
    matrix = ingest_similarity(pairs, policy=args.policy)
    payload: dict = {
        "version": __version__,
        "n": matrix.n,
        "output": str(args.matrix_output),
        "policy": args.policy,
    }
    # the ids file is opened first, so an unwritable ids path leaves no
    # matrix behind; an unwritable matrix path removes the ids file again
    with open_output(args.ids_output) if args.ids_output else nullcontext() as ids:
        try:
            matrix.to_csv(args.matrix_output)
        except DataError:
            if ids is not None:
                os.remove(args.ids_output)
            raise
        if ids is not None:
            ids.write("point_id,label\n")
            for i, lab in enumerate(labels):
                ids.write(f"{i},{lab}\n")
            payload["ids_output"] = str(args.ids_output)
    return payload


def _add_common(p: argparse.ArgumentParser, **output) -> None:
    p.add_argument("--seed", type=int, default=None,
                   help=f"RNG seed (default: ${SEED_ENV_VAR} or 0)")
    _add_output(p, **output)


def _add_output(p: argparse.ArgumentParser, dest: str = "output",
                help: str = "output file (default stdout)") -> None:
    """`dest` is not "output" where the flag names the file or directory
    that generate and ingest write; they print their summary to stdout."""
    p.add_argument("--output", dest=dest, default=None, help=help)
    p.add_argument("--format", choices=["json", "compact"], default="json")


def _add_matrix_input(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=False, help="matrix CSV or pair TSV")
    p.add_argument("--policy", choices=SYMMETRIZE_POLICIES,
                   default="min_distance", help="pair symmetrization policy")


def _add_query_input(p: argparse.ArgumentParser) -> None:
    """The flags `_query_setup` reads, and `--landmarks`."""
    _add_matrix_input(p)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--landmarks", type=int, default=None,
                   help="landmarks n', one one-versus-all query each")
    p.add_argument("--budget", type=int, default=None,
                   help="hard cap on one-versus-all queries")


def _add_stability(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    as it was, so every `main` call shares it."""
    parser = argparse.ArgumentParser(
        prog="landmark-minsum",
        description="Landmark-based min-sum clustering under a query budget",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a planted-core instance bundle")
    p.add_argument("--sizes", required=True, help="comma-separated core sizes")
    p.add_argument("--theta", type=float, required=True,
                   help="size*diameter product for the cores")
    p.add_argument("--separation-factor", type=float,
                   default=InstanceSpec.separation_factor)
    p.add_argument("--bad-fraction", type=float,
                   default=InstanceSpec.bad_fraction)
    p.add_argument("--embed-dim", type=int, default=None)
    _add_common(p, dest="bundle", help="bundle directory to write")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("cluster", help="run the landmark clustering once")
    _add_query_input(p)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--opt", type=float, default=None,
                   help="known optimum; threshold becomes alpha*OPT/(40*eps*n)")
    p.add_argument("--raw", action="store_true",
                   help="skip remainder assignment")
    _add_stability(p)
    _add_common(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser(
        "sweep",
        help="ascending-threshold sweep (unknown OPT)",
        description="Cluster with an unknown optimum: start at the smallest "
        "positive landmark-point distance and jump to each run's smallest "
        "fired size x distance product until a run clusters n - b points.",
    )
    _add_query_input(p)
    p.add_argument("--stop-bound", type=int, default=None,
                   help="stop once n - b points are clustered")
    _add_stability(p)
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("baseline", help="embed-then-k-means comparison run")
    _add_query_input(p)
    p.add_argument("--max-iters", type=int, default=100,
                   help="Lloyd rounds, at least 1")
    _add_common(p)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("evaluate", help="score a clustering against another")
    _add_matrix_input(p)
    p.add_argument("--clustering", required=True, help="clustering JSON")
    p.add_argument("--against", default=None, help="other clustering JSON")
    p.add_argument("--labels", default=None, help="target label CSV")
    _add_output(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("verify", help="structure / stability report")
    _add_matrix_input(p)
    p.add_argument("--labels", default=None, help="target label CSV")
    p.add_argument("--check-stability", action="store_true")
    _add_stability(p)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ingest", help="similarity TSV -> distance matrix CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--policy", choices=SYMMETRIZE_POLICIES,
                   default="min_distance")
    p.add_argument("--ids-output", default=None)
    _add_output(p, dest="matrix_output", help="distance matrix CSV to write")
    p.set_defaults(func=cmd_ingest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _emit(args.func(args), args)
    except LandmarkMinsumError as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(error) + "\n")
        return next(_EXIT_CODES[c] for c in type(exc).__mro__ if c in _EXIT_CODES)
    return 0


if __name__ == "__main__":
    sys.exit(main())
