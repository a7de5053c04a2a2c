"""`mmm`: command-line front end.

Nine subcommands: validate, sample, poly-eval, prohorov, dist,
tightness, simulate, test, converge.  Structures travel as JSON
(schemas "mmm-space/v2", whose distances are one base64 float64 payload,
"mmm-metric/v1", "mmm-measure/v1"; "mmm-space/v1" files are still read),
curves and tables as CSV.  Each subcommand only computes: it returns its
stdout text, the files to write and the input paths, and `run` alone
prints, writes the files and records them in one "mmm-manifest/v1" JSON
next to them (the command line, seed, and SHA-256 digests of inputs and
outputs).  `replay` re-runs a manifest and reproduces the outputs byte
for byte (the manifest's own timestamp is the only thing that moves).

Exit codes: 0 success, 1 domain error (machine-readable JSON on
stderr), 2 usage error.

Seeds resolve as --seed, else the MMM_SEED environment variable, else
0.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import io
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .compact import family_tightness
from .core import validate
from .dmat import sample_many
from .errors import DomainError, ParameterError, TooLargeError
from .gen import CoalescentConfig, MoranConfig, euclidean_cloud, kingman, moran
from .mgp import EXACT_PAIR_BOUND, SCAN_BUDGET, mgp_bounds, mgp_exact
from .poly import _exact_is_cheap, default_panel, evaluate_exact, evaluate_mc
from .prohorov import FinitePointMeasure, prohorov_exact
from .serialize import (
    MANIFEST_SCHEMA,
    dumps,
    load_path,
    load_space,
    marks_to_obj,
    measure_from_obj,
    metric_from_obj,
    sha256_path,
    space_text,
)
from .stats import convergence_table, two_sample_test

__all__ = ["run", "main", "replay"]


class _Violations(DomainError):
    """`validate` found violations; the payload is the whole report."""

    def payload(self) -> dict:
        return self.args[0]


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return int(os.environ.get("MMM_SEED", "0"))


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _manifest_path(outputs: list) -> Path:
    first = Path(outputs[0])
    return first.with_name(first.name + ".manifest.json")


def _write_manifest(args, argv, inputs, outputs) -> None:
    argv = list(argv)
    seed = getattr(args, "seed", 0)
    if hasattr(args, "seed") and "--seed" not in argv:
        argv += ["--seed", str(seed)]
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "command": args.command,
        "argv": argv,
        "seed": seed,
        "inputs": {str(p): sha256_path(p) for p in inputs},
        "outputs": {str(p): sha256_path(p) for p in outputs},
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    _write_text(_manifest_path(outputs), dumps(manifest) + "\n")


def replay(manifest_path) -> int:
    """Re-run the command recorded in a manifest; outputs are rewritten."""
    manifest = load_path(manifest_path)
    if manifest.get("schema") != MANIFEST_SCHEMA:
        raise ParameterError(f"not a manifest: {manifest_path}")
    return run(manifest["argv"])


def _float_list(text: str) -> list:
    return [float(t) for t in text.split(",") if t.strip() != ""]


def _load_spaces_dir(directory: str):
    paths = sorted(Path(directory).glob("*.json"))
    paths = [p for p in paths if not p.name.endswith(".manifest.json")]
    if not paths:
        raise ParameterError(f"no space JSON files under {directory}")
    return paths, [load_space(p) for p in paths]


def _csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# subcommands: each returns (stdout text or None, {path: text}, inputs)
# ---------------------------------------------------------------------------

def _printed(args, text: str, inputs):
    """Print ``text``, and also write it to ``--out`` when given."""
    return text, ({args.out: text} if args.out else {}), inputs


def _written(args, text: str, inputs):
    """Write ``text`` to ``--out`` when given, else print it."""
    return (None, {args.out: text}, inputs) if args.out else (text, {}, inputs)


def _cmd_validate(args):
    space = load_space(args.space)
    report = validate(space, tol=args.tol)
    payload = {"ok": report.ok, "n": space.n,
               "violations": [asdict(v) for v in report.violations]}
    if not report.ok:
        worst = max(report.violations, key=lambda v: v.magnitude)
        raise _Violations({**payload, "error": "invariant-violation",
                           "detail": worst.message})
    return _printed(args, dumps(payload) + "\n", [args.space])


def _cmd_sample(args):
    space = load_space(args.space)
    draws = sample_many(space, args.n, args.count, args.seed)
    rows, cols = np.triu_indices(args.n, 1)  # row-major strict upper triangle
    uppers = np.array([s.dist for s in draws])[:, rows, cols].tolist()
    lines = [
        dumps({"n": s.order, "dist_upper": upper,
               "marks": marks_to_obj(s.marks, space.mark_space)})
        for s, upper in zip(draws, uppers)
    ]
    return _written(args, "\n".join(lines) + "\n", [args.space])


def _poly_rows(space, panel, mc, seed):
    rows = []
    for c, phi in enumerate(panel):
        exact = float(evaluate_exact(phi, space)) if _exact_is_cheap(phi, space) else ""
        est, err = evaluate_mc(phi, space, mc, seed + 101 * c)
        rows.append([phi.description, exact, float(est), float(err)])
    return rows


def _cmd_poly_eval(args):
    space = load_space(args.space)
    panel = default_panel(space.mark_space, args.n_max, args.size)
    text = _csv([["polynomial", "exact", "mc_estimate", "mc_stderr"],
                 *_poly_rows(space, panel, args.mc, args.seed)])
    return _written(args, text, [args.space])


def _cmd_prohorov(args):
    metric = metric_from_obj(load_path(args.metric))
    atoms_p, probs_p = measure_from_obj(load_path(args.p))
    atoms_q, probs_q = measure_from_obj(load_path(args.q))
    value, coupling = prohorov_exact(
        metric,
        FinitePointMeasure(atoms=atoms_p, probs=probs_p),
        FinitePointMeasure(atoms=atoms_q, probs=probs_q),
    )
    text = dumps({"value": value, "witness": coupling}) + "\n"
    return _printed(args, text, [args.metric, args.p, args.q])


def _cmd_dist(args):
    if args.budget is not None and not args.exact:
        raise ParameterError("--budget applies only with --exact")
    a = load_space(args.a)
    b = load_space(args.b)
    if args.exact:
        result = mgp_exact(a, b, budget=SCAN_BUDGET if args.budget is None else args.budget)
    else:
        result = mgp_bounds(a, b)
    payload = {
        "lower": result.lower,
        "upper": result.upper,
        "exact": result.exact,
        "slack": result.slack,
        "witness_cross": result.witness_cross,
        "witness_coupling": result.witness_coupling,
    }
    return _printed(args, dumps(payload) + "\n", [args.a, args.b])


def _cmd_tightness(args):
    paths, spaces = _load_spaces_dir(args.spaces)
    report = family_tightness(
        spaces,
        eps_grid=_float_list(args.eps),
        delta_grid=_float_list(args.delta),
        tail_grid=_float_list(args.tail) if args.tail else None,
        mark_labels=args.mark_labels.split(",") if args.mark_labels else None,
        mark_radii=_float_list(args.mark_radii) if args.mark_radii else None,
        threshold=args.threshold,
    )
    rows = [["curve", "eps_or_threshold", "delta", "value"]]
    for d_index, delta in enumerate(report.delta_grid):
        for e_index, eps in enumerate(report.eps_grid):
            rows.append(["modulus", float(eps), float(delta),
                         float(report.modulus[d_index, e_index])])
    for t, v in zip(report.tail_grid, report.distance_tail):
        rows.append(["distance_tail", float(t), "", float(v)])
    if report.mark_tail.size:
        # a label set has no radius: its one tail value gets an empty cell
        radii = _float_list(args.mark_radii) if args.mark_radii else [""]
        for t, v in zip(radii, report.mark_tail):
            rows.append(["mark_tail", t, "", float(v)])
    verdicts = {
        "verdicts": report.verdicts,
        "tightness_consistent": report.tightness_consistent,
        "spaces": [str(p) for p in paths],
    }
    outdir = Path(args.out)
    files = {
        outdir / "tightness_curves.csv": _csv(rows),
        outdir / "tightness_verdicts.json": dumps(verdicts) + "\n",
    }
    return None, files, paths


def _cmd_simulate(args):
    params = load_path(args.params) if args.params else {}
    if not isinstance(params, dict):
        raise ParameterError("--params must hold a JSON object")
    params = dict(params, seed=args.seed)
    try:
        if args.model == "cloud":
            space = euclidean_cloud(**params)
        else:
            if "alphabet" in params:
                params["alphabet"] = tuple(params["alphabet"])
            model, config = {"kingman": (kingman, CoalescentConfig),
                             "moran": (moran, MoranConfig)}[args.model]
            space = model(config(**params))
    except TypeError as exc:
        raise ParameterError(f"bad params for model {args.model!r}: {exc}") from exc
    inputs = [args.params] if args.params else []
    return None, {args.out: space_text(space)}, inputs


def _cmd_test(args):
    a = load_space(args.a)
    b = load_space(args.b)
    result = two_sample_test(
        a, b, n=args.n, m=args.m, permutations=args.perms, seed=args.seed
    )
    return _printed(args, dumps(asdict(result)) + "\n", [args.a, args.b])


def _cmd_converge(args):
    paths, spaces = _load_spaces_dir(args.seq)
    target = load_space(args.target) if args.target else None
    panel = default_panel(spaces[0].mark_space, args.n_max, args.size)
    table = convergence_table(spaces, target, panel, m=args.mc, seed=args.seed)
    header = ["space", "polynomial", "estimate", "stderr"]
    if target is not None:
        header += ["target", "gap"]
    rows = [header]
    for k, row_label in enumerate(table.row_labels):
        for c, col_label in enumerate(table.column_labels):
            row = [row_label, col_label, float(table.estimates[k, c]),
                   float(table.stderrs[k, c])]
            if target is not None:
                row += [float(table.target_values[c]), float(table.gaps[k, c])]
            rows.append(row)
    out = Path(args.out)
    files = {out: _csv(rows)}
    if target is not None:
        trends = {
            "columns": list(table.column_labels),
            "trends": list(table.trends),
            "target_values": table.target_values,
        }
        files[out.with_name(out.stem + "_trends.json")] = dumps(trends) + "\n"
    return None, files, list(paths) + ([args.target] if args.target else [])


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The `mmm` parser, built once per process.

    Every call returns the same parser: no argument has a mutable default,
    and ``set_defaults(func=_cmd_*)`` binds the command functions as they
    are when it is first built.
    """
    parser = argparse.ArgumentParser(
        prog="mmm",
        description="Finite metric measure spaces with marks: sampling laws, "
        "polynomials, Prohorov machinery, and diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p, help="default: MMM_SEED env var, else 0"):
        p.add_argument("--seed", type=int, default=None, help=help)

    p = sub.add_parser("validate", help="check the metric-measure axioms")
    p.add_argument("--space", required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("sample", help="draw distance-matrix samples")
    p.add_argument("--space", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out")
    add_seed(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("poly-eval", help="evaluate the polynomial panel")
    p.add_argument("--space", required=True)
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--size", type=int, default=8)
    p.add_argument("--mc", type=int, default=10000)
    p.add_argument("--out")
    add_seed(p)
    p.set_defaults(func=_cmd_poly_eval)

    p = sub.add_parser("prohorov", help="Prohorov distance on a shared metric")
    p.add_argument("--metric", required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_prohorov)

    p = sub.add_parser("dist", help="marked Gromov-Prohorov bounds")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--exact", action="store_true", help="exact value by the relation scan "
                   f"(at most {EXACT_PAIR_BOUND} pairs of mark distance below 1)")
    p.add_argument("--budget", type=int, help="search nodes the --exact scan may visit "
                   f"(default {SCAN_BUDGET}); past them it gives a bracket; --exact only")
    p.add_argument("--out")
    add_seed(p, help="no effect on dist; accepted so that older manifests replay")
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("tightness", help="family tightness diagnostics")
    p.add_argument("--spaces", required=True, help="directory of space JSON")
    p.add_argument("--eps", required=True, help="comma-separated radii")
    p.add_argument("--delta", required=True, help="comma-separated masses")
    p.add_argument("--tail", default=None, help="r12 thresholds (default: eps)")
    p.add_argument("--mark-labels", default=None)
    p.add_argument("--mark-radii", default=None)
    p.add_argument("--threshold", type=float, default=0.05)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_tightness)

    p = sub.add_parser("simulate", help="generate a random space")
    p.add_argument("--model", required=True, choices=["kingman", "moran", "cloud"])
    p.add_argument("--params", default=None, help="JSON file of model parameters")
    p.add_argument("--out", required=True)
    add_seed(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("test", help="two-sample equality test")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--m", type=int, default=400)
    p.add_argument("--perms", type=int, default=199)
    p.add_argument("--out")
    add_seed(p)
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("converge", help="panel table along a sequence")
    p.add_argument("--seq", required=True, help="directory of space JSON")
    p.add_argument("--target", default=None)
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--size", type=int, default=8)
    p.add_argument("--mc", type=int, default=2000)
    p.add_argument("--out", required=True)
    add_seed(p)
    p.set_defaults(func=_cmd_converge)

    return parser


def run(argv=None) -> int:
    """Parse and run one subcommand, then print its text, write its files
    and their one manifest; returns the process exit code.  An output that
    resolves to an input is a ParameterError, before anything is written."""
    if argv is None:
        argv = sys.argv[1:]
    argv = [str(t) for t in argv]
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if hasattr(args, "seed"):
            args.seed = _resolve_seed(args)
        text, files, inputs = args.func(args)
        clash = {Path(p).resolve() for p in files} & {Path(p).resolve() for p in inputs}
        if clash:
            raise ParameterError(f"output {min(clash)} would overwrite an input")
        if text is not None:
            print(text, end="")
        for path, content in files.items():
            _write_text(Path(path), content)
        if files:
            _write_manifest(args, argv, inputs, list(files))
        return 0
    except DomainError as exc:
        print(dumps(exc.payload()), file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(dumps({"error": TooLargeError.kind, "detail": f"MemoryError: {exc}"}),
              file=sys.stderr)
        return 1
    except (json.JSONDecodeError, OSError, KeyError, TypeError, ValueError) as exc:
        print(dumps({"error": "bad-input", "detail": f"{type(exc).__name__}: {exc}"}),
              file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
