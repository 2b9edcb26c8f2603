"""Command line front end: generate, label, compare, oracle.

Exit codes: 0 success, 2 usage errors, 3 unreadable or malformed files,
4 estimator or model failures. All outputs are deterministic given the
flags and seeds, byte for byte.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from .baselines import AnnealSchedule, MpmParams, anneal_run, icm_run, mpm_run, tlr
from .core import energy
from .edges import (EdgeModel, EdgePotentials, LABEL_LETTERS, build_edge_field,
                    compute_llr, llr_data_term, make_chain_fixture,
                    make_checkerboard, render_overlay)
from .fileio import (FileFormatError, _fmt, parse_config, read_mrfl, read_mrfllr,
                     read_pgm, write_compare_csv, write_mrfl, write_pgm,
                     write_trace_csv)
from .hcf import hcf_run
from .local_hcf import assign_ranks, local_hcf_run
from .oracles import brute_force_map, chain_dp_map, is_local_minimum
from .trace import TraceRow

ESTIMATORS = ("tlr", "annealing", "mpm", "icm-scan", "icm-random", "hcf", "local-hcf")
STOCHASTIC = frozenset({"annealing", "mpm", "icm-random"})
RANK_MODES = ("site-index", "seeded-permutation")


class UsageError(Exception):
    """Raised for flag combinations argparse cannot catch on its own."""


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        seeds = tuple(int(p) for p in text.split(",") if p.strip() != "")
    except ValueError:
        raise ValueError(f"seeds must be a comma-separated integer list, got {text!r}")
    if not seeds:
        raise ValueError("seed list is empty")
    return seeds


@dataclass(frozen=True)
class RunConfig:
    """Resolved run settings: defaults, overridden by file, overridden by flags."""
    estimator: str = "local-hcf"
    mu_e: float = 128.0
    sigma: float = 8.0
    continuity: float = -0.5
    turn: float = 0.3
    parallel: float = 0.3
    edge_prior: float = 0.4
    t0: float = 2.0
    alpha: float = 0.95
    sweeps: int = 100
    burn_in: int = 20
    samples: int = 100
    seed: int = 0
    seeds: tuple[int, ...] = (1, 2, 3)
    rank_mode: str = "site-index"
    rank_seed: int | None = None
    threads: int = 1
    max_iterations: int | None = None


CONFIG_SCHEMA = {
    "estimator": str,
    "mu_e": float,
    "sigma": float,
    "continuity": float,
    "turn": float,
    "parallel": float,
    "edge_prior": float,
    "t0": float,
    "alpha": float,
    "sweeps": int,
    "burn_in": int,
    "samples": int,
    "seed": int,
    "seeds": _parse_seeds,
    "rank_mode": str,
    "rank_seed": int,
    "threads": int,
    "max_iterations": int,
}


def resolve_run_config(args) -> RunConfig:
    """Merge defaults, config-file values, and explicit flags (flags win)."""
    file_values = {}
    if getattr(args, "config", None):
        file_values = parse_config(args.config, CONFIG_SCHEMA)
    cfg = RunConfig()
    for key in CONFIG_SCHEMA:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg = replace(cfg, **{key: flag})
        elif key in file_values:
            cfg = replace(cfg, **{key: file_values[key]})
    if cfg.estimator not in ESTIMATORS:
        raise UsageError(f"unknown estimator {cfg.estimator!r}; "
                         f"choose from {', '.join(ESTIMATORS)}")
    if cfg.rank_mode not in RANK_MODES:
        raise UsageError(f"unknown rank mode {cfg.rank_mode!r}; "
                         f"choose from {', '.join(RANK_MODES)}")
    if cfg.rank_mode == "seeded-permutation" and cfg.rank_seed is None:
        raise UsageError("rank mode seeded-permutation needs --rank-seed")
    if cfg.threads < 1:
        raise UsageError("threads must be at least 1")
    return cfg


def load_problem(args, cfg: RunConfig):
    """(field, data, image or None, lattice dims or None) from the input flags."""
    picked = [bool(args.chain_fixture), args.image is not None, args.llr is not None]
    if sum(picked) != 1:
        raise UsageError("choose exactly one input: --in, --llr, or --chain-fixture")
    if args.chain_fixture:
        field, data = make_chain_fixture()
        return field, data, None, None
    potentials = EdgePotentials(cfg.continuity, cfg.turn, cfg.parallel, cfg.edge_prior)
    if args.image is not None:
        image = read_pgm(args.image)
        if image.width < 2 or image.height < 2:
            raise FileFormatError(f"{args.image}: image must be at least 2x2 "
                                  "for edge labeling")
        field = build_edge_field(image.width, image.height, potentials)
        data = compute_llr(image, EdgeModel(cfg.mu_e, cfg.sigma))
        return field, data, image, (image.width, image.height)
    width, height, llr = read_mrfllr(args.llr)
    field = build_edge_field(width, height, potentials)
    return field, llr_data_term(llr), None, (width, height)


def run_estimator(name: str, field, data, cfg: RunConfig, seed: int | None = None):
    """Run one estimator; returns (configuration, trace rows, iteration count)."""
    if name == "tlr":
        out = tlr(field, data)
        rows = (TraceRow(0, energy(field, data, out), field.num_sites, 0),)
        return out, rows, 0
    if name == "hcf":
        out, trace = hcf_run(field, data,
                             ranks=assign_ranks(field, cfg.rank_mode, cfg.rank_seed))
        rows = [TraceRow(0, 0.0, 0, 0)]
        rows.extend(TraceRow(st.step + 1, st.energy_after, st.committed_after, 1)
                    for st in trace.steps)
        return out, tuple(rows), len(trace.steps)
    if name == "local-hcf":
        ranks = assign_ranks(field, cfg.rank_mode, cfg.rank_seed)
        out, trace = local_hcf_run(field, data, ranks=ranks,
                                   max_iterations=cfg.max_iterations,
                                   threads=cfg.threads)
        return out, trace.rows, trace.iterations
    init = tlr(field, data)
    if name == "icm-scan":
        out, trace = icm_run(field, data, init, order="scan")
    elif name == "icm-random":
        out, trace = icm_run(field, data, init, order="random",
                             seed=cfg.seed if seed is None else seed)
    elif name == "annealing":
        schedule = AnnealSchedule(cfg.t0, cfg.alpha, cfg.sweeps)
        out, trace = anneal_run(field, data, init, schedule,
                                cfg.seed if seed is None else seed)
    elif name == "mpm":
        params = MpmParams(cfg.burn_in, cfg.samples, cfg.seed if seed is None else seed)
        out, trace = mpm_run(field, data, init, params)
    else:
        raise UsageError(f"unknown estimator {name!r}")
    return out, trace.rows, trace.iterations


def _letters(config) -> str:
    return " ".join(LABEL_LETTERS[int(l)] for l in config)


def cmd_generate(args) -> int:
    parts = args.checker.lower().split("x")
    if len(parts) != 2 or not all(p.isdigit() for p in parts):
        raise UsageError(f"--checker wants WIDTHxHEIGHT, got {args.checker!r}")
    width, height = int(parts[0]), int(parts[1])
    if width < 1 or height < 1:
        raise UsageError("checkerboard dimensions must be positive")
    if args.square < 1:
        raise UsageError("--square must be a positive integer")
    if not 0 <= args.low < args.high <= 255:
        raise UsageError("--low and --high must satisfy 0 <= low < high <= 255")
    if args.noise_sigma < 0:
        raise UsageError("--noise-sigma must be non-negative")
    image = make_checkerboard(width, height, args.square, args.low, args.high,
                              args.noise_sigma, args.seed)
    write_pgm(args.output, image)
    print(f"wrote {args.output}")
    return 0


def cmd_label(args) -> int:
    cfg = resolve_run_config(args)
    field, data, image, dims = load_problem(args, cfg)
    out, rows, iterations = run_estimator(cfg.estimator, field, data, cfg)
    if args.chain_fixture:
        print(f"labeling: {_letters(out)}")
    print(f"sites: {field.num_sites}")
    print(f"energy: {_fmt(energy(field, data, out))}")
    print(f"iterations: {iterations}")
    if args.output is not None:
        outdir = Path(args.output)
        outdir.mkdir(parents=True, exist_ok=True)
        width, height = dims if dims is not None else (0, 0)
        labels_path = outdir / "labels.mrfl"
        write_mrfl(labels_path, out, width, height)
        print(f"wrote {labels_path}")
        trace_path = outdir / "trace.csv"
        write_trace_csv(trace_path, rows)
        print(f"wrote {trace_path}")
        if image is not None:
            overlay_path = outdir / "overlay.pgm"
            write_pgm(overlay_path, render_overlay(image, out))
            print(f"wrote {overlay_path}")
    return 0


def cmd_compare(args) -> int:
    cfg = resolve_run_config(args)
    field, data, _image, _dims = load_problem(args, cfg)
    table = []
    for name in ESTIMATORS:
        seeds = cfg.seeds if name in STOCHASTIC else (None,)
        finals = []
        iteration_counts = []
        for sd in seeds:
            try:
                out, _rows, iterations = run_estimator(name, field, data, cfg, seed=sd)
            except (ValueError, RuntimeError) as exc:
                raise RuntimeError(f"estimator {name} failed: {exc}") from exc
            finals.append(energy(field, data, out))
            iteration_counts.append(iterations)
        mean = sum(finals) / len(finals)
        iters_mean = sum(iteration_counts) / len(iteration_counts)
        table.append((name, mean, min(finals), len(finals), iters_mean))
        print(f"{name}: mean {_fmt(mean)}, best {_fmt(min(finals))}, "
              f"runs {len(finals)}")
    write_compare_csv(args.output, table)
    print(f"wrote {args.output}")
    return 0


def cmd_oracle(args) -> int:
    cfg = resolve_run_config(args)
    field, data, _image, _dims = load_problem(args, cfg)
    try:
        result = chain_dp_map(field, data)
        method = "chain-dp"
    except ValueError:
        result = brute_force_map(field, data)
        method = "brute-force"
    print(f"method: {method}")
    if field.num_labels == 2:
        print(f"optimum: {_letters(result.config)}")
    else:
        print("optimum: " + " ".join(str(int(l)) for l in result.config))
    print(f"energy: {_fmt(result.energy)}")
    print(f"ties: {result.optimal_count}")
    if args.verify is not None:
        _w, _h, labels = read_mrfl(args.verify)
        if labels.size != field.num_sites:
            raise FileFormatError(f"{args.verify}: {labels.size} labels for "
                                  f"{field.num_sites} sites")
        if (labels >= field.num_labels).any():
            raise FileFormatError(f"{args.verify}: label out of range")
        verify_energy = energy(field, data, labels)
        print(f"verify_energy: {_fmt(verify_energy)}")
        minimum = is_local_minimum(field, data, labels)
        print(f"local_minimum: {'true' if minimum else 'false'}")
        print(f"gap: {_fmt(verify_energy - result.energy)}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrfhcf",
        description="MAP labeling on Markov random fields by highest "
                    "confidence first and reference estimators.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic checkerboard PGM")
    gen.add_argument("--checker", default="50x50", metavar="WxH",
                     help="image dimensions (default 50x50)")
    gen.add_argument("--square", type=int, default=10, help="square side in pixels")
    gen.add_argument("--low", type=int, default=64, help="dark intensity")
    gen.add_argument("--high", type=int, default=192, help="bright intensity")
    gen.add_argument("--noise-sigma", dest="noise_sigma", type=float, default=8.0,
                     help="Gaussian noise standard deviation")
    gen.add_argument("--seed", type=int, default=1, help="noise seed")
    gen.add_argument("-o", "--output", required=True, help="output PGM path")
    gen.set_defaults(func=cmd_generate)

    common = argparse.ArgumentParser(add_help=False)
    inputs = common.add_argument_group("input (choose one)")
    inputs.add_argument("--in", dest="image", metavar="PGM", help="input image")
    inputs.add_argument("--llr", metavar="MRFLLR", help="precomputed likelihood file")
    inputs.add_argument("--chain-fixture", dest="chain_fixture", action="store_true",
                        help="use the built-in 8-site chain")
    common.add_argument("--config", metavar="FILE",
                        help="key = value settings file; flags override it")
    params = common.add_argument_group("model and estimator settings")
    params.add_argument("--estimator", choices=ESTIMATORS)
    params.add_argument("--mu-e", dest="mu_e", type=float,
                        help="expected intensity step at a true edge")
    params.add_argument("--sigma", type=float, help="assumed pixel noise")
    params.add_argument("--continuity", type=float)
    params.add_argument("--turn", type=float)
    params.add_argument("--parallel", type=float)
    params.add_argument("--edge-prior", dest="edge_prior", type=float)
    params.add_argument("--t0", type=float, help="annealing start temperature")
    params.add_argument("--alpha", type=float, help="annealing cooling factor")
    params.add_argument("--sweeps", type=int, help="annealing sweep count")
    params.add_argument("--burn-in", dest="burn_in", type=int,
                        help="marginal-sampling burn-in sweeps")
    params.add_argument("--samples", type=int, help="marginal-sampling sweeps")
    params.add_argument("--seed", type=int, help="seed for single stochastic runs")
    params.add_argument("--seeds", type=_parse_seeds,
                        help="comma-separated seeds for comparison runs")
    params.add_argument("--ranks", dest="rank_mode", choices=RANK_MODES,
                        help="tie-break rank assignment")
    params.add_argument("--rank-seed", dest="rank_seed", type=int)
    params.add_argument("--threads", type=int,
                        help="accepted for local-hcf; has no effect on results")
    params.add_argument("--max-iterations", dest="max_iterations", type=int)

    lab = sub.add_parser("label", parents=[common],
                         help="run one estimator and write its labeling")
    lab.add_argument("-o", "--output", metavar="DIR",
                     help="directory for labels.mrfl, trace.csv, overlay.pgm")
    lab.set_defaults(func=cmd_label)

    cmp_ = sub.add_parser("compare", parents=[common],
                          help="run every estimator and tabulate energies")
    cmp_.add_argument("-o", "--output", required=True, metavar="CSV",
                      help="output table path")
    cmp_.set_defaults(func=cmd_compare)

    orc = sub.add_parser("oracle", parents=[common],
                         help="exact optimum on small or chain instances")
    orc.add_argument("--verify", metavar="MRFL",
                     help="labeling to check against the optimum")
    orc.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
