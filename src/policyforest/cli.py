"""Command-line entry point: dataset validation, experiments, reports.

Every command is deterministic given its flags and input files; output
files carry a provenance header (tool version, argv, seed) and contain no
timestamps, so identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, is_dataclass
from functools import partial
from pathlib import Path

from . import PolicyforestError, __version__
from .dataset import (CUTOFF_YEAR, IG_NAMES, MODEL_KINDS, PA_LABELS, PA_TO_PD,
                      PD_LABELS, REGIMES, TRAIN_FRACTION, DatasetError,
                      FeatureSetSpec, canonical_header, domain_counts,
                      load_cases, parse_name_map)

# The experiments, forest, logistic and metrics modules are imported by the
# commands that run them: schema, validate and summarize load none of them.


def _save(args: argparse.Namespace, argv: list[str], name: str,
          report) -> None:
    """Write report to the file name under --out, if there is one: the
    provenance lines (tool version, argv, seed), then a list as CSV lines,
    or a dict or dataclass as sorted, indented JSON."""
    if not args.out:
        return
    if not isinstance(report, list):
        report = [json.dumps(asdict(report) if is_dataclass(report)
                             else report, sort_keys=True, indent=2)]
    path = Path(args.out) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(f"# policyforest {__version__}\n"
                    f"# argv: {' '.join(argv)}\n"
                    f"# seed: {args.seed}\n" + "\n".join(report) + "\n",
                    encoding="utf-8")
    print(f"wrote {path}")


def _read(path: str, parse, error=DatasetError):
    """parse(fh) of the file at path, read as UTF-8 with or without a BOM.
    A byte that is not UTF-8, or JSON that does not parse, is an error
    naming the file and the line of the fault."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return parse(fh)
    except json.JSONDecodeError as e:
        raise error(f"{path}: line {e.lineno} column {e.colno}: invalid "
                    f"JSON: {e.msg}") from None
    except UnicodeDecodeError:
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as e:
            line = data.count(b"\n", 0, e.start) + 1
            raise error(f"{path}: line {line}: byte "
                        f"0x{data[e.start]:02x} is not UTF-8") from None
        raise


def _load(args: argparse.Namespace):
    name_map = _read(args.map, parse_name_map) if args.map else None
    return _read(args.data, partial(load_cases, name_map=name_map))


def _forest_config(args: argparse.Namespace):
    # Every command that uses --jobs checks its count flags, by flag name,
    # and builds its forest config here, after any config-file override
    # and before the data loads. Each experiment seeds every forest from
    # --seed and the forest's run.
    from .experiments import check_k, check_positive
    from .forest import ForestConfig
    for flag in ("--jobs", "--runs", "--selection-splits", "--min-test-cases",
                 "--top", "--trees", "--min-leaf", "--max-depth"):
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None:
            check_positive(flag, value)
    if getattr(args, "k", None) is not None:
        check_k("--k", args.k)
    return ForestConfig(
        n_trees=args.trees,
        max_depth=args.max_depth,
        min_samples_leaf=args.min_leaf,
        bootstrap=not args.no_bootstrap,
    )


def _fmt(v: float) -> str:
    return f"{v:.1f}"


# ---------------------------------------------------------------------------
# Commands


def cmd_schema(args, argv) -> int:
    print(",".join(canonical_header()))
    print()
    print("Interest-group columns (ordinal -2..2):")
    for name in IG_NAMES:
        print(f"  {name}")
    print()
    print("Policy areas (policy_area column) and their domains:")
    for pa in PA_LABELS:
        print(f"  {pa} -> {PA_TO_PD[pa]}")
    print()
    print(f"Policy domains: {', '.join(PD_LABELS)}")
    return 0


def cmd_validate(args, argv) -> int:
    cases = _load(args)
    n_missing_p90 = sum(1 for c in cases if c.p90 is None)
    print(f"{args.data}: {len(cases)} valid cases "
          f"({n_missing_p90} missing p90)")
    return 0


def cmd_summarize(args, argv) -> int:
    cases = _load(args)
    rows = domain_counts(cases)
    post = f">={CUTOFF_YEAR % 100}"
    print(f"{'Domain':<16}{'Pos':>8}{'Neg':>8}{'%Pos':>8}"
          f"{'Pos' + post:>10}{'Neg' + post:>10}{'%Pos' + post:>10}")
    lines = [f"domain,pos,neg,pos_fraction,pos_post_{CUTOFF_YEAR},"
             f"neg_post_{CUTOFF_YEAR},pos_fraction_post_{CUTOFF_YEAR}"]
    for r in rows:
        print(f"{r.domain:<16}{r.pos:>8}{r.neg:>8}"
              f"{100 * r.pos_fraction:>7.0f}%{r.pos_post_cutoff:>10}"
              f"{r.neg_post_cutoff:>10}"
              f"{100 * r.pos_fraction_post_cutoff:>9.0f}%")
        lines.append(f"{r.domain},{r.pos},{r.neg},{r.pos_fraction!r},"
                     f"{r.pos_post_cutoff},{r.neg_post_cutoff},"
                     f"{r.pos_fraction_post_cutoff!r}")
    _save(args, argv, "summary_counts.csv", lines)
    return 0


def _resolve_spec(args, cases, fc):
    """The spec of --set, or for Set C the function that derives it."""
    if args.set == "A":
        return FeatureSetSpec.set_a()
    if args.set == "B":
        return FeatureSetSpec.set_b()
    if args.set == "D":
        return FeatureSetSpec.set_d()
    # Set C is derived from the data (top-14 IGs by averaged Gini score),
    # once the evaluation runs are checked.
    from . import experiments as ex
    return partial(ex.build_set_c, cases, k=14, base_seed=args.seed,
                   n_splits=args.selection_splits, forest_config=fc,
                   n_jobs=args.jobs)


def _config_value(key: str, val, action: argparse.Action):
    """val as the flag behind action would take it, or an error naming
    the key: store-true flags take booleans, others a JSON value of the
    flag's type (null where the flag defaults to unset) in its choices."""
    if action.nargs == 0:
        ok = isinstance(val, bool)
    elif val is None:
        ok = action.default is None
    else:
        # A float flag also takes a JSON integer; bool is an int to
        # Python but no flag's number.
        kinds = (int, float) if action.type is float else action.type or str
        ok = (isinstance(val, kinds) and not isinstance(val, bool)
              and (action.choices is None or val in action.choices))
    if not ok:
        from .experiments import ExperimentError
        raise ExperimentError(f"config key {key!r}: {val!r} is not a "
                              f"valid {action.option_strings[0]} value")
    return float(val) if action.type is float else val


def cmd_eval(parser, args, argv) -> int:
    from . import experiments as ex
    if args.config:
        cfg = _read(args.config, json.load, ex.ExperimentError)
        if not isinstance(cfg, dict):
            raise ex.ExperimentError(f"{args.config}: a config file holds "
                                     f"a JSON object, not a "
                                     f"{type(cfg).__name__}")
        flags = {a.dest: a for a in parser._actions
                 if a.dest not in ("help", "config")}
        for key, val in cfg.items():
            action = flags.get(key.replace("-", "_"))
            if action is None:
                raise ex.ExperimentError(f"unknown config key {key!r}")
            setattr(args, action.dest, _config_value(key, val, action))
    if not args.data:
        raise DatasetError("--data (or a config file with a data entry) is "
                           "required")
    ex.check_regime_settings(args.regime, args.model, args.runs,
                             args.train_fraction,
                             ("--runs", "--train-fraction"))
    fc = _forest_config(args)
    cases = _load(args)
    report = ex.run_feature_set_eval(
        cases, _resolve_spec(args, cases, fc), args.regime,
        model_kind=args.model, n_runs=args.runs, base_seed=args.seed,
        forest_config=fc, train_fraction=args.train_fraction,
        n_jobs=args.jobs)
    set_id = report.feature_set_id
    ba, bs = 100 * report.balanced_accuracy_mean, \
        100 * report.balanced_accuracy_std
    am, as_ = 100 * report.auc_mean, 100 * report.auc_std
    print(f"Set {report.feature_set_id} [{report.model_kind}, "
          f"{report.regime}]: balAcc {_fmt(ba)} +/- {_fmt(bs)} %, "
          f"AUC {_fmt(am)} +/- {_fmt(as_)} % "
          f"({len(report.runs)} runs)")
    name = f"eval_{set_id}_{args.regime}_{args.model}"
    _save(args, argv, f"{name}.json", report)
    _save(args, argv, f"{name}.csv", [
        "feature_set,regime,model,bal_acc_mean,bal_acc_std,"
        "auc_mean,auc_std,n_runs",
        f"{set_id},{args.regime},{args.model},{_fmt(ba)},{_fmt(bs)},"
        f"{_fmt(am)},{_fmt(as_)},{len(report.runs)}"])
    return 0


def cmd_rank(args, argv) -> int:
    from . import experiments as ex
    fc = _forest_config(args)
    cases = _load(args)
    ranked = ex.rank_igs_by_domain(
        cases, (args.domain,) if args.domain else PD_LABELS,
        n_splits=args.runs, base_seed=args.seed, forest_config=fc,
        n_jobs=args.jobs)
    for domain, rows in ranked.items():
        shown = [r for r in rows if r.rf_score_mean > 0][:args.top]
        print(f"\n{domain} (top {len(shown)}, scores x100):")
        print(f"{'feature':<42}{'RF score':>12}{'corr':>12}{'at-bats':>12}")
        lines = ["feature,rf_score_mean,rf_score_std,correlation_mean,"
                 "correlation_std,at_bats_mean,at_bats_std"]
        for r in rows:
            corr = ("," if r.correlation_mean is None
                    else f"{100 * r.correlation_mean:.0f},"
                         f"{100 * r.correlation_std:.0f}")
            lines.append(f"{r.feature},{100 * r.rf_score_mean!r},"
                         f"{100 * r.rf_score_std!r},{corr},"
                         f"{r.at_bats_mean!r},{r.at_bats_std!r}")
        for r in shown:
            corr = ("n/a" if r.correlation_mean is None
                    else f"{100 * r.correlation_mean:.0f} +/- "
                         f"{100 * r.correlation_std:.0f}")
            print(f"{r.feature:<42}"
                  f"{100 * r.rf_score_mean:>7.0f} +/- "
                  f"{100 * r.rf_score_std:.0f}"
                  f"{corr:>14}"
                  f"{r.at_bats_mean:>7.0f} +/- {r.at_bats_std:.0f}")
        slug = domain.lower().replace(" ", "_")
        _save(args, argv, f"ranking_{slug}.csv", lines)
    return 0


def cmd_set_c(args, argv) -> int:
    from . import experiments as ex
    fc = _forest_config(args)
    cases = _load(args)
    spec = ex.build_set_c(cases, k=args.k, base_seed=args.seed,
                          n_splits=args.runs, forest_config=fc,
                          n_jobs=args.jobs)
    print(f"Top {args.k} IGs by averaged Gini importance:")
    for name in spec.ig_subset:
        print(f"  {name}")
    _save(args, argv, "set_c.json",
          {"k": args.k, "ig_subset": list(spec.ig_subset),
           "feature_set_id": spec.id})
    return 0


def cmd_gains(args, argv) -> int:
    from . import experiments as ex
    fc = _forest_config(args)
    cases = _load(args)
    report = ex.gain_per_ig(cases, n_runs=args.runs,
                            base_seed=args.seed,
                            min_test_cases=args.min_test_cases,
                            forest_config=fc, n_jobs=args.jobs)
    print(f"{'IG':<42}{'gain':>10}{'std':>10}{'cases':>10}")
    lines = ["ig,gain_mean,gain_std,mean_test_cases"]
    for r in report.rows:
        print(f"{r.ig:<42}{100 * r.gain_mean:>9.1f}%"
              f"{100 * r.gain_std:>9.1f}%{r.mean_test_cases:>10.0f}")
        lines.append(f"{r.ig},{r.gain_mean!r},{r.gain_std!r},"
                     f"{r.mean_test_cases!r}")
    if report.excluded:
        print(f"below {args.min_test_cases}-case threshold: "
              f"{', '.join(report.excluded)}")
    _save(args, argv, "ig_gains.csv", lines)
    _save(args, argv, "ig_gains.json", report)
    return 0


def cmd_compare_selectors(args, argv) -> int:
    from . import experiments as ex
    fc = _forest_config(args)
    cases = _load(args)
    comp = ex.compare_selectors(cases, k=args.k, n_splits=args.runs,
                                base_seed=args.seed, forest_config=fc,
                                n_jobs=args.jobs)
    print("RF-chosen IGs:      " + ", ".join(comp.rf_chosen))
    print("Logistic-chosen IGs: " + ", ".join(comp.logistic_chosen))
    print(f"\n{'model':<10}{'selector':<16}{'regime':<14}"
          f"{'balAcc':>16}{'AUC':>16}")
    for c in comp.cells:
        print(f"{c.model_kind:<10}{c.selector:<16}{c.regime:<14}"
              f"{_fmt(100 * c.balanced_accuracy_mean):>9} +/- "
              f"{_fmt(100 * c.balanced_accuracy_std)}"
              f"{_fmt(100 * c.auc_mean):>9} +/- {_fmt(100 * c.auc_std)}")
    print()
    for g in comp.gains:
        print(f"gain [{g.model_kind}, {g.regime}]: "
              f"balAcc {_fmt(100 * g.balanced_accuracy_gain_mean)} +/- "
              f"{_fmt(100 * g.balanced_accuracy_gain_std)}, "
              f"AUC {_fmt(100 * g.auc_gain_mean)} +/- "
              f"{_fmt(100 * g.auc_gain_std)}")
    _save(args, argv, "selector_comparison.json", comp)
    return 0


def cmd_case_study(args, argv) -> int:
    from . import experiments as ex
    fc = _forest_config(args)
    cases = _load(args)
    report = ex.nonlinearity_case_study(cases, pivot_ig=args.pivot,
                                        domain=args.domain,
                                        base_seed=args.seed,
                                        forest_config=fc, n_jobs=args.jobs)
    print(f"{report.domain} cases with non-neutral {report.pivot_ig}: "
          f"{len(report.points)}")
    for region, counts in report.region_counts.items():
        print(f"  {region}: {counts['pos']} pos / {counts['neg']} neg")
    print(f"forest balanced accuracy:   "
          f"{100 * report.forest_balanced_accuracy:.1f}%")
    print(f"logistic balanced accuracy: "
          f"{100 * report.logistic_balanced_accuracy:.1f}%")
    _save(args, argv, "case_study_points.csv", [
        "case_id,p90,pivot_alignment,outcome,forest_proba,forest_pred,"
        "logistic_proba,logistic_pred",
        *(f"{p.case_id},{p.p90!r},{p.pivot_alignment},{p.outcome},"
          f"{p.forest_proba!r},{p.forest_pred},{p.logistic_proba!r},"
          f"{p.logistic_pred}" for p in report.points)])
    _save(args, argv, "case_study.json", report)
    return 0


# ---------------------------------------------------------------------------
# Parser


def _add_common(p: argparse.ArgumentParser, data_required=True,
                output=True, forest=True) -> None:
    """The flags a command reads: its input, then with output its seed
    and report directory, then with forest the forest and worker flags."""
    p.add_argument("--data", required=data_required, help="canonical CSV file")
    p.add_argument("--map", help="source=canonical column name-mapping file")
    if not output:
        return
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output directory")
    if not forest:
        return
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the seeded runs (or, for "
                        "a single forest, its trees); capped at the cores "
                        "this process may run on")
    p.add_argument("--trees", type=int, default=500)
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--min-leaf", type=int, default=1)
    p.add_argument("--no-bootstrap", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="policyforest",
        description="Policy-outcome prediction toolkit (random forests and "
                    "logistic regression over policy-case tables)")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("schema", help="print the canonical CSV schema") \
        .set_defaults(func=cmd_schema)

    p = sub.add_parser("validate", help="validate a dataset file")
    _add_common(p, output=False, forest=False)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("summarize", help="per-domain outcome counts")
    _add_common(p, forest=False)
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("eval", help="evaluate a feature set")
    _add_common(p, data_required=False)
    p.add_argument("--config", help="JSON experiment configuration file")
    p.add_argument("--set", choices=["A", "B", "C", "D"], default="D")
    p.add_argument("--regime", choices=list(REGIMES),
                   default="random_draw")
    p.add_argument("--model", choices=list(MODEL_KINDS), default="forest")
    p.add_argument("--runs", type=int, default=None)
    p.add_argument("--train-fraction", type=float, default=None,
                   help=f"train share of eval's own random draws (default "
                        f"{TRAIN_FRACTION}); Set C selection keeps the "
                        f"default, and retrodiction takes none")
    p.add_argument("--selection-splits", type=int, default=21,
                   help="splits used to derive Set C membership")
    p.set_defaults(func=partial(cmd_eval, p))

    p = sub.add_parser("rank", help="rank IGs by Gini importance per domain")
    _add_common(p)
    p.add_argument("--domain", choices=list(PD_LABELS))
    p.add_argument("--runs", type=int, default=21)
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("set-c", help="derive the reduced IG subset")
    _add_common(p)
    p.add_argument("--k", type=int, default=14)
    p.add_argument("--runs", type=int, default=21)
    p.set_defaults(func=cmd_set_c)

    p = sub.add_parser("gains", help="per-IG accuracy gain, Set B vs Set A")
    _add_common(p)
    p.add_argument("--runs", type=int, default=25)
    p.add_argument("--min-test-cases", type=int, default=20)
    p.set_defaults(func=cmd_gains)

    p = sub.add_parser("compare-selectors",
                       help="forest-chosen vs logistic-chosen IG subsets")
    _add_common(p)
    p.add_argument("--k", type=int, default=14)
    p.add_argument("--runs", type=int, default=21)
    p.set_defaults(func=cmd_compare_selectors)

    p = sub.add_parser("case-study",
                       help="nonlinearity case study on a pivot IG")
    _add_common(p)
    p.add_argument("--pivot", default="Defense Contractors",
                   choices=IG_NAMES, metavar="IG",
                   help="interest group, as the schema command lists it")
    p.add_argument("--domain", choices=list(PD_LABELS), default="Foreign")
    p.set_defaults(func=cmd_case_study)

    return parser


def main(argv: list[str] | None = None) -> int:
    # NumPy's BLAS runs on one thread, so --jobs is the only parallelism,
    # unless the user has set one of these; workers inherit them. No
    # command has loaded NumPy yet, and BLAS reads them when it loads.
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    if not any(name in os.environ for name in blas):
        os.environ.update(dict.fromkeys(blas, "1"))
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except (PolicyforestError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
