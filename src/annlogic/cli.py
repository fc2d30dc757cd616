"""Command-line pipeline: train, partition, explain, shapley, project,
hypothesis, trend, classify.  Inputs are CSV datasets with a header row
and a designated binary label column; models are JSON files."""

from __future__ import annotations

import argparse
import csv
import sys
import warnings
from itertools import compress, product
from pathlib import Path

import numpy as np

from . import analysis, logiccode, network, partition, qldt
from .encoding import MAX_ATTRIBUTES, fit_fuzzifier, fuzzify, minterm_transform


class CliError(Exception):
    pass


def load_dataset(path, label_column):
    """Read a CSV with a header row; returns (attribute names, X, y): the
    (N, n) float attribute values and the (N,) 0/1 int labels.  Rows are
    numbered as in the file, the header being row 1; blank rows are
    skipped.  The csv reader parses every unquoted field as a number."""
    p = Path(path)
    if not p.exists():
        raise CliError(f"dataset file not found: {path}")
    with open(p, newline="") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise CliError(f"dataset file is empty: {path}") from None
        except csv.Error as exc:  # a field over csv.field_size_limit()
            raise CliError(f"row 1: {exc}") from None
        if label_column not in header:
            raise CliError(f"label column {label_column!r} not in header {header}")
        if len(header) - 1 > MAX_ATTRIBUTES:
            raise CliError(
                f"{len(header) - 1} attributes exceed the maximum of {MAX_ATTRIBUTES}"
            )
        reader = csv.reader(fh, quoting=csv.QUOTE_NONNUMERIC)
        try:
            records = list(reader)
        except (ValueError, csv.Error) as exc:
            raise CliError(f"row {reader.line_num + 1}: {exc}") from None
    width = np.fromiter(map(len, records), dtype=np.intp, count=len(records))
    filled = width > 0
    row_no = np.flatnonzero(filled) + 2  # file row of each non-blank record
    _reject_rows(width[filled] != len(header), row_no,
                 f"has a column count other than the header's {len(header)}")
    records = list(compress(records, filled))
    try:
        table = np.array(records, dtype=float)
    except ValueError:
        # a quoted or empty field that the reader kept as text: name its row
        for no, record in zip(row_no, records):
            try:
                np.array(record, dtype=float)
            except ValueError as exc:
                raise CliError(f"row {no}: {exc}") from None
        raise
    table = table.reshape(-1, len(header))
    _reject_rows(~np.isfinite(table).all(axis=1), row_no, "holds a value that is not finite")
    label_idx = header.index(label_column)
    labels = table[:, label_idx]
    _reject_rows(~np.isin(labels, (0.0, 1.0)), row_no, "has a label other than 0 or 1")
    names = header[:label_idx] + header[label_idx + 1:]
    return names, np.delete(table, label_idx, axis=1), labels.astype(int)


def _reject_rows(bad, row_no, what):
    if bad.any():
        raise CliError(f"row {row_no[np.argmax(bad)]} {what}")


def load_weights_file(path):
    """One weight per line, or comma-separated; length must be 2^n with
    n <= MAX_ATTRIBUTES."""
    p = Path(path)
    if not p.exists():
        raise CliError(f"weights file not found: {path}")
    text = p.read_text().replace(",", "\n")
    weights = [float(tok) for tok in text.split() if tok]
    if not weights or len(weights) & (len(weights) - 1):
        raise CliError(f"weights file must hold a power-of-two count, got {len(weights)}")
    if len(weights) > 2**MAX_ATTRIBUTES:
        raise CliError(
            f"weights file holds {len(weights)} weights, more than "
            f"2^{MAX_ATTRIBUTES} minterms"
        )
    return partition.CellWeights(weights)


def _load_model(path):
    p = Path(path)
    if not p.exists():
        raise CliError(f"model file not found: {path}")
    return network.load_model(p)


def _parse_levels(text, bcl_max):
    if text is None:
        return list(range(bcl_max + 1))
    try:
        levels = sorted({int(t) for t in text.split(",") if t.strip() != ""})
    except ValueError:
        raise CliError(f"bad level set {text!r}") from None
    if not levels:
        raise CliError("level set is empty")
    if any(not 0 <= b <= bcl_max for b in levels):
        raise CliError(f"levels must lie in 0..{bcl_max}")
    return levels


def _names_and_rows(args):
    """Attribute names and rows (X, y) from --data, else names from --names
    (where the command has it), else (None, None)."""
    if args.data:
        names, X, y = load_dataset(args.data, args.label)
        return names, (X, y)
    names = getattr(args, "names", None)
    if names:
        names = [t.strip() for t in names.split(",") if t.strip()]
        if len(names) > MAX_ATTRIBUTES:
            raise CliError(
                f"{len(names)} names exceed the maximum of {MAX_ATTRIBUTES} attributes"
            )
        return names, None
    return None, None


def _cell_weights_from_args(args):
    """Resolve the cell weights either from a weights override file or by
    extraction from the model; returns (weights, names, threshold,
    fuzzifier, rows).  The fuzzifier is None for a weights override, and
    rows are None without --data.  An option the chosen source does not
    read is an error."""
    names, rows = _names_and_rows(args)
    spec = None
    threshold = getattr(args, "threshold", None)
    if args.weights_override:
        if args.model or args.cell is not None:
            raise CliError("--weights-override cannot be combined with --model or --cell")
        cw = load_weights_file(args.weights_override)
        threshold = 0.5 if threshold is None else threshold
    elif not args.model:
        raise CliError("either --model or --weights-override is required")
    elif threshold is not None:
        raise CliError("--threshold applies only to --weights-override")
    else:
        ann, spec = _load_model(args.model)
        if args.cell is None:
            raise CliError("--cell is required when extracting from a model")
        cell = partition.CellId(args.cell, ann.relu_count)
        cw = partition.extract_cell_weights(ann, cell)
        threshold = ann.threshold
    if names is None:
        names = [f"a{j + 1}" for j in range(cw.n)]
    elif len(names) != cw.n:
        raise CliError(
            f"{len(names)} attribute names given for a cell over {cw.n} attributes"
        )
    return cw, names, threshold, spec, rows


def _fmt(x, nd=3):
    return f"{x:.{nd}f}"


def _minterm_codes(n):
    """The attribute bits of each minterm index, attribute 1 first."""
    return np.indices((2,) * n).reshape(n, 2**n).T.tolist()


def cmd_train(args):
    names, X, y = load_dataset(args.data, args.label)
    if not len(y):
        raise CliError("dataset has no rows")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        spec = fit_fuzzifier(X, args.fuzzifier)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    cfg = network.TrainConfig(
        learning_rate=args.lr, epochs=args.epochs, seed=args.seed
    )
    try:
        ann, acc = network.train(minterm_transform(fuzzify(X, spec)), y, args.relu_nodes, cfg)
    except network.TrainingDivergedError as exc:
        raise CliError(str(exc)) from exc
    network.save_model(args.model, ann, spec)
    print(f"attributes={','.join(names)}")
    print(f"training_accuracy={_fmt(acc)}")
    print(f"threshold={_fmt(ann.threshold)}")
    print(f"model={args.model}")
    return 0


def _model_rows(args):
    """The --model network, the minterm matrix of the --data rows under the
    model's fuzzifier, and their labels."""
    ann, spec = _load_model(args.model)
    if spec is None:
        raise CliError("model has no fuzzifier; cannot ingest raw data")
    _, X, y = load_dataset(args.data, args.label)
    return ann, minterm_transform(fuzzify(X, spec)), y


def cmd_partition(args):
    ann, mt, y = _model_rows(args)
    header = ["cell_id", "relu_bits", "count_label1", "count_label0"]
    rows = [
        [r.cell.p, "".join(map(str, r.cell.bits)), r.count_label1, r.count_label0]
        for r in partition.partition_dataset(ann, mt, y)
    ]
    if args.out:
        _write_csv(args.out, header, rows)
    print(f"{'cell':>6} {'relu':>6} {'label1':>8} {'label0':>8}")
    for p, bits, ones, zeros in rows:
        print(f"{'ANN_' + str(p):>6} {bits:>6} {ones:>8} {zeros:>8}")
    return 0


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_explain(args):
    cw, names, threshold, spec, data = _cell_weights_from_args(args)
    if data is not None and spec is not None and not len(data[1]):
        raise CliError("dataset has no rows")
    scaled = logiccode.scale_weights(cw, threshold)
    bt = logiccode.bitcode(scaled, args.bcl_max)
    report = logiccode.energy_report(scaled, bt)
    recon = bt.reconstruction()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n = cw.n
    header = (
        ["k"] + names + ["weight", "scaled"]
        + [f"bit_2^-{b}" for b in range(args.bcl_max + 1)] + ["reconstruction"]
    )
    columns = zip(_minterm_codes(n), cw.weights.tolist(), scaled.weights.tolist(),
                  bt.bits.T.tolist(), recon.tolist())
    rows = [
        [k] + a_bits + [repr(w), repr(s)] + bits + [repr(r)]
        for k, (a_bits, w, s, bits, r) in enumerate(columns)
    ]
    _write_csv(out_dir / "weights.csv", header, rows)

    energy_rows = [
        [le.bcl, le.set_bits, repr(le.absolute), repr(le.relative_percent)]
        for le in report.levels
    ]
    _write_csv(
        out_dir / "energy.csv",
        ["level", "set_bits", "absolute_energy", "relative_energy_percent"],
        energy_rows,
    )

    print(f"cell={cw.cell if cw.cell else 'override'}")
    print(f"scaled_threshold={_fmt(scaled.threshold)}")
    print(f"weight_sum={_fmt(report.weight_sum)}")
    print(f"bitcode_sum={_fmt(report.bitcode_sum)}")
    if report.degenerate:
        print("energy=degenerate (weight sum is zero)")
    for le in report.levels:
        print(
            f"level 2^-{le.bcl}: set_bits={le.set_bits} "
            f"energy={_fmt(le.absolute)} ({_fmt(le.relative_percent, 1)}%)"
        )
    levels = range(args.bcl_max + 1)
    trees = qldt.build_qldts([logiccode.level_expression(bt, bcl) for bcl in levels])
    for bcl, tree in zip(levels, trees):
        dot_path = out_dir / f"level_{bcl}.dot"
        dot_path.write_text(qldt.render(tree, names))
        print(f"tree level 2^-{bcl}: {dot_path}")

    if data is not None and spec is not None:
        X, y = data
        mt = minterm_transform(fuzzify(X, spec))
        for bcl in range(args.bcl_max + 1):
            acc = logiccode.level_accuracy(
                bt, scaled.threshold, mt, y, list(range(bcl + 1))
            )
            print(f"accuracy levels 0..{bcl}: {_fmt(acc)}")
    return 0


def cmd_shapley(args):
    cw, names, *_ = _cell_weights_from_args(args)
    rows = []
    for name, value in zip(names, partition.shapley(cw).tolist()):
        print(f"Sh_{name}={_fmt(value)}")
        rows.append([name, repr(value)])
    if args.out:
        _write_csv(args.out, ["attribute", "shapley_value"], rows)
    return 0


def _resolve_keep(keep_arg, names):
    keep = []
    for tok in keep_arg.split(","):
        tok = tok.strip()
        if tok in names:
            keep.append(names.index(tok))
        else:
            try:
                index = int(tok)
            except ValueError:
                raise CliError(f"unknown attribute {tok!r}") from None
            if not 1 <= index <= len(names):
                raise CliError(f"attribute index {index} outside 1..{len(names)}")
            keep.append(index - 1)
    return keep


def cmd_project(args):
    cw, names, threshold, *_ = _cell_weights_from_args(args)
    keep = _resolve_keep(args.keep, names)
    projected = logiccode.project(cw, keep)
    kept_names = [names[j] for j in sorted(keep)]
    scaled = logiccode.scale_weights(projected, threshold)
    bt = logiccode.bitcode(scaled, args.bcl_max)
    report = logiccode.energy_report(scaled, bt)
    print(f"kept={','.join(kept_names)}")
    columns = zip(_minterm_codes(projected.n), projected.weights.tolist(),
                  scaled.weights.tolist(), bt.bits.T.tolist())
    for bits, raw, s, code in columns:
        print(
            f"minterm {''.join(map(str, bits))}: raw={_fmt(raw)} "
            f"scaled={_fmt(s)} bits={''.join(map(str, code))}"
        )
    print(f"weight_sum={_fmt(report.weight_sum)}")
    for le in report.levels:
        print(
            f"level 2^-{le.bcl}: set_bits={le.set_bits} "
            f"({_fmt(le.relative_percent, 1)}%)"
        )
    return 0


def cmd_hypothesis(args):
    if args.hypothesis2 is not None:
        names, _ = _names_and_rows(args)
        if names is None:
            raise CliError("--names or --data required with --hypothesis2")
        e = analysis.parse_hypothesis(args.hypothesis2, names)
    else:
        cw, names, threshold, *_ = _cell_weights_from_args(args)
        scaled = logiccode.scale_weights(cw, threshold)
        bt = logiccode.bitcode(scaled, args.bcl_max)
        e = logiccode.level_expression(bt, args.level)
    m = analysis.compare(e, analysis.parse_hypothesis(args.hypothesis, names))
    for key in ("v11", "v10", "v01", "v00"):
        print(f"{key}={getattr(m, key)}")
    print(f"accuracy={_fmt(m.accuracy)}")
    print(f"precision={_fmt(m.precision)}" + (" (degenerate)" if m.precision_degenerate else ""))
    print(f"recall={_fmt(m.recall)}" + (" (degenerate)" if m.recall_degenerate else ""))
    print(f"implies_forward={m.implies_forward}")
    print(f"implies_backward={m.implies_backward}")
    print(f"equivalent={m.equivalent}")
    return 0


def cmd_trend(args):
    cw, names, threshold, *_ = _cell_weights_from_args(args)
    scaled = logiccode.scale_weights(cw, threshold)
    bt = logiccode.bitcode(scaled, args.bcl_max)
    vary = _resolve_keep(args.vary, names)
    levels = _parse_levels(args.levels, args.bcl_max)
    fixed = {}
    if args.fixed:
        for part in args.fixed.split(","):
            key, _, val = part.partition("=")
            idx = _resolve_keep(key, names)[0]
            if idx in vary or idx in fixed:
                why = "both varied and fixed" if idx in vary else "fixed twice"
                raise CliError(f"attribute {names[idx]!r} is {why}")
            fixed[idx] = float(val)
    grid = analysis.trend_grid(bt, vary, fixed, levels, args.resolution)
    level_tag = "+".join(str(b) for b in levels)
    header = [names[j] for j in vary] + ["level_set", "value"]
    points = product(map(float, grid.axis), repeat=len(vary))
    rows = [
        [*map(repr, point), level_tag, repr(v)]
        for point, v in zip(points, grid.values.ravel().tolist())
    ]
    if args.out:
        _write_csv(args.out, header, rows)
        print(f"wrote {len(rows)} grid points to {args.out}")
    else:
        print(",".join(header))
        for row in rows:
            print(",".join(map(str, row)))
    return 0


def cmd_classify(args):
    ann, mt, y = _model_rows(args)
    if len(y):
        predictions = network.classify(ann, mt)
        print("\n".join(map(str, predictions.tolist())))
        hits = np.count_nonzero(predictions == y)
        print(f"accuracy={_fmt(hits / len(y))}", file=sys.stderr)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="annlogic",
        description="Interpret a simple ReLU network as weighted logic expressions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rows = argparse.ArgumentParser(add_help=False)
    rows.add_argument("--model", required=True)
    rows.add_argument("--data", required=True)
    rows.add_argument("--label", default="label")

    cell = argparse.ArgumentParser(add_help=False)
    cell.add_argument("--model", help="model JSON file")
    cell.add_argument("--cell", type=int, help="partition cell number")
    cell.add_argument("--weights-override",
                      help="file of raw minterm weights, bypassing extraction")
    cell.add_argument("--data", help="CSV dataset (for attribute names/accuracy)")
    cell.add_argument("--label", default="label", help="label column name")

    coded = argparse.ArgumentParser(add_help=False, parents=[cell])
    coded.add_argument("--threshold", type=float,
                       help="classifier threshold when using --weights-override")
    coded.add_argument("--bcl-max", type=int, default=logiccode.DEFAULT_BCL_MAX,
                       help=f"finest bit level, 0..{logiccode.MAX_BCL}")

    p = sub.add_parser("train", help="train a minterm-input network")
    p.add_argument("--data", required=True)
    p.add_argument("--label", default="label")
    p.add_argument("--model", required=True, help="output model path")
    p.add_argument("--relu-nodes", type=int, default=3)
    p.add_argument("--epochs", type=int, default=2000)
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fuzzifier", choices=["minmax", "logistic"], default="minmax")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("partition", parents=[rows], help="partition a dataset into ReLU cells")
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("explain", parents=[coded], help="scale, bit-code, and render one cell")
    p.add_argument("--out-dir", default="explain_out")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("shapley", parents=[cell], help="attribute Shapley values of a cell")
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=cmd_shapley)

    p = sub.add_parser("project", parents=[coded], help="marginalize a cell onto attributes")
    p.add_argument("--keep", required=True, help="comma-separated attributes")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("hypothesis", parents=[coded],
                       help="compare a formula with a level expression")
    p.add_argument("--level", type=int, default=0)
    p.add_argument("--hypothesis", required=True)
    p.add_argument("--hypothesis2",
                   help="compare two formulas instead of using a model")
    p.add_argument("--names", help="comma-separated attribute names")
    p.set_defaults(func=cmd_hypothesis)

    p = sub.add_parser("trend", parents=[coded], help="trend grid over one or two attributes")
    p.add_argument("--vary", required=True, help="one or two attributes")
    p.add_argument("--fixed", help="fixed degrees, e.g. 'c=0.3,e=0.7'")
    p.add_argument("--levels", help="comma-separated level subset")
    p.add_argument("--resolution", type=int, default=21)
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=cmd_trend)

    p = sub.add_parser("classify", parents=[rows], help="classify dataset rows with a model")
    p.set_defaults(func=cmd_classify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
