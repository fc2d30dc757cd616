"""Command-line pipeline: train, partition, explain, shapley, project,
hypothesis, trend, classify.  Inputs are CSV datasets with a header row
and a designated binary label column; models are JSON files."""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import sys
import warnings
from itertools import compress, count, product
from pathlib import Path

import numpy as np

from . import analysis, logiccode, network, partition, qldt
from .encoding import FUZZIFIER_KINDS, MAX_ATTRIBUTES, fit_fuzzifier, fuzzify, minterm_transform

_CHUNK_CHARS = 2**16  # dataset body text per np.loadtxt call: ~420 rows of 9 repr numbers


def load_dataset(path, label_column):
    """Read a UTF-8 CSV, BOM optional, with a header row; returns (attribute names, X, y):
    the (N, n) float attribute values and the (N,) 0/1 int labels.  A row is
    numbered by the file line it starts on, the header's first line being 1;
    blank rows are skipped.  A body of plain text (see `_is_plain`) is read
    by np.loadtxt, any other again from the top by the csv reader, which
    parses every unquoted field as a number.  Both read a field as float()
    does."""
    with _input(path, "dataset") as p, open(p, newline="", encoding="utf-8-sig") as fh:
        head = csv.reader(fh)
        try:
            header = next(head)
        except StopIteration:
            raise ValueError(f"dataset file is empty: {path}") from None
        except csv.Error as exc:  # a field over csv.field_size_limit()
            raise ValueError(f"row 1: {exc}") from None
        if label_column not in header:
            raise ValueError(f"label column {label_column!r} not in header {header}")
        if len(header) - 1 > MAX_ATTRIBUTES:
            raise ValueError(
                f"{len(header) - 1} attributes exceed the maximum of {MAX_ATTRIBUTES}"
            )
        _reject_repeats(header, "dataset header")
        table, row_no = (_split_body(fh, len(header), head.line_num + 1)
                         or _csv_body(fh, len(header)))
    _reject_rows(~np.isfinite(table).all(axis=1), row_no, "holds a value that is not finite")
    label_idx = header.index(label_column)
    labels = table[:, label_idx]
    _reject_rows(~np.isin(labels, (0.0, 1.0)), row_no, "has a label other than 0 or 1")
    names = header[:label_idx] + header[label_idx + 1:]
    return names, np.delete(table, label_idx, axis=1), labels.astype(int)


@contextlib.contextmanager
def _input(path, what):
    """The Path of an existing input file, else "{what} file not found".  A
    UnicodeDecodeError the block raises becomes the row of the file's first
    byte that is not UTF-8, CR, LF and CRLF ending a line as in the csv
    reader: the decoder's own position counts from its current read."""
    p = Path(path)
    if not p.exists():
        raise ValueError(f"{what} file not found: {path}")
    try:
        yield p
    except UnicodeDecodeError:
        data = p.read_bytes()
        try:
            data.decode()
        except UnicodeDecodeError as exc:
            row = len((data[:exc.start] + b".").splitlines())
            raise ValueError(f"row {row}: byte 0x{data[exc.start]:02x} is not UTF-8 "
                             f"({exc.reason})") from None
        raise


def _is_plain(text):
    """Only ASCII digits, signs, points, exponent letters, commas and LF: on
    such text np.loadtxt splits the fields the csv reader splits, and reads
    a field, to the same value, exactly when float() does."""
    return not text.encode().translate(None, b"0123456789+-.eE,\n")


def _split_body(fh, width, first):
    """(table, row_no) of the body, whose first line is file line `first`, read
    by np.loadtxt in chunks of _CHUNK_CHARS characters, each cut after its last
    LF and the rest carried into the next; None if a chunk is not plain after
    CRLF -> LF, a line is over the csv field limit, or a row is not `width`
    numbers."""
    tables, row_nos, tail = [np.empty((0, width))], [np.empty(0, np.intp)], ""
    limit = csv.field_size_limit()
    while True:
        read = fh.read(_CHUNK_CHARS)
        text = tail + read
        cut = text.rfind("\n") + 1 if read else len(text)
        text, tail = text[:cut], text[cut:]
        if "\r" in text:
            text = text.replace("\r\n", "\n")
        lines = text.split("\n")
        lengths = np.fromiter(map(len, lines), np.intp, len(lines))
        if not _is_plain(text) or max(lengths.max(), len(tail)) > limit:
            return None
        filled = np.flatnonzero(lengths)
        if len(filled):  # np.loadtxt warns on a chunk of blank lines
            try:
                rows = np.loadtxt(lines, delimiter=",", comments=None)
                tables.append(rows.reshape(len(filled), width))
            except ValueError:  # ragged, not `width` wide, or a field float() rejects
                return None
            row_nos.append(filled + first)
        first += len(lines) - 1
        if not read:
            return np.concatenate(tables), np.concatenate(row_nos)


def _csv_body(fh, width):
    """(table, row_no) of the body, read again from the top by the csv reader;
    a record's row is the file line it starts on."""
    fh.seek(0)
    head = csv.reader(fh)
    next(head)
    reader = csv.reader(fh, quoting=csv.QUOTE_NONNUMERIC)
    records, ends = [], [head.line_num]  # the file line each record ends on
    try:
        for record in reader:
            records.append(record)
            ends.append(head.line_num + reader.line_num)
    except UnicodeDecodeError:
        raise
    except (ValueError, csv.Error) as exc:
        raise ValueError(f"row {ends[-1] + 1}: {exc}") from None
    widths = np.fromiter(map(len, records), dtype=np.intp, count=len(records))
    filled = widths > 0
    row_no = np.array(ends[:-1], dtype=np.intp)[filled] + 1  # file row of each non-blank record
    _reject_rows(widths[filled] != width, row_no,
                 f"has a column count other than the header's {width}")
    records = list(compress(records, filled))
    try:
        table = np.array(records, dtype=float)
    except ValueError:
        # a quoted or empty field that the reader kept as text: name its row
        for no, record in zip(row_no, records):
            try:
                np.array(record, dtype=float)
            except ValueError as exc:
                raise ValueError(f"row {no}: {exc}") from None
        raise
    return table.reshape(-1, width), row_no


def _reject_rows(bad, row_no, what):
    if bad.any():
        raise ValueError(f"row {row_no[np.argmax(bad)]} {what}")


def _reject_repeats(names, where):
    """Each column name may occur once: a formula or --keep that names it
    must mean one column."""
    seen = set()
    for name in names:
        if name in seen:
            raise ValueError(f"{where} repeats column {name!r}")
        seen.add(name)


def load_weights_file(path):
    """One weight per line, or comma-separated; length must be 2^n with
    n <= MAX_ATTRIBUTES."""
    with _input(path, "weights") as p:
        text = p.read_text(encoding="utf-8-sig").replace(",", "\n")
    weights = [float(tok) for tok in text.split() if tok]
    if not weights or len(weights) & (len(weights) - 1):
        raise ValueError(f"weights file must hold a power-of-two count, got {len(weights)}")
    if len(weights) > 2**MAX_ATTRIBUTES:
        raise ValueError(
            f"weights file holds {len(weights)} weights, more than "
            f"2^{MAX_ATTRIBUTES} minterms"
        )
    return partition.CellWeights(weights)


def _parse_levels(text, bcl_max):
    if text is None:
        return list(range(bcl_max + 1))
    try:
        levels = sorted({int(t) for t in text.split(",") if t.strip() != ""})
    except ValueError:
        raise ValueError(f"bad level set {text!r}") from None
    if not levels:
        raise ValueError("level set is empty")
    if any(not 0 <= b <= bcl_max for b in levels):
        raise ValueError(f"levels must lie in 0..{bcl_max}")
    return levels


def _names_and_rows(args):
    """Attribute names and rows (X, y) from --data, else names from --names
    (where the command has it), else (None, None).  --names with --data is
    an error: the dataset's header names the attributes."""
    names = getattr(args, "names", None)
    if args.data:
        if names is not None:
            raise ValueError("--names cannot be combined with --data")
        names, X, y = load_dataset(args.data, args.label)
        return names, (X, y)
    if names:
        names = [t.strip() for t in names.split(",") if t.strip()]
        if len(names) > MAX_ATTRIBUTES:
            raise ValueError(
                f"{len(names)} names exceed the maximum of {MAX_ATTRIBUTES} attributes"
            )
        _reject_repeats(names, "--names")
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
            raise ValueError("--weights-override cannot be combined with --model or --cell")
        cw = load_weights_file(args.weights_override)
        threshold = 0.5 if threshold is None else threshold
    elif not args.model:
        raise ValueError("either --model or --weights-override is required")
    elif threshold is not None:
        raise ValueError("--threshold applies only to --weights-override")
    else:
        with _input(args.model, "model") as p:
            ann, spec = network.load_model(p)
        if args.cell is None:
            raise ValueError("--cell is required when extracting from a model")
        cw = partition.extract_cell_weights(ann, args.cell)
        threshold = ann.threshold
    if names is None:
        names = [f"a{j + 1}" for j in range(cw.n)]
    elif len(names) != cw.n:
        raise ValueError(
            f"{len(names)} attribute names given for a cell over {cw.n} attributes"
        )
    return cw, names, threshold, spec, rows


def _coded(cw, threshold, args):
    """The cell scaled onto [0, 1] and bit-coded to level --bcl-max, which
    defaults to logiccode.DEFAULT_BCL_MAX."""
    scaled = logiccode.scale_weights(cw, threshold)
    bcl_max = logiccode.DEFAULT_BCL_MAX if args.bcl_max is None else args.bcl_max
    return scaled, logiccode.bitcode(scaled, bcl_max)


def _fmt(x, nd=3):
    return f"{x:.{nd}f}"


def _minterm_codes(n):
    """The (2^n, n) attribute bits of each minterm index, attribute 1 first."""
    return np.indices((2,) * n, dtype=np.uint8).reshape(n, 2**n).T


def _digits(bits, sep):
    """Each row of a 0/1 matrix as text, every digit followed by `sep`."""
    rows, m = bits.shape
    chars = np.empty((rows, m, 1 + len(sep)), dtype=np.uint8)
    np.add(bits, ord("0"), out=chars[..., 0], casting="unsafe")
    chars[..., 1:] = list(sep.encode())
    text, width = chars.tobytes().decode(), m * (1 + len(sep))
    return [text[i * width:(i + 1) * width] for i in range(rows)]


def cmd_train(args):
    names, X, y = load_dataset(args.data, args.label)
    if not len(y):
        raise ValueError("dataset has no rows")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        spec = fit_fuzzifier(X, args.fuzzifier)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    cfg = network.TrainConfig(
        learning_rate=args.lr, epochs=args.epochs, seed=args.seed
    )
    ann, acc = network.train(minterm_transform(fuzzify(X, spec)), y, args.relu_nodes, cfg)
    network.save_model(args.model, ann, spec)
    print(f"attributes={','.join(names)}")
    print(f"training_accuracy={_fmt(acc)}")
    print(f"threshold={_fmt(ann.threshold)}")
    print(f"model={args.model}")
    return 0


def _model_rows(args):
    """The --model network, the minterm matrix of the --data rows under the
    model's fuzzifier, and their labels."""
    with _input(args.model, "model") as p:
        ann, spec = network.load_model(p)
    if spec is None:
        raise ValueError("model has no fuzzifier; cannot ingest raw data")
    _, X, y = load_dataset(args.data, args.label)
    return ann, minterm_transform(fuzzify(X, spec)), y


def cmd_partition(args):
    ann, mt, y = _model_rows(args)
    header = ["cell_id", "relu_bits", "count_label1", "count_label0"]
    rows = [
        [p, format(p, f"0{ann.relu_count}b"), ones, zeros]
        for p, ones, zeros in partition.partition_dataset(ann, mt, y)
    ]
    if args.out:
        _write_csv(args.out, header, rows)
    # right-aligned; a column is as wide as its header (padded to 6 or 8) or
    # its widest entry, whichever is wider
    table = [["cell", "relu", "label1", "label0"]]
    table += [[f"ANN_{p}", bits, str(ones), str(zeros)] for p, bits, ones, zeros in rows]
    widths = [max(w, *map(len, column)) for w, column in zip((6, 6, 8, 8), zip(*table))]
    for line in table:
        print(" ".join(v.rjust(w) for v, w in zip(line, widths)))
    return 0


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_weights(path, names, cw, scaled, bt):
    """weights.csv: per minterm k, its attribute bits, weight, scaled weight,
    bits of levels 0..bcl_max and reconstruction.  Only the header can need
    quoting and goes through the csv writer; each body line is joined from
    whole columns and ends in CRLF.  A bit pattern's text is made once: read
    as a binary number times 2^-bcl_max, it is the reconstruction, exactly."""
    header = (
        ["k"] + names + ["weight", "scaled"]
        + [f"bit_2^-{b}" for b in range(bt.bcl_max + 1)] + ["reconstruction"]
    )
    pattern = (1 << np.arange(bt.bcl_max, -1, -1)) @ bt.bits
    _, first, inverse = np.unique(pattern, return_index=True, return_inverse=True)
    tails = [f"{bits}{r!r}\r\n" for bits, r in zip(
        _digits(bt.bits.T[first], ","), (pattern[first] * 2.0**-bt.bcl_max).tolist())]
    columns = (_digits(_minterm_codes(cw.n), ","), cw.weights.tolist(),
               scaled.weights.tolist(), map(tails.__getitem__, inverse.tolist()))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        fh.write("".join([f"{k},{a_bits}{w!r},{s!r},{tail}"
                          for k, a_bits, w, s, tail in zip(count(), *columns)]))


def cmd_explain(args):
    cw, names, threshold, spec, data = _cell_weights_from_args(args)
    if data is not None and spec is not None and not len(data[1]):
        raise ValueError("dataset has no rows")
    scaled, bt = _coded(cw, threshold, args)
    report = logiccode.energy_report(scaled, bt)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_weights(out_dir / "weights.csv", names, cw, scaled, bt)

    energy_rows = zip(count(), report.set_bits, map(repr, report.absolute),
                      map(repr, report.relative_percent))
    _write_csv(
        out_dir / "energy.csv",
        ["level", "set_bits", "absolute_energy", "relative_energy_percent"],
        energy_rows,
    )

    print(f"cell={'override' if args.cell is None else f'ANN_{args.cell}'}")
    print(f"scaled_threshold={_fmt(scaled.threshold)}")
    print(f"weight_sum={_fmt(report.weight_sum)}")
    print(f"bitcode_sum={_fmt(report.bitcode_sum)}")
    energies = zip(report.set_bits, report.absolute, report.relative_percent)
    for bcl, (set_bits, absolute, relative) in enumerate(energies):
        print(
            f"level 2^-{bcl}: set_bits={set_bits} "
            f"energy={_fmt(absolute)} ({_fmt(relative, 1)}%)"
        )
    for bcl, dot in enumerate(qldt.render(qldt.build_qldt(bt), names)):
        dot_path = out_dir / f"level_{bcl}.dot"
        dot_path.write_text(dot, encoding="utf-8")
        print(f"tree level 2^-{bcl}: {dot_path}")

    if data is not None and spec is not None:
        X, y = data
        mt = minterm_transform(fuzzify(X, spec))
        for bcl in range(bt.bcl_max + 1):
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
                raise ValueError(f"unknown attribute {tok!r}") from None
            if not 1 <= index <= len(names):
                raise ValueError(f"attribute index {index} outside 1..{len(names)}")
            keep.append(index - 1)
    return keep


def cmd_project(args):
    cw, names, threshold, *_ = _cell_weights_from_args(args)
    keep = _resolve_keep(args.keep, names)
    projected = logiccode.project(cw, keep)
    kept_names = [names[j] for j in sorted(keep)]
    scaled, bt = _coded(projected, threshold, args)
    report = logiccode.energy_report(scaled, bt)
    print(f"kept={','.join(kept_names)}")
    columns = zip(_digits(_minterm_codes(projected.n), ""), projected.weights.tolist(),
                  scaled.weights.tolist(), _digits(bt.bits.T, ""))
    for bits, raw, s, code in columns:
        print(f"minterm {bits}: raw={_fmt(raw)} scaled={_fmt(s)} bits={code}")
    print(f"weight_sum={_fmt(report.weight_sum)}")
    for bcl, (set_bits, relative) in enumerate(zip(report.set_bits, report.relative_percent)):
        print(
            f"level 2^-{bcl}: set_bits={set_bits} "
            f"({_fmt(relative, 1)}%)"
        )
    return 0


def cmd_hypothesis(args):
    if args.hypothesis2 is not None:
        for option in ("--model", "--cell", "--weights-override", "--bcl-max", "--level"):
            if getattr(args, option[2:].replace("-", "_")) is not None:
                raise ValueError(f"{option} cannot be combined with --hypothesis2")
        names, _ = _names_and_rows(args)
        if names is None:
            raise ValueError("--names or --data required with --hypothesis2")
        e = analysis.parse_hypothesis(args.hypothesis2, names)
    else:
        cw, names, threshold, *_ = _cell_weights_from_args(args)
        _, bt = _coded(cw, threshold, args)
        e = logiccode.level_expression(bt, args.level or 0)
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
    _, bt = _coded(cw, threshold, args)
    vary = _resolve_keep(args.vary, names)
    levels = _parse_levels(args.levels, bt.bcl_max)
    fixed = {}
    if args.fixed:
        for part in args.fixed.split(","):
            try:
                key, val = part.split("=")
                degree = float(val)
            except ValueError:
                raise ValueError(f"--fixed entry {part!r} is not of the form name=degree") from None
            idx = _resolve_keep(key, names)[0]
            if idx in vary or idx in fixed:
                why = "both varied and fixed" if idx in vary else "fixed twice"
                raise ValueError(f"attribute {names[idx]!r} is {why}")
            fixed[idx] = degree
    grid = analysis.trend_grid(bt, vary, fixed, levels, args.resolution)
    _write_trend(args.out, [names[j] for j in vary], "+".join(map(str, levels)), grid)
    if args.out:
        print(f"wrote {grid.values.size} grid points to {args.out}")
    return 0


def _write_trend(path, varied, level_tag, grid):
    """One row per grid point (varied degrees, level set, value), to `path`
    with CRLF line ends, else to stdout with LF ones.  Only the header goes
    through the csv writer; each axis degree is made text once."""
    points = map("".join, product([f"{x!r}," for x in grid.axis], repeat=len(varied)))
    head = io.StringIO()  # quoted as the file is, a lone CR too
    csv.writer(head).writerow([*varied, "level_set", "value"])
    end = "\r\n" if path else "\n"
    text = head.getvalue()[:-2] + end + "".join(
        [f"{p}{level_tag},{v!r}{end}" for p, v in zip(points, grid.values.ravel().tolist())])
    Path(path).write_text(text, encoding="utf-8", newline="") if path else sys.stdout.write(text)


def cmd_classify(args):
    ann, mt, y = _model_rows(args)
    if len(y):
        predictions = network.classify(ann, mt)
        print("\n".join(map(str, predictions.tolist())))
        hits = np.count_nonzero(predictions == y)
        print(f"accuracy={_fmt(hits / len(y))}", file=sys.stderr)
    return 0


def _subcommands():
    """Each subcommand's function, help and options, the shared ones first:
    model and dataset rows, or a cell source, which a coded command follows
    with --bcl-max.  Only explain, whose outputs read the classifier
    threshold, takes --threshold."""
    rows = [("--model", dict(required=True)), ("--data", dict(required=True)),
            ("--label", dict(default="label"))]
    cell = [
        ("--model", dict(help="model JSON file")),
        ("--cell", dict(type=int, help="partition cell number")),
        ("--weights-override", dict(help="file of raw minterm weights, bypassing extraction")),
        ("--data", dict(help="CSV dataset (for attribute names/accuracy)")),
        ("--label", dict(default="label", help="label column name")),
    ]
    threshold = ("--threshold", dict(type=float,
                                     help="classifier threshold when using --weights-override"))
    bcl_max = ("--bcl-max", dict(type=int, help=f"finest bit level, 0..{logiccode.MAX_BCL} "
                                                f"(default {logiccode.DEFAULT_BCL_MAX})"))
    coded = cell + [bcl_max]
    out = [("--out", dict(help="CSV output path"))]
    return {
        "train": (cmd_train, "train a minterm-input network", [
            ("--data", dict(required=True)),
            ("--label", dict(default="label")),
            ("--model", dict(required=True, help="output model path")),
            ("--relu-nodes", dict(type=int, default=3)),
            ("--epochs", dict(type=int, default=2000)),
            ("--lr", dict(type=float, default=0.5)),
            ("--seed", dict(type=int, default=0)),
            ("--fuzzifier", dict(choices=list(FUZZIFIER_KINDS), default="minmax")),
        ]),
        "partition": (cmd_partition, "partition a dataset into ReLU cells", rows + out),
        "explain": (cmd_explain, "scale, bit-code, and render one cell",
                    cell + [threshold, bcl_max, ("--out-dir", dict(default="explain_out"))]),
        "shapley": (cmd_shapley, "attribute Shapley values of a cell", cell + out),
        "project": (cmd_project, "marginalize a cell onto attributes",
                    coded + [("--keep", dict(required=True, help="comma-separated attributes"))]),
        "hypothesis": (cmd_hypothesis, "compare a formula with a level expression", coded + [
            ("--level", dict(type=int, help="bit level of the cell expression (default 0)")),
            ("--hypothesis", dict(required=True)),
            ("--hypothesis2", dict(help="compare two formulas instead of using a model")),
            ("--names", dict(help="comma-separated attribute names")),
        ]),
        "trend": (cmd_trend, "trend grid over one or two attributes", coded + [
            ("--vary", dict(required=True, help="one or two attributes")),
            ("--fixed", dict(help="fixed degrees, e.g. 'c=0.3,e=0.7'")),
            ("--levels", dict(help="comma-separated level subset")),
            ("--resolution", dict(type=int, default=21)),
            *out,
        ]),
        "classify": (cmd_classify, "classify dataset rows with a model", rows),
    }


def build_parser(command=None):
    """The parser of every subcommand; or, when `command` names one, of that
    one alone.  Both print the same usage lines and error messages for any
    argv that starts with `command`."""
    table = _subcommands()
    parser = argparse.ArgumentParser(
        prog="annlogic",
        description="Interpret a simple ReLU network as weighted logic expressions",
    )
    if command in table:
        # the usage line lists every subcommand, as the full parser's does
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(table) + "}")
        table = {command: table[command]}
    else:
        sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, options) in table.items():
        p = sub.add_parser(name, help=text)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        empty = "out of memory" if isinstance(exc, MemoryError) else ""
        print(f"error: {str(exc) or empty}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
