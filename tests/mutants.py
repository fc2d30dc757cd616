"""Mutation check: every mutant below breaks one rule the package states,
and the test files named with it must fail on it.

    python3 tests/mutants.py [NAME ...]

The script copies src/, tests/ and pyproject.toml to a temporary
directory (a copy of src/ alone would not do: the ini's `pythonpath` puts
the checkout's own src/ first).  It first runs the named test files on
the unchanged copy, which must pass.  Then it applies each mutant in turn,
runs its test files with `-x -q -p no:cacheprovider --hypothesis-seed=0`
and restores the file.  It prints one line per mutant, then the mutants
that survived, and exits 1 if any survived or an old text was not found
exactly once.  With NAMEs it runs only those mutants.  Pytest does not
collect this file, and tier-1 does not run it.  No test file here needs
perfbench/, so test_tracing.py is named for no mutant.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600

# (name, file under src/annlogic/, exact old text, new text, test files that must kill it)
MUTANTS = [
    ("bitcode-ties-to-even", "logiccode.py",
     "np.floor(sw.weights * 2**bcl_max + 0.5)", "np.round(sw.weights * 2**bcl_max)",
     ["test_logiccode.py"]),
    ("relu-status-zero-inactive", "network.py",
     "(_pre_activations(ann, mt) >= 0.0)", "(_pre_activations(ann, mt) > 0.0)",
     ["test_network.py", "test_partition.py"]),
    ("qldt-tie-to-last-axis", "qldt.py",
     "np.argmax(np.abs(2 * high - pos[:, None]), axis=1)",
     "m - 1 - np.argmax(np.abs(2 * high - pos[:, None])[:, ::-1], axis=1)",
     ["test_qldt.py"]),
    ("qldt-no-collapse", "qldt.py",
     "keep = lo != hi", "keep = lo >= 0",
     ["test_qldt.py"]),
    ("minterm-drops-partial-last-block", "encoding.py",
     "for start in range(0, len(rows), step):",
     "for start in range(0, len(rows) - len(rows) % step, step):",
     ["test_encoding.py"]),
    ("partition-key-first-8-bits", "partition.py",
     "key = np.packbits(relu_status(ann, samples), axis=1)",
     "key = np.packbits(relu_status(ann, samples)[:, :8], axis=1)",
     ["test_partition.py"]),
    ("threshold-last-maximum", "network.py",
     "i = splits[np.argmax(correct[splits])]",
     "i = splits[len(splits) - 1 - np.argmax(correct[splits][::-1])]",
     ["test_network.py"]),
    ("shapley-banzhaf-weights", "partition.py",
     "g = np.array([1 / (n * math.comb(n - 1, q)) for q in range(n)] + [0.0])",
     "g = np.array([2.0 ** (1 - n)] * n + [0.0])",
     ["test_partition.py"]),
    ("shapley-halves-swapped", "partition.py",
     "(g * np.take(w, 1, i) - g * np.take(w, 0, i))",
     "(g * np.take(w, 0, i) - g * np.take(w, 1, i))",
     ["test_partition.py"]),
    ("shapley-difference-before-scaling", "partition.py",
     "(g * np.take(w, 1, i) - g * np.take(w, 0, i))",
     "(g * (np.take(w, 1, i) - np.take(w, 0, i)))",
     ["test_partition.py"]),
    ("project-sums-kept-axes", "logiccode.py",
     "dropped = tuple(j for j in range(n) if j not in keep)",
     "dropped = tuple(j for j in range(n) if j in keep)",
     ["test_logiccode.py"]),
    ("trend-fixed-index-n-allowed", "analysis.py",
     "or any(not 0 <= j < n for j in fixed):", "or any(not 0 <= j <= n for j in fixed):",
     ["test_analysis.py", "test_cli.py"]),
    ("compare-v10-v01-swapped", "analysis.py",
     "(ea & ha, ea & ~ha, ~ea & ha, ~(ea | ha))", "(ea & ha, ~ea & ha, ea & ~ha, ~(ea | ha))",
     ["test_analysis.py"]),
    ("energy-over-bitcode-sum", "logiccode.py",
     "absolute / weight_sum * 100.0", "absolute / float(bt.reconstruction().sum()) * 100.0",
     ["test_logiccode.py", "test_acceptance.py"]),
    ("cell-status-bits-reversed", "partition.py",
     "np.uint8))[-l:]", "np.uint8))[-l:][::-1]",
     ["test_partition.py"]),
    # a cell is the int whose bit m, MSB-first, is the status of ReLU node m
    ("cell-number-pad-dropped", "partition.py",
     'int.from_bytes(key[i].tobytes(), "big") >> (-l % 8)',
     'int.from_bytes(key[i].tobytes(), "big")',
     ["test_partition.py"]),
    ("cell-range-inclusive", "partition.py",
     "if not 0 <= p < 2**l:", "if not 0 <= p <= 2**l:",
     ["test_partition.py", "test_cli.py"]),
    ("fuzzifier-zero-attributes-is-empty", "encoding.py",
     "if X.ndim == 2 and len(X) and not X.shape[1]:", "if False:",
     ["test_encoding.py", "test_cli.py"]),
    ("train-no-loss-check-after-last-update", "network.py",
     "for epoch in range(epochs + 1):", "for epoch in range(epochs):",
     ["test_network.py"]),
    # the trainer's preallocated loop and its input checks
    ("train-g-pre-after-w-post-update", "network.py",
     'np.multiply(w_post_t, d, out=d_relu_t, order="C")\n'
     "            np.multiply(d_relu, np.greater(pre, 0.0, out=active), out=d_relu)\n"
     "            np.matmul(d_relu_t, X, out=g_pre)\n"
     "            w -= np.multiply(rate, g, out=g)\n",
     "w_post -= np.multiply(rate, g_post, out=g_post)\n"
     '            np.multiply(w_post_t, d, out=d_relu_t, order="C")\n'
     "            np.multiply(d_relu, np.greater(pre, 0.0, out=active), out=d_relu)\n"
     "            np.matmul(d_relu_t, X, out=g_pre)\n"
     "            w_pre -= np.multiply(rate, g_pre, out=g_pre)\n",
     ["test_network.py"]),
    ("train-accepts-non-finite-minterms", "network.py",
     "if not np.isfinite([X.min(), X.max()]).all():", "if False:",
     ["test_network.py"]),
    ("train-accepts-labels-other-than-0-1", "network.py",
     "if not ((labels == 0) | (labels == 1)).all():", "if False:",
     ["test_network.py"]),
    # the shared shape rule of the minterm value types, one clause at a time
    ("shape-rule-any-ndim", "partition.py",
     "if a.ndim != ndim or 0 in a.shape or", "if 0 in a.shape or",
     ["test_logiccode.py"]),
    ("shape-rule-empty-axis", "partition.py",
     "if a.ndim != ndim or 0 in a.shape or", "if a.ndim != ndim or",
     ["test_logiccode.py"]),
    ("shape-rule-any-length", "partition.py",
     "or 0 in a.shape or a.shape[-1] & (a.shape[-1] - 1):", "or 0 in a.shape:",
     ["test_logiccode.py"]),
    ("arity-off-by-one", "partition.py",
     "return a.shape[-1].bit_length() - 1", "return a.shape[-1].bit_length()",
     ["test_logiccode.py", "test_partition.py"]),
    ("render-edge-styles-swapped", "qldt.py",
     "[style=dashed];\\n  n{p} -> n{hi} [style=solid]",
     "[style=solid];\\n  n{p} -> n{hi} [style=dashed]",
     ["test_qldt.py", "test_cli.py"]),
    # overflow checks on finite weights
    ("scale-no-span-check", "logiccode.py",
     "if not np.isfinite(hi - lo):", "if False:",
     ["test_cli.py"]),
    ("shapley-warns-on-overflow", "partition.py",
     'with np.errstate(over="ignore", invalid="ignore"):', "if True:",
     ["test_cli.py"]),
    ("shapley-no-finite-check", "partition.py",
     "if not np.isfinite(values).all():", "if False:",
     ["test_cli.py"]),
    ("project-warns-on-overflow", "logiccode.py",
     'with np.errstate(over="ignore"):', "if True:",
     ["test_cli.py"]),
    ("train-warning-not-recorded", "cli.py",
     'warnings.simplefilter("always", UserWarning)', "pass",
     ["test_cli.py"]),
    # the hypothesis parser's precedence, associativity, error type and nesting bound
    ("parser-and-binds-like-or", "analysis.py",
     '_BINDS = {"or": 1, "xor": 1, "and": 2, "not": 3}',
     '_BINDS = {"or": 1, "xor": 1, "and": 1, "not": 3}',
     ["test_analysis.py"]),
    ("parser-xor-binds-like-and", "analysis.py",
     '_BINDS = {"or": 1, "xor": 1, "and": 2, "not": 3}',
     '_BINDS = {"or": 1, "xor": 2, "and": 2, "not": 3}',
     ["test_analysis.py"]),
    ("parser-not-after-binary-fold", "analysis.py",
     '_BINDS = {"or": 1, "xor": 1, "and": 2, "not": 3}',
     '_BINDS = {"or": 1, "xor": 1, "and": 2, "not": 1}',
     ["test_analysis.py"]),
    ("parser-fold-strictly-tighter", "analysis.py",
     "_BINDS.get(waiting[-1], 0) >= binds:", "_BINDS.get(waiting[-1], 0) > binds:",
     ["test_analysis.py"]),
    ("parser-right-associative", "analysis.py",
     "fold(_BINDS[kind])", "fold(_BINDS[kind] + 1)",
     ["test_analysis.py"]),
    ("parser-error-not-a-value-error", "analysis.py",
     """raise ValueError(f"{why} (at token {pos})")""",
     """raise TypeError(f"{why} (at token {pos})")""",
     ["test_analysis.py", "test_cli.py"]),
    ("parser-no-nesting-check", "analysis.py",
     'if waiting.count("(") + waiting.count("not") == MAX_NESTING:', "if False:",
     ["test_analysis.py"]),
    ("parser-nesting-counts-binary-operators", "analysis.py",
     'if waiting.count("(") + waiting.count("not") == MAX_NESTING:',
     "if len(waiting) == MAX_NESTING:",
     ["test_analysis.py"]),
    ("parser-repeated-name-binds-first-column", "analysis.py",
     "columns = {name: col[j] for j, name in enumerate(names)}",
     "columns = {name: col[j] for j, name in reversed(list(enumerate(names)))}",
     ["test_analysis.py"]),
    # input checks at the boundary
    ("model-input-size-not-power-of-two", "network.py",
     "if ann.input_size.bit_count() != 1:", "if False:",
     ["test_cli.py"]),
    ("project-no-overflow-check", "logiccode.py",
     "if not np.isfinite(projected).all():", "if False:",
     ["test_cli.py"]),
    ("names-with-data-allowed", "cli.py",
     "if names is not None:", "if False:",
     ["test_cli.py"]),
    ("fixed-entry-error-not-named", "cli.py",
     'except ValueError:\n                raise ValueError(f"--fixed entry',
     'except TypeError:\n                raise ValueError(f"--fixed entry',
     ["test_cli.py"]),
    ("hypothesis2-accepts-cell-options", "cli.py",
     'if getattr(args, option[2:].replace("-", "_")) is not None:', "if False:",
     ["test_cli.py"]),
    ("hypothesis2-accepts-level", "cli.py",
     '"--bcl-max", "--level"):', '"--bcl-max"):',
     ["test_cli.py"]),
    # the fuzzifier kind table, and model numbers that must be JSON numbers
    ("fuzzifier-minmax-order-unchecked", "encoding.py",
     'if self.kind == "minmax" and any(l > h for l, h in zip(first, second)):', "if False:",
     ["test_encoding.py", "test_cli.py"]),
    ("fuzzifier-table-names-swapped", "encoding.py",
     '{"minmax": ("lo", "hi"),', '{"minmax": ("hi", "lo"),',
     ["test_encoding.py"]),
    ("fuzzifier-takes-strings-and-bools", "encoding.py",
     " or not set(map(type, d[name])) <= {int, float}", "",
     ["test_encoding.py", "test_cli.py"]),
    ("fuzzifier-keeps-unread-keys", "encoding.py",
     "        if unread:\n", "        if False:\n",
     ["test_encoding.py", "test_cli.py"]),
    ("model-threshold-takes-strings-and-bools", "network.py",
     'if type(doc["threshold"]) not in (int, float):', "if False:",
     ["test_cli.py"]),
    ("model-weights-take-strings-and-bools", "network.py",
     "if not set(map(type, chain.from_iterable(rows))) <= {int, float}:", "if False:",
     ["test_cli.py"]),
    ("model-sizes-take-bools-and-floats", "network.py",
     " or set(map(type, sizes)) != {int}", "",
     ["test_cli.py"]),
    # the dataset reader's fast path, one rule at a time
    ("plain-allows-quote", "cli.py",
     'b"0123456789+-.eE,\\n"', 'b"0123456789+-.eE,\\n\\""',
     ["test_dataset.py"]),
    ("plain-allows-lone-cr", "cli.py",
     'b"0123456789+-.eE,\\n"', 'b"0123456789+-.eE,\\n\\r"',
     ["test_dataset.py"]),
    ("plain-allows-any-ascii", "cli.py",
     'return not text.encode().translate(None, b"0123456789+-.eE,\\n")',
     "return text.isascii()",
     ["test_dataset.py"]),
    ("fast-path-no-field-limit-check", "cli.py",
     " or max(lengths.max(), len(tail)) > limit", "",
     ["test_dataset.py"]),
    ("fast-path-blank-lines-out-of-row-numbers", "cli.py",
     "row_nos.append(filled + first)", "row_nos.append(np.arange(len(filled)) + first)",
     ["test_dataset.py"]),
    ("fast-path-accepts-wrong-width", "cli.py",
     "rows.reshape(len(filled), width)", "rows.reshape(-1, width)",
     ["test_dataset.py"]),
    # the chunked reader: it is taken on plain text, rejoins a CRLF and a line
    # cut by a read, reads the last line without an LF and counts every line;
    # a byte that is not UTF-8 names its row, on either path
    ("fast-path-never-taken", "cli.py",
     "    limit = csv.field_size_limit()\n", "    return None\n",
     ["test_dataset.py"]),
    ("chunk-crlf-split-not-rejoined", "cli.py",
     'text = tail + read\n'
     '        cut = text.rfind("\\n") + 1 if read else len(text)\n'
     '        text, tail = text[:cut], text[cut:]\n'
     '        if "\\r" in text:\n'
     '            text = text.replace("\\r\\n", "\\n")\n',
     'text = tail + read.replace("\\r\\n", "\\n")\n'
     '        cut = text.rfind("\\n") + 1 if read else len(text)\n'
     '        text, tail = text[:cut], text[cut:]\n',
     ["test_dataset.py"]),
    ("chunk-last-line-dropped", "cli.py",
     'cut = text.rfind("\\n") + 1 if read else len(text)', 'cut = text.rfind("\\n") + 1',
     ["test_dataset.py"]),
    ("chunk-row-count-off-by-one", "cli.py",
     "first += len(lines) - 1", "first += len(lines)",
     ["test_dataset.py"]),
    ("not-utf8-row-counts-lf-only", "cli.py",
     'len((data[:exc.start] + b".").splitlines())', 'data.count(b"\\n", 0, exc.start) + 1',
     ["test_cli.py"]),
    ("not-utf8-hidden-by-csv-reader", "cli.py",
     "    except UnicodeDecodeError:\n        raise\n", "",
     ["test_cli.py"]),
    ("input-decode-error-unwrapped", "cli.py",
     "        yield p\n    except UnicodeDecodeError:\n",
     "        yield p\n    except LookupError:\n",
     ["test_cli.py"]),
    # a row is numbered by the file line it starts on, after every header line
    ("fast-path-header-one-line", "cli.py",
     "_split_body(fh, len(header), head.line_num + 1)", "_split_body(fh, len(header), 2)",
     ["test_dataset.py"]),
    ("csv-reader-rows-by-record", "cli.py",
     "ends.append(head.line_num + reader.line_num)", "ends.append(ends[-1] + 1)",
     ["test_dataset.py"]),
    # explain's weights.csv from whole columns, the parser of one subcommand
    # and unique column names
    ("weights-csv-body-lf", "cli.py",
     '{r!r}\\r\\n"', '{r!r}\\n"',
     ["test_cli.py"]),
    ("weights-csv-attribute-bits-lsb-first", "cli.py",
     "reshape(n, 2**n).T", "reshape(n, 2**n)[::-1].T",
     ["test_cli.py"]),
    ("subcommand-parser-without-full-metavar", "cli.py",
     'required=True,\n                                    metavar="{" + ",".join(table) + "}")',
     "required=True)",
     ["test_cli.py"]),
    ("repeated-column-names-allowed", "cli.py",
     "if name in seen:", "if False:",
     ["test_cli.py"]),
    # DOT labels, trend's stdout and the printed digits
    ("dot-labels-unescaped", "qldt.py",
     "for x in labels]", "for x in names]",
     ["test_qldt.py", "test_corpus.py"]),
    ("trend-stdout-bare-commas", "cli.py",
     'csv.writer(head).writerow([*varied, "level_set", "value"])',
     'head.write(",".join([*varied, "level_set", "value"]) + "\\r\\n")',
     ["test_cli.py", "test_corpus.py"]),
    ("trend-stdout-lf-terminator", "cli.py",
     "csv.writer(head).writerow(",
     'csv.writer(head, lineterminator="\\r\\n" if path else "\\n\\n").writerow(',
     ["test_cli.py", "test_corpus.py"]),
    ("fmt-default-digits-4", "cli.py",
     "def _fmt(x, nd=3):", "def _fmt(x, nd=4):",
     ["test_corpus.py"]),
    # a logic expression is a one-level bit tensor
    ("compare-one-level-check-dropped", "analysis.py",
     "    if len(e.bits) != 1 or len(h.bits) != 1:\n"
     '        raise ValueError("a logic expression has one level")\n', "",
     ["test_analysis.py"]),
    # a trend grid is one contraction of the coefficient tensor
    ("trend-descending-pair-not-transposed", "analysis.py",
     "reshape((2,) * n), vary, range(len(vary)))",
     "reshape((2,) * n), sorted(vary), range(len(vary)))",
     ["test_analysis.py"]),
    ("trend-fixed-pair-swapped", "analysis.py",
     "minterm_transform(np.delete(base, vary)[:, None])[::-1]",
     "minterm_transform(np.delete(base, vary)[:, None])[::-1, ::-1]",
     ["test_analysis.py"]),
    # partition's table: a column is as wide as its widest entry
    ("partition-width-fixed", "cli.py",
     "widths = [max(w, *map(len, column)) for w, column in zip((6, 6, 8, 8), zip(*table))]",
     "widths = [6, 6, 8, 8]",
     ["test_cli.py"]),
    # QLDTs as one node table, its DOT text and weights.csv from bit patterns
    ("render-low-high-swapped", "qldt.py",
     "-> n{lo} [style=dashed];\\n  n{p} -> n{hi}", "-> n{hi} [style=dashed];\\n  n{p} -> n{lo}",
     ["test_qldt.py"]),
    ("qldt-size-counts-low-twice", "qldt.py",
     "size[rows] = 1 + size[lo[keep]] + size[hi[keep]]",
     "size[rows] = 1 + 2 * size[lo[keep]]",
     ["test_qldt.py"]),
    ("weights-pattern-bits-reversed", "cli.py",
     "(1 << np.arange(bt.bcl_max, -1, -1)) @ bt.bits", "(1 << np.arange(bt.bcl_max + 1)) @ bt.bits",
     ["test_cli.py"]),
    ("trend-axis-pairs-transposed", "cli.py",
     "for p, v in zip(points, grid.values.ravel().tolist())",
     "for p, v in zip(points, grid.values.T.ravel().tolist())",
     ["test_cli.py"]),
    # levels in fresh arrays, the last into the output; an allocation failure
    ("minterm-last-level-not-in-output", "encoding.py",
     "nxt = out[block] if j == n - 1 else", "nxt = out[block] if j == n else",
     ["test_encoding.py"]),
    ("minterm-n0-empty", "encoding.py",
     "else np.ones((len(rows), 1))", "else np.empty((len(rows), 1))",
     ["test_encoding.py"]),
    ("memory-error-not-caught", "cli.py",
     "except (ValueError, OSError, MemoryError) as exc:", "except (ValueError, OSError) as exc:",
     ["test_cli.py"]),
    # QLDT splits on the largest count gap, its halves cut by one mask a depth
    ("qldt-gap-signed", "qldt.py",
     "np.argmax(np.abs(2 * high - pos[:, None]), axis=1)", "np.argmax(2 * high - pos[:, None], axis=1)",
     ["test_qldt.py"]),
    ("qldt-split-halves-swapped", "qldt.py",
     "np.concatenate([rows[~high], rows[high]])", "np.concatenate([rows[high], rows[~high]])",
     ["test_qldt.py"]),
    # render makes the node numbers once per table, for its largest tree
    ("render-ids-sized-by-first-root", "qldt.py",
     "range(t.size[list(t.roots)].max())", "range(t.size[t.roots[0]])",
     ["test_qldt.py"]),
    # the degrees and the given names cover every attribute the table splits on
    ("eval-qldt-attribute-check-dropped", "qldt.py",
     "    if (top := int(t.attribute.max())) >= len(d):\n", "    if False:\n",
     ["test_qldt.py"]),
    ("render-names-count-unchecked", "qldt.py",
     "if len(names) < need:", "if False:",
     ["test_qldt.py"]),
    # read-only records: each equal only to itself; a seed is a non-negative integer
    ("record-compares-by-fields", "encoding.py",
     '    __slots__ = ("kind", "params")\n',
     '    __slots__ = ("kind", "params")\n'
     "    def __eq__(self, other):\n"
     "        return type(other) is type(self) and self._fields() == other._fields()\n"
     "    __hash__ = lambda self: hash(self._fields())\n",
     ["test_encoding.py"]),
    ("record-field-assignable", "encoding.py",
     'raise AttributeError(f"{type(self).__name__} is read-only")',
     "object.__setattr__(self, name, *value)",
     ["test_encoding.py"]),
    ("trainconfig-negative-seed-accepted", "network.py",
     " or seed < 0:", ":",
     ["test_network.py", "test_cli.py"]),
    # only explain takes --threshold; a learning rate is a real number, not a
    # bool; a model's layers chain
    ("coded-takes-threshold", "cli.py",
     "coded = cell + [bcl_max]", "coded = cell + [threshold, bcl_max]",
     ["test_cli.py"]),
    ("learning-rate-bool-accepted", "network.py",
     "if not _is_real(rate):", "if not (_is_real(rate) or isinstance(rate, bool)):",
     ["test_network.py"]),
    ("layers-chain-check-dropped", "network.py",
     "if b.shape[1] != a.shape[0]:", "if False:",
     ["test_cli.py"]),
    # the trainer screens the loss with a dot and falls back to the exact
    # sum; its first product keeps X @ w_pre.T, whose bits hold on every
    # kernel (w_pre @ X.T into an (l, N) C-order array does not: this
    # SkylakeX kernel gives the same bits, Haswell and Prescott do not);
    # a ReLU node count is an integer, not a bool
    ("train-divergence-pretest-only", "network.py",
     "if not np.dot(d, d) < 1e300 and not math.isfinite(\n"
     "                np.add.reduce(np.square(d, out=sq))\n"
     "            ):",
     "if not np.dot(d, d) < 1e300:",
     ["test_network.py"]),
    ("train-first-product-mirrored", "network.py",
     "np.matmul(X, w_pre_t, out=pre)", "pre[...] = np.matmul(w_pre, X.T).T",
     ["test_network.py"]),
    ("train-relu-nodes-bool-accepted", "network.py",
     "if not _is_int(relu_nodes):", "if not isinstance(relu_nodes, (int, np.integer)):",
     ["test_network.py"]),
    # one integer rule: a Python or numpy integer, not a bool; a numpy bcl_max
    # or cell is widened before its arithmetic; a hypothesis names at most 12
    # attributes
    ("int-predicate-accepts-bool", "encoding.py",
     "isinstance(x, (int, np.integer)) and not isinstance(x, bool)",
     "isinstance(x, (int, np.integer))",
     ["test_logiccode.py", "test_qldt.py"]),
    ("bitcode-numpy-bcl-max-not-widened", "logiccode.py",
     "    bcl_max = int(bcl_max)", "    bcl_max = bcl_max",
     ["test_logiccode.py"]),
    ("cell-numpy-p-not-widened", "partition.py",
     "    p = int(p)", "    p = p",
     ["test_partition.py"]),
    ("parse-hypothesis-names-unbounded", "analysis.py",
     "    if n > MAX_ATTRIBUTES:\n", "    if False:\n",
     ["test_analysis.py"]),
    # index lists follow the integer rule and name each index once, an integer
    # array among them; a fixed degree is a real number
    ("index-list-accepts-bool", "encoding.py",
     "and all(map(_is_int, xs)) and", "and all(isinstance(x, (int, np.integer)) for x in xs) and",
     ["test_logiccode.py", "test_analysis.py"]),
    ("index-list-repeats-accepted", "encoding.py",
     "all(map(_is_int, xs)) and len(set(xs)) == len(xs)", "all(map(_is_int, xs))",
     ["test_logiccode.py", "test_analysis.py"]),
    ("index-list-accepts-bare-int", "encoding.py",
     '(isinstance(xs, (list, tuple, range, np.ndarray)) and getattr(xs, "ndim", 1) == 1\n'
     "            and all(", "(all(",
     ["test_analysis.py"]),
    ("fixed-degree-string-accepted", "analysis.py",
     "if not all(map(_is_real, fixed.values())):", "if False:",
     ["test_analysis.py"]),
    ("project-keep-truth-value", "logiccode.py",
     "    if len(keep) == 0:\n", "    if not keep:\n",
     ["test_logiccode.py"]),
    # render breaks its walk closure's self-reference before it yields
    ("render-walk-cycle-kept", "qldt.py",
     "        del walk\n", "        pass\n",
     ["test_qldt.py"]),
]


def _pytest(tmp: Path, files) -> tuple[bool, str]:
    """Run the test files in the copy; (passed, last output line)."""
    shutil.rmtree(tmp / ".hypothesis", ignore_errors=True)  # no replay across mutants
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *(f"tests/{f}" for f in files)]
    # no bytecode: a mutant and its restored file may share size and mtime
    env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines() or ["(no output)"]
    return proc.returncode == 0, lines[-1]


def main(argv) -> int:
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    if argv and len(chosen) != len(set(argv)):
        known = {m[0] for m in MUTANTS}
        print(f"unknown mutants: {', '.join(sorted(set(argv) - known))}")
        return 2
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="annlogic-mutants-") as d:
        tmp = Path(d)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(ROOT / "src", tmp / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", tmp / "tests", ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tmp)
        files = sorted({f for m in chosen for f in m[4]})
        passed, last = _pytest(tmp, files)
        if not passed:
            print(f"the unchanged copy fails its tests: {last}")
            return 2
        survivors = []
        for name, source, old, new, tests in chosen:
            path = tmp / "src" / "annlogic" / source
            text = path.read_text()
            if text.count(old) != 1:
                print(f"{name}: old text found {text.count(old)} times in {source}")
                survivors.append(name)
                continue
            path.write_text(text.replace(old, new))
            try:
                passed, last = _pytest(tmp, tests)
            finally:
                path.write_text(text)
            print(f"{name}: {'SURVIVED' if passed else 'killed'} ({last})")
            if passed:
                survivors.append(name)
    elapsed = time.perf_counter() - start
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed in {elapsed:.0f} s")
    if survivors:
        print("survivors: " + ", ".join(survivors))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
