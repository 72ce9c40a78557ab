"""Plain-text and CSV rendering of evaluation and clustering results.

Same input, same bytes. Every renderer returns one string, but for the
similarity matrix: `matrix_csv_chunks` and `matrix_text_chunks` are
generators of chunks, rendered in blocks of rows with array code, so the
CLI can stream a large matrix to its file without building the whole
report (`render_matrix_csv` joins the CSV chunks into one string).
Anything that writes files (and stamps seeds into headers) lives in the
CLI.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from .cluster import Clustering, category_distribution
from .evaluation import EvaluationReport, GridResult
from .semsim import SimilarityMatrix


def csv_text(header, rows) -> str:
    """A header row, then the rows (any iterable), as '\\n'-ended CSV lines."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _combo_label(combination: tuple[str, ...]) -> str:
    return "+".join(combination)


def _aligned(rows: list[list[str]]) -> str:
    """Rows as an aligned table: first column left-aligned, the rest
    right-aligned, two spaces apart, trailing blanks stripped."""
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    lines = []
    for row in rows:
        first = row[0].ljust(widths[0])
        rest = [cell.rjust(widths[c + 1]) for c, cell in enumerate(row[1:])]
        lines.append("  ".join([first] + rest).rstrip())
    return "\n".join(lines) + "\n"


def _cells_csv(cells, classes: tuple[str, ...]) -> str:
    """CSV with one row per (feature sets, algorithm, report) cell: the
    weighted F1, then precision, recall, F1 and support for each class."""
    header = ["feature_sets", "algorithm", "weighted_f1"]
    for name in classes:
        header += [
            f"precision[{name}]",
            f"recall[{name}]",
            f"f1[{name}]",
            f"support[{name}]",
        ]
    rows = []
    for sets, algorithm, report in cells:
        row = [sets, algorithm, f"{report.weighted_f1:.6f}"]
        for name in classes:
            metrics = report.per_class[name]
            row += [
                f"{metrics.precision:.6f}",
                f"{metrics.recall:.6f}",
                f"{metrics.f1:.6f}",
                str(metrics.support),
            ]
        rows.append(row)
    return csv_text(header, rows)


def render_grid_text(grid: GridResult) -> str:
    """Aligned grid of weighted F1 scores: one row per feature-set
    combination, one column per algorithm."""
    rows = [["feature_sets"] + list(grid.algorithms)]
    for combo in grid.combinations:
        rows.append(
            [_combo_label(combo)]
            + [f"{grid.weighted_f1(combo, a):.3f}" for a in grid.algorithms]
        )
    return _aligned(rows)


def render_grid_csv(grid: GridResult) -> str:
    """One CSV row per grid cell with the per-class metric block appended.

    All cells share the corpus, so the class columns are identical across
    rows.
    """
    cells = [
        (_combo_label(combo), algorithm, grid.reports[(combo, algorithm)])
        for combo in grid.combinations
        for algorithm in grid.algorithms
    ]
    return _cells_csv(cells, cells[0][2].classes)


def render_report_csv(report: EvaluationReport) -> str:
    """Single evaluation cell in the grid-CSV column scheme, one data row."""
    echo = report.config_echo
    cell = (
        _combo_label(echo.get("feature_sets", ())) or "-",
        echo.get("algorithm") or "-",
        report,
    )
    return _cells_csv([cell], report.classes)


# "%03d" of 0..999, its three ASCII digits packed little-endian into the
# low bytes of a uint64.
_DIGITS = np.array(
    [int.from_bytes(b"%03d" % i, "little") for i in range(1000)], dtype="<u8"
)
# Matrix cells rendered per block of rows. Rendering a 250 x 250 matrix
# peaked at 1.14 MB of traced memory with 2**12 cells a block, as a join of
# "%.6f" cells does, against 1.84 MB with 2**14 cells, which also raised
# the sim-cluster benchmark's peak RSS by about 0.5 MB.
_BLOCK_CELLS = 2**12


def _matrix_blocks(values, places: int, sep: str, widths, heads):
    """Yield the rows of `values` (cells in [0, 1]) in blocks of about
    _BLOCK_CELLS cells, one string per block. Each row is its head, then
    every cell as "%.{places}f" prints it, right-aligned to its column's
    width after `sep`, then a newline. `places` is 3 or 6.

    Cells are rounded with np.rint and spelled from a digit table, each
    into the bytes of one uint64, then laid into one byte block that is
    decoded once. A cell within 1e-6 of a rounding tie in v * 10**places,
    where rint of the product could round otherwise than % rounds the
    exact decimal (a margin far wider than the product's own error, below
    1e-10), or a -0.0 cell, which % prints with its sign and so one byte
    wider, sends its whole row to % formatting.
    """
    cell_width = places + 2
    scale = 10**places
    line = "".join(
        sep + " " * (w - cell_width) + "0" * cell_width for w in widths
    )
    template = np.frombuffer(line.encode("ascii"), dtype=np.uint8)
    ends = np.cumsum([len(sep) + w for w in widths], dtype=np.intp)
    digits_at = ((ends - cell_width)[:, None] + np.arange(cell_width)).ravel()
    row_format = "".join(f"{sep}%{w}.{places}f" for w in widths)
    step = max(1, _BLOCK_CELLS // max(1, len(widths)))
    for start in range(0, len(values), step):
        block = values[start:start + step]
        scaled = block * scale
        rounded = np.rint(scaled)
        units = rounded.astype(np.int64)
        # "0." or, for a cell that rounds to 1, "1."
        cells = np.full(block.shape, ord("0") | ord(".") << 8, dtype="<u8")
        cells += units == scale
        for group in range(places // 3, 0, -1):
            high = units // 1000  # far faster than np.divmod on integers
            digits = np.take(_DIGITS, units - high * 1000)
            cells |= digits << (24 * group - 8)
            units = high
        cells = cells.view(np.uint8).reshape(block.shape + (8,))
        cells = cells[..., :cell_width]
        lines = np.tile(template, (len(block), 1))
        lines[:, digits_at] = cells.reshape(len(block), -1)
        text = lines.tobytes().decode("ascii")
        rows = [text[i:i + template.size]
                for i in range(0, len(text), template.size)]
        # where rint and % could round a tie apart, or % prints a sign
        tie = 0.5 - np.abs(scaled - rounded) < 1e-6
        by_percent = (tie | np.signbit(block)).any(axis=1)
        for i in np.flatnonzero(by_percent).tolist():
            rows[i] = row_format % tuple(block[i].tolist())
        heads_here = heads[start:start + step]
        yield "".join(head + row + "\n" for head, row in zip(heads_here, rows))


def matrix_csv_chunks(matrix: SimilarityMatrix):
    """`render_matrix_csv` in chunks: the header row, then blocks of rows."""
    ids = matrix.task_ids
    header = csv_text(["id", *ids], ())
    # Each id as the one csv.writer call quoted it: a quoted field starts
    # with '"' and doubles every '"' inside it.
    quoted, pos = [], len("id,")
    for task_id in ids:
        if header.startswith('"', pos):
            task_id = '"' + task_id.replace('"', '""') + '"'
        quoted.append(task_id)
        pos += len(task_id) + 1
    yield header
    yield from _matrix_blocks(matrix.values, 6, ",", [8] * len(ids), quoted)


def matrix_text_chunks(matrix: SimilarityMatrix):
    """Aligned similarity table, three decimal places, laid out as
    `_aligned` lays out its rows, in chunks: the header line, then blocks
    of rows. Readable only for small corpora; the CSV carries the full
    precision."""
    ids = matrix.task_ids
    # a cell prints 5 wide, or 6 as "-0.000"
    signed = np.signbit(matrix.values).any(axis=0).tolist()
    widths = [max(len(task_id), 6 if wide else 5)
              for task_id, wide in zip(ids, signed)]
    first = max([len("id")] + [len(task_id) for task_id in ids])
    header = ["id".ljust(first)]
    header += [task_id.rjust(w) for task_id, w in zip(ids, widths)]
    yield "  ".join(header).rstrip() + "\n"
    heads = [task_id.ljust(first) for task_id in ids]
    yield from _matrix_blocks(matrix.values, 3, "  ", widths, heads)


def render_matrix_csv(matrix: SimilarityMatrix) -> str:
    """Pairwise similarities, ids on both axes, six decimal places."""
    return "".join(matrix_csv_chunks(matrix))


def render_report_text(report: EvaluationReport) -> str:
    """Full single-cell report: per-class table, confusion matrix, weighted
    F1 and the per-fold scores."""
    lines: list[str] = []
    echo = report.config_echo
    if echo:
        sets = "+".join(echo.get("feature_sets", ()))
        lines.append(
            f"cell: feature_sets={sets} algorithm={echo.get('algorithm')} "
            f"k={echo.get('k')} seed={echo.get('seed')}"
        )
    lines.append(f"instances: {report.n_instances}")
    lines.append(f"weighted_f1: {report.weighted_f1:.6f}")
    if report.fold_scores:
        folds = " ".join(f"{s:.6f}" for s in report.fold_scores)
        lines.append(f"fold_weighted_f1: {folds}")
    lines.append("")

    name_w = max(len("class"), *(len(c) for c in report.classes))
    lines.append(
        f"{'class'.ljust(name_w)}  precision  recall     f1         support"
    )
    for name in report.classes:
        m = report.per_class[name]
        lines.append(
            f"{name.ljust(name_w)}  {m.precision:<9.6f}  {m.recall:<9.6f}  "
            f"{m.f1:<9.6f}  {m.support}"
        )
    lines.append("")

    lines.append("confusion (rows actual, columns predicted):")
    cell_w = max(
        (len(str(int(v))) for v in report.confusion.ravel()), default=1
    )
    cell_w = max(cell_w, *(len(c) for c in report.classes))
    header = " ".join(c.rjust(cell_w) for c in report.classes)
    lines.append(f"{' ' * name_w} {header}")
    for i, name in enumerate(report.classes):
        row = " ".join(
            str(int(v)).rjust(cell_w) for v in report.confusion[i]
        )
        lines.append(f"{name.ljust(name_w)} {row}")
    return "\n".join(lines) + "\n"


def _distribution_cells(clustering: Clustering, corpus):
    table = category_distribution(clustering, corpus)
    categories = sorted({c for row in table.values() for c in row})
    sizes = np.bincount(list(clustering.assignments.values()), minlength=clustering.k)
    return table, categories, sizes.tolist()


def render_distribution_text(clustering: Clustering, corpus) -> str:
    """Aligned category-distribution table: one row per cluster, one column
    per category, '-' where a category has no members in the cluster."""
    table, categories, sizes = _distribution_cells(clustering, corpus)
    header = ["cluster", "size"] + categories
    rows = [header]
    for cluster in sorted(table):
        cells = [str(cluster), str(sizes[cluster])]
        for category in categories:
            value = table[cluster].get(category)
            cells.append("-" if value is None else f"{value:.2f}")
        rows.append(cells)
    widths = [max(len(row[c]) for row in rows) for c in range(len(header))]
    lines = []
    for row in rows:
        lines.append(
            "  ".join(cell.rjust(widths[c]) for c, cell in enumerate(row))
        )
    return "\n".join(lines) + "\n"


def render_distribution_csv(clustering: Clustering, corpus) -> str:
    """CSV twin of the distribution table, same '-' convention."""
    table, categories, sizes = _distribution_cells(clustering, corpus)
    rows = []
    for cluster in sorted(table):
        row = [str(cluster), str(sizes[cluster]), clustering.medoids[cluster]]
        for category in categories:
            value = table[cluster].get(category)
            row.append("-" if value is None else f"{value:.6f}")
        rows.append(row)
    return csv_text(["cluster", "size", "medoid"] + categories, rows)
