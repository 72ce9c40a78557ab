"""Plain-text and CSV rendering of evaluation and clustering results.

Renderers are pure string builders: same input, same bytes. Anything that
writes files (and stamps seeds into headers) lives in the CLI.
"""

from __future__ import annotations

import csv
import io

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


def _csv_field(value: str) -> str:
    """One field as csv.writer quotes it in a row of several fields."""
    return csv_text([value, ""], ())[:-2]


def render_matrix_csv(matrix: SimilarityMatrix) -> str:
    """Pairwise similarities, ids on both axes, six decimal places; each row
    is one format call, as no "%.6f" cell needs quoting."""
    row = "," + ",".join(["%.6f"] * len(matrix.task_ids)) + "\n"
    return csv_text(["id", *matrix.task_ids], ()) + "".join(
        _csv_field(task_id) + row % tuple(values.tolist())
        for task_id, values in zip(matrix.task_ids, matrix.values)
    )


def render_matrix_text(matrix: SimilarityMatrix) -> str:
    """Aligned similarity table; readable only for small corpora, the CSV
    twin carries the full precision."""
    rows = [["id"] + list(matrix.task_ids)]
    for task_id, values in zip(matrix.task_ids, matrix.values):
        rows.append([task_id] + ["%.3f" % v for v in values.tolist()])
    return _aligned(rows)


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
    sizes = {
        cluster: len(clustering.members(cluster))
        for cluster in range(clustering.k)
    }
    return table, categories, sizes


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
