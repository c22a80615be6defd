"""CSV persistence for fusion datasets.

A dataset is stored as up to four plain CSV files in a directory::

    observations.csv      source,object,value          (required)
    ground_truth.csv      object,value                 (optional)
    source_features.csv   source,feature,value         (optional)
    true_accuracies.csv   source,accuracy              (optional)

All identifiers round-trip as strings; feature values are parsed back to
bool/int/float when they look like one (the simulators only emit such
types).  This keeps the on-disk format trivially inspectable and
diff-friendly.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Union

from ..fusion.dataset import FusionDataset
from ..fusion.types import DatasetError

_OBSERVATIONS = "observations.csv"
_GROUND_TRUTH = "ground_truth.csv"
_FEATURES = "source_features.csv"
_ACCURACIES = "true_accuracies.csv"


def _parse_scalar(text: str) -> object:
    """Best-effort parse of a CSV cell back to bool/int/float/str."""
    if text == "True":
        return True
    if text == "False":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def save_dataset(dataset: FusionDataset, directory: Union[str, Path]) -> Path:
    """Write ``dataset`` into ``directory`` (created if missing).

    ``observations.csv`` is written from :meth:`FusionDataset.id_columns`,
    so each value is its domain's stored representative (claims that agree
    in the dataset agree on reload) and no record is built per claim.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    with open(directory / _OBSERVATIONS, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["source", "object", "value"])
        writer.writerows(zip(*dataset.id_columns()))

    if dataset.ground_truth:
        with open(directory / _GROUND_TRUTH, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["object", "value"])
            for obj, value in dataset.ground_truth.items():
                writer.writerow([obj, value])

    if dataset.source_features:
        with open(directory / _FEATURES, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["source", "feature", "value"])
            for source, features in dataset.source_features.items():
                for name, value in features.items():
                    writer.writerow([source, name, value])

    if dataset.true_accuracies:
        with open(directory / _ACCURACIES, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["source", "accuracy"])
            for source, accuracy in dataset.true_accuracies.items():
                writer.writerow([source, accuracy])

    return directory


def _rows(path: Path, columns: Sequence[str]) -> Iterator:
    """Read one CSV file with a header row, validating every data row.

    Yields the position of each of ``columns`` in the header first (as one
    tuple), then every data row as a list of strings.  Columns are found
    by header name, so their order in the file is free; blank lines are
    skipped.  A header without one of ``columns``, or a row whose field
    count differs from the header's, raises :class:`DatasetError` naming
    the file (and the column, or the line).
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next((row for row in reader if row), [])
        # Like csv.DictReader, a repeated header name maps to its last column.
        position = {name: i for i, name in enumerate(header)}
        missing = [name for name in columns if name not in position]
        if missing:
            raise DatasetError(f"{path}: no {missing[0]!r} column in header {header}")
        yield tuple(position[name] for name in columns)
        width = len(header)
        for row in reader:
            if len(row) != width:
                if not row:
                    continue
                raise DatasetError(
                    f"{path}, line {reader.line_num}: expected {width} fields "
                    f"({', '.join(header)}), got {len(row)}"
                )
            yield row


def load_dataset(directory: Union[str, Path], name: str = "loaded") -> FusionDataset:
    """Read a dataset previously written by :func:`save_dataset`.

    Observations are parsed straight into three id columns and handed to
    :meth:`FusionDataset.from_columns`, so no per-claim record is built.
    A malformed file (a missing column, a row with the wrong number of
    fields) raises :class:`DatasetError` naming the file.
    """
    directory = Path(directory)
    obs_path = directory / _OBSERVATIONS
    if not obs_path.exists():
        raise DatasetError(f"missing {obs_path}")

    sources: List[str] = []
    objects: List[str] = []
    values: List[str] = []
    add_source, add_object, add_value = sources.append, objects.append, values.append
    rows = _rows(obs_path, ("source", "object", "value"))
    at_source, at_object, at_value = next(rows)
    for row in rows:
        add_source(row[at_source])
        add_object(row[at_object])
        add_value(row[at_value])

    ground_truth: Dict[str, str] = {}
    gt_path = directory / _GROUND_TRUTH
    if gt_path.exists():
        rows = _rows(gt_path, ("object", "value"))
        at_object, at_value = next(rows)
        for row in rows:
            ground_truth[row[at_object]] = row[at_value]

    source_features: Dict[str, Dict[str, object]] = {}
    feat_path = directory / _FEATURES
    if feat_path.exists():
        rows = _rows(feat_path, ("source", "feature", "value"))
        at_source, at_feature, at_value = next(rows)
        for row in rows:
            source_features.setdefault(row[at_source], {})[row[at_feature]] = _parse_scalar(
                row[at_value]
            )

    true_accuracies: Dict[str, float] = {}
    acc_path = directory / _ACCURACIES
    if acc_path.exists():
        rows = _rows(acc_path, ("source", "accuracy"))
        at_source, at_accuracy = next(rows)
        for row in rows:
            true_accuracies[row[at_source]] = float(row[at_accuracy])

    return FusionDataset.from_columns(
        sources,
        objects,
        values,
        ground_truth=ground_truth,
        source_features=source_features,
        true_accuracies=true_accuracies,
        name=name,
    )
