"""Synthetic task generation: determinism, overlap semantics, balance."""

import hashlib

import numpy as np
import pytest

from fuselab.errors import ContractError
from fuselab.tasks import (
    SPLITS,
    Dataset,
    Task,
    TaskSuite,
    export_task,
    import_task,
    make_task_suite,
    teacher_agreement,
)


def test_full_overlap_identical_label_functions():
    suite = make_task_suite(n_tasks=3, task_overlap=1.0, seed=11, samples_per_split=64)
    assert teacher_agreement(suite, n_points=2000, probe_seed=5) == 1.0


def test_determinism_bit_identical():
    a = make_task_suite(seed=7, samples_per_split=64)
    b = make_task_suite(seed=7, samples_per_split=64)
    for ta, tb in zip(a.tasks, b.tasks):
        assert ta.train.xs.tobytes() == tb.train.xs.tobytes()
        assert ta.train.ys.tobytes() == tb.train.ys.tobytes()
        assert ta.teacher.equal_bits(tb.teacher)


def test_zero_overlap_agreement_near_chance():
    suite = make_task_suite(n_tasks=4, num_classes=3, task_overlap=0.0, seed=3,
                            samples_per_split=64)
    agreement = teacher_agreement(suite, n_points=10000, probe_seed=1)
    assert abs(agreement - 1.0 / 3.0) < 0.05


def test_splits_disjoint_and_balanced():
    suite = make_task_suite(seed=19, samples_per_split=32, num_classes=3)
    for task in suite.tasks:
        train = {row.tobytes() for row in task.train.xs}
        val = {row.tobytes() for row in task.val.xs}
        test = {row.tobytes() for row in task.test.xs}
        assert not (train & val) and not (train & test) and not (val & test)
        for split in (task.train, task.val, task.test):
            assert set(np.unique(split.ys)) == {0, 1, 2}


def test_too_few_samples_rejected():
    with pytest.raises(ContractError):
        make_task_suite(num_classes=5, samples_per_split=3, seed=0)


def test_single_task_rejected():
    with pytest.raises(ContractError):
        make_task_suite(n_tasks=1, seed=0)


@pytest.mark.parametrize("xs, ys", [
    (np.zeros((2, 2)), [0.5, 1.7]),
    (np.zeros((2, 2)), [True, False]),
    (np.zeros((2, 2)), [np.nan, 1.0]),
    (np.zeros((2, 2)), [1e30, 0.0]),
    (np.zeros((2, 2)), ["0", "1"]),
    ([["a", "b"], ["c", "d"]], [0, 1]),
    ([[True, False], [False, True]], [0, 1]),
], ids=["fractional_labels", "bool_labels", "nan_label", "label_beyond_int64", "string_labels",
        "string_features", "bool_features"])
def test_dataset_refuses_what_its_casts_would_change(xs, ys):
    # The int64 cast made [0.5, 1.7] into [0, 1] and [True, False] into
    # [1, 0]; a NaN label and string features raised numpy's ValueError.
    with pytest.raises(ContractError):
        Dataset(xs, ys)


def test_dataset_takes_whole_number_float_labels():
    ds = Dataset(np.zeros((2, 2)), [1.0, 0.0])
    assert ds.ys.dtype == np.int64 and ds.ys.tolist() == [1, 0]


def test_export_import_round_trip(tmp_path):
    suite = make_task_suite(seed=23, samples_per_split=16, input_dim=5)
    task = suite.tasks[0]
    path = tmp_path / "task0.csv"
    export_task(task, path, suite)
    loaded, meta = import_task(path)
    assert meta["task_id"] == "task0"
    assert int(meta["seed"]) == 23
    for split in ("train", "val", "test"):
        orig, back = getattr(task, split), getattr(loaded, split)
        assert np.array_equal(orig.xs, back.xs)
        assert np.array_equal(orig.ys, back.ys)


def test_export_deterministic_bytes(tmp_path):
    suite = make_task_suite(seed=29, samples_per_split=16)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    export_task(suite.tasks[1], p1, suite)
    export_task(suite.tasks[1], p2, suite)
    assert p1.read_bytes() == p2.read_bytes()


def per_value_rows(task) -> list[str]:
    """The data rows of ``task`` formatted value by value: the reference for ``export_task``."""
    return [f"{name},{label}," + ",".join("%.17g" % v for v in row)
            for name in SPLITS for row, label in zip(getattr(task, name).xs, getattr(task, name).ys)]


@pytest.mark.parametrize("xs", [
    [[-0.0, 5e-324, 1.7976931348623157e308], [0.1, -2.5, 1e-300], [3.0, -1.7976931348623157e308, 0.0]],
    [[-0.0], [5e-324], [1.7976931348623157e308]],
], ids=["three_features", "one_feature"])
def test_each_data_row_is_the_per_value_format(tmp_path, xs):
    xs = np.array(xs)
    ds = Dataset(xs, np.arange(len(xs)) % 2)
    task = Task("task0", ds, Dataset(ds.xs[[2, 0]], ds.ys[[2, 0]]), Dataset(ds.xs[[1]], ds.ys[[1]]))
    suite = TaskSuite((task,), seed=0, input_dim=xs.shape[1], num_classes=2, task_overlap=0.5)
    path = tmp_path / "task0.csv"
    export_task(task, path, suite)
    assert path.read_text().splitlines()[3:] == per_value_rows(task)
    loaded, _ = import_task(path)
    assert loaded.train.xs.tobytes() == xs.tobytes()


def _exported_lines(tmp_path):
    suite = make_task_suite(seed=31, samples_per_split=16, input_dim=4)
    path = tmp_path / "task0.csv"
    export_task(suite.tasks[0], path, suite)
    return path, path.read_text().splitlines()


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n")


def test_import_rejects_an_edited_value(tmp_path):
    path, lines = _exported_lines(tmp_path)
    split, label, first, rest = lines[5].split(",", 3)
    lines[5] = ",".join([split, label, repr(float(first) + 0.5), rest])
    _write(path, lines)
    with pytest.raises(ContractError, match="content_digest"):
        import_task(path)


def test_import_rejects_a_dropped_row(tmp_path):
    path, lines = _exported_lines(tmp_path)
    _write(path, lines[:-1])
    with pytest.raises(ContractError, match="content_digest"):
        import_task(path)


def test_import_rejects_counts_that_disagree_with_the_rows(tmp_path):
    # A dropped row whose digest was recomputed still fails on the header's count.
    path, lines = _exported_lines(tmp_path)
    rows = lines[3:-1]
    digest = "sha256:" + hashlib.sha256("".join(r + "\n" for r in rows).encode()).hexdigest()
    header = " ".join(f"content_digest={digest}" if part.startswith("content_digest=") else part
                      for part in lines[1].split(" "))
    _write(path, [lines[0], header, lines[2], *rows])
    with pytest.raises(ContractError, match="test rows"):
        import_task(path)


def _write_consistent(path, lines):
    """Write ``lines`` with the header's content_digest and counts made to agree."""
    rows = lines[3:]
    counts = {name: sum(r.startswith(name + ",") for r in rows) for name in ("train", "val", "test")}
    digest = "sha256:" + hashlib.sha256("".join(r + "\n" for r in rows).encode()).hexdigest()
    header = []
    for part in lines[1].split(" "):
        key = part.partition("=")[0]
        if key == "content_digest":
            part = f"content_digest={digest}"
        elif key in counts:
            part = f"{key}={counts[key]}"
        header.append(part)
    _write(path, [lines[0], " ".join(header), lines[2], *rows])


@pytest.mark.parametrize("edit", [
    lambda lines: [lines[0], lines[1].replace("task_id=task0 ", ""), *lines[2:]],
    lambda lines: [lines[0], lines[1], "split,label", *(",".join(r.split(",")[:2]) for r in lines[3:])],
    lambda lines: [*lines[:3], *(r for r in lines[3:] if not r.startswith("val,"))],
], ids=["no_task_id", "no_feature_columns", "empty_split"])
def test_import_rejects_malformed_headers_naming_the_file(tmp_path, edit):
    # A missing task_id used to raise a KeyError, a header of two columns
    # read rows without features, and an empty split a ContractError that
    # did not name the file.
    path, lines = _exported_lines(tmp_path)
    _write_consistent(path, edit(lines))
    with pytest.raises(ContractError, match=str(path)):
        import_task(path)


@pytest.mark.parametrize("row", [0, 7])
@pytest.mark.parametrize("column", [0, 3])
def test_a_bad_feature_names_its_line(tmp_path, row, column):
    # float() reads nan and inf, which used to load and then fail training
    # as a divergence rather than as malformed input.
    path, lines = _exported_lines(tmp_path)
    for value in ("1.5e", "nan", "inf", "-inf"):
        parts = lines[3 + row].split(",")
        parts[2 + column] = value
        _write_consistent(path, [*lines[:3 + row], ",".join(parts), *lines[4 + row:]])
        with pytest.raises(ContractError, match=f"line {4 + row} is not a data row"):
            import_task(path)


def test_import_rejects_a_file_that_is_not_utf8(tmp_path):
    path, lines = _exported_lines(tmp_path)
    path.write_bytes(path.read_bytes().replace(b"train,", b"tr\xffin,", 1))
    with pytest.raises(ContractError, match=str(path)):
        import_task(path)
