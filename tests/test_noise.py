from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import apply_class_conditional_noise, reference_matrix
from pretermalc.bench import BenchmarkReport, RepeatResult
from pretermalc.net import IDENTITY
from pretermalc.noise import CorruptionMatrix, EstimationError, corruption_layer, estimate_corruption_matrix
from pretermalc.records import Label, LabeledExample, PatientRecord, Role, Visit

REFERENCE_ENTRIES = np.array([[0.68, 0.32], [0.20, 0.80]])


def dual_example(i, clean, noisy):
    visit = Visit(day=1, codes=frozenset({0}), t_adm=1500, t_dis=1600)
    rec = PatientRecord(
        patient_id=f"p{i:05d}", hospital_id="h00", role=Role.MOTHER,
        visits=(visit,), delivery_day=1,
    )
    return LabeledExample(record=rec, clean_label=clean, noisy_label=noisy)


def examples_with_counts(counts):
    out = []
    k = 0
    for i in range(2):
        for j in range(2):
            for _ in range(counts[i][j]):
                out.append(dual_example(k, Label(i), Label(j)))
                k += 1
    return out


# --- matrix invariants ----------------------------------------------------------


# A row of a count table: n >= 1 clean-class examples, k of them kept.
count_rows = st.integers(1, 2**40).flatmap(lambda n: st.integers(0, n).map(lambda k: (k, n - k)))


def test_matrix_validation():
    with pytest.raises(ValueError, match="must be 2x2, got shape \\(3, 3\\)"):
        CorruptionMatrix(np.eye(3, dtype=np.int64))
    with pytest.raises(ValueError, match="must be integers, got dtype float64"):
        CorruptionMatrix(np.array([[6.0, 4.0], [2.0, 8.0]]))
    with pytest.raises(ValueError, match="must be integers, got dtype float64"):
        CorruptionMatrix(np.array([[6, 4], [np.nan, 8]]))
    with pytest.raises(ValueError, match="must be non-negative"):
        CorruptionMatrix(np.array([[-1, 2], [0, 1]]))
    with pytest.raises(EstimationError, match="^no dual-labeled examples with clean label FULL_TERM; cannot estimate"):
        CorruptionMatrix(np.array([[3, 1], [0, 0]]))


def test_identity():
    assert np.array_equal(IDENTITY.entries, np.eye(2))
    assert np.array_equal(IDENTITY.counts, np.eye(2))
    for array in (IDENTITY.counts, IDENTITY.entries):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 7
    # The matrix, and the benchmark types that hold one, compare and hash by identity.
    result = RepeatResult(0, IDENTITY, (Label.PRETERM,), {"ALC": np.array([0.5])})
    report = BenchmarkReport([result], "")
    for a, b in (
        (IDENTITY, CorruptionMatrix(np.eye(2, dtype=int))),
        (result, RepeatResult(0, IDENTITY, (Label.PRETERM,), {"ALC": np.array([0.5])})),
        (report, BenchmarkReport([result], "")),
    ):
        assert a == a and a != b
        assert hash(a) == hash(a)


@given(count_rows, count_rows)
def test_entries_are_counts_over_row_sums(preterm, full_term):
    counts = np.array([preterm, full_term])
    c = CorruptionMatrix(counts)
    assert np.array_equal(c.counts, counts)
    assert np.array_equal(c.entries, counts / counts.sum(axis=1)[:, None])
    assert np.all(np.abs(c.entries.sum(axis=1) - 1.0) <= 1e-12)


# --- estimator ------------------------------------------------------------------


def test_estimator_reference_frequencies():
    examples = examples_with_counts([[68, 32], [20, 80]])
    c = estimate_corruption_matrix(examples)
    assert np.allclose(c.entries, REFERENCE_ENTRIES, atol=0, rtol=0)
    assert c.counts.tolist() == [[68, 32], [20, 80]]
    assert c.counts[Label.PRETERM].sum() == 100
    assert c.counts[Label.FULL_TERM].sum() == 100


def test_estimator_identity_when_labels_agree():
    examples = examples_with_counts([[7, 0], [0, 11]])
    c = estimate_corruption_matrix(examples)
    assert np.array_equal(c.entries, np.eye(2))


def test_estimator_small_counts_exact_rationals():
    # (Pre,Pre), (Pre,Full), (Pre,Pre), (Full,Full)
    examples = examples_with_counts([[2, 1], [0, 1]])
    c = estimate_corruption_matrix(examples)
    expected = [[Fraction(2, 3), Fraction(1, 3)], [Fraction(0), Fraction(1)]]
    for i in range(2):
        for j in range(2):
            assert c.entries[i, j] == float(expected[i][j])


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=40))
def test_estimator_equals_normalized_confusion_counts(pairs):
    counts = [[0, 0], [0, 0]]
    for i, j in pairs:
        counts[i][j] += 1
    examples = examples_with_counts(counts)
    if counts[0][0] + counts[0][1] == 0 or counts[1][0] + counts[1][1] == 0:
        with pytest.raises(EstimationError, match="PRETERM|FULL_TERM"):
            estimate_corruption_matrix(examples)
        return
    c = estimate_corruption_matrix(examples)
    for i in range(2):
        row_n = counts[i][0] + counts[i][1]
        for j in range(2):
            assert c.entries[i, j] == counts[i][j] / row_n
    assert abs(c.entries[0].sum() - 1.0) <= 1e-12
    assert abs(c.entries[1].sum() - 1.0) <= 1e-12


def test_estimator_error_names_empty_class():
    with pytest.raises(EstimationError, match="FULL_TERM"):
        estimate_corruption_matrix(examples_with_counts([[3, 1], [0, 0]]))
    with pytest.raises(EstimationError, match="PRETERM"):
        estimate_corruption_matrix(examples_with_counts([[0, 0], [1, 3]]))


def test_estimator_rejects_single_label_example():
    bad = LabeledExample(
        record=dual_example(0, Label.PRETERM, Label.PRETERM).record,
        clean_label=Label.PRETERM,
    )
    with pytest.raises(EstimationError, match="lacks"):
        estimate_corruption_matrix([bad])


# --- applying noise ---------------------------------------------------------------


def test_apply_identity_keeps_labels():
    labels = [Label.PRETERM, Label.FULL_TERM] * 10
    assert apply_class_conditional_noise(labels, IDENTITY, seed=3) == labels


def test_apply_antidiagonal_flips_all():
    flip = CorruptionMatrix(np.array([[0, 1], [1, 0]]))
    labels = [Label.PRETERM, Label.FULL_TERM] * 10
    flipped = apply_class_conditional_noise(labels, flip, seed=3)
    assert all(a != b for a, b in zip(labels, flipped))


def test_apply_matches_binomial_rate():
    c = reference_matrix()
    labels = [Label.PRETERM] * 10_000
    noisy = apply_class_conditional_noise(labels, c, seed=11)
    flipped = sum(1 for y in noisy if y is Label.FULL_TERM) / len(labels)
    assert abs(flipped - 0.32) < 0.015  # 3 sigma of Binomial(10000, 0.32)


def test_apply_deterministic_given_seed():
    c = reference_matrix()
    labels = [Label.PRETERM, Label.FULL_TERM] * 50
    assert apply_class_conditional_noise(labels, c, 7) == apply_class_conditional_noise(labels, c, 7)


def test_estimate_then_apply_reproduces_joint_distribution():
    rng = np.random.default_rng(5)
    clean = [Label(int(v)) for v in rng.integers(0, 2, size=10_000)]
    c_true = reference_matrix()
    noisy = apply_class_conditional_noise(clean, c_true, seed=17)
    examples = [dual_example(k, y, t) for k, (y, t) in enumerate(zip(clean, noisy))]
    c_hat = estimate_corruption_matrix(examples)
    for i in range(2):
        n_i = c_hat.counts[i].sum()
        sigma = np.sqrt(REFERENCE_ENTRIES[i, 0] * REFERENCE_ENTRIES[i, 1] / n_i)
        assert np.all(np.abs(c_hat.entries[i] - REFERENCE_ENTRIES[i]) < 3 * sigma)


# --- corrected probabilities -------------------------------------------------------


def test_corrected_identity_is_exact():
    p = np.array([0.3, 0.7])
    q, _ = corruption_layer(p, IDENTITY)
    assert np.array_equal(q, p)


def test_corrected_reference_rows():
    c = reference_matrix()
    assert np.allclose(corruption_layer(np.array([1.0, 0.0]), c)[0], [0.68, 0.32])
    assert np.allclose(corruption_layer(np.array([0.5, 0.5]), c)[0], [0.44, 0.56])


def test_corrected_batch_shape():
    c = reference_matrix()
    p = np.array([[1.0, 0.0], [0.0, 1.0], [0.25, 0.75]])
    q, _ = corruption_layer(p, c)
    assert q.shape == (3, 2)
    assert np.allclose(q[0], [0.68, 0.32])
    assert np.allclose(q[1], [0.20, 0.80])


def test_corrected_rejects_non_distribution():
    c = reference_matrix()
    with pytest.raises(ValueError):
        corruption_layer(np.array([0.9, 0.9]), c)


@given(st.floats(0.0, 1.0), count_rows, count_rows)
def test_corrected_preserves_distribution(p0, preterm, full_term):
    p = np.array([p0, 1.0 - p0])
    c = CorruptionMatrix(np.array([preterm, full_term]))
    q, _ = corruption_layer(p, c)
    assert abs(q.sum() - 1.0) < 1e-12
    assert np.all(q >= -1e-15) and np.all(q <= 1.0 + 1e-15)


# --- persistence: each benchmark repeat's Ĉ, as c_hat.csv holds it -------------------


def c_hat_csv(*matrices: CorruptionMatrix) -> str:
    return BenchmarkReport([RepeatResult(r, c, (), {}) for r, c in enumerate(matrices)], "").c_hat_csv()


def test_saved_matrix_is_one_line_of_fixed_text():
    c = estimate_corruption_matrix(examples_with_counts([[68, 32], [20, 80]]))
    assert c_hat_csv(c) == (
        "repeat,c_pp,c_pf,c_fp,c_ff,n_pp,n_pf,n_fp,n_ff\n"
        "0,0.680000,0.320000,0.200000,0.800000,68,32,20,80\n"
    )


def test_matrix_csv_round_trip(tmp_path):
    matrices = [estimate_corruption_matrix(examples_with_counts(counts)) for counts in
                ([[68, 32], [20, 80]], [[3, 1], [2, 5]])]
    path = tmp_path / "c_hat.csv"
    path.write_text(c_hat_csv(*matrices), encoding="utf-8")
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    assert table[:, 0].tolist() == [0, 1]
    for row, c in zip(table, matrices):
        counts = row[5:].astype(np.int64)
        assert np.array_equal(counts, row[5:])  # printed as whole numbers
        again = CorruptionMatrix(counts.reshape(2, 2))
        assert np.array_equal(again.counts, c.counts)
        assert np.array_equal(again.entries, c.entries)
        assert np.all(np.abs(row[1:5].reshape(2, 2) - c.entries) <= 5e-7 + 1e-15)


@given(count_rows, count_rows)
def test_every_saved_matrix_prints_its_entries(preterm, full_term):
    """Six fractional digits hold each entry within 5e-7 (plus the rounding
    of the float read back), and so each row's printed sum within 2e-6 of 1;
    the counts print exactly."""
    c = CorruptionMatrix(np.array([preterm, full_term]))
    lines = c_hat_csv(c).splitlines()
    assert len(lines) == 2
    fields = lines[1].split(",")
    printed = np.array([float(x) for x in fields[1:5]]).reshape(2, 2)
    assert np.all(np.abs(printed - c.entries) <= 5e-7 + 1e-15)
    assert np.all(np.abs(printed.sum(axis=1) - 1.0) <= 2e-6)
    assert [int(n) for n in fields[5:]] == [*preterm, *full_term]
