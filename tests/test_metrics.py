import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schirn.metrics import (
    average_precision,
    coverage,
    evaluate_all,
    hamming_loss,
    one_error,
    ranking_loss,
)

# ---------------------------------------------------------------------------
# independent brute-force oracles: counting-based ranks, explicit pair loops


def rank_by_counting(scores, j):
    """1-based rank of label j by descending score, ties to the lower index."""
    return 1 + sum(
        1
        for k in range(len(scores))
        if scores[k] > scores[j] or (scores[k] == scores[j] and k < j)
    )


def included(truth_row):
    s = int(sum(truth_row))
    return 0 < s < len(truth_row)


def ap_brute(scores, truth):
    vals = []
    for s_row, t_row in zip(scores, truth):
        if not included(t_row):
            continue
        rel = [j for j in range(len(t_row)) if t_row[j] == 1]
        total = 0.0
        for j in rel:
            rj = rank_by_counting(s_row, j)
            above = sum(1 for j2 in rel if rank_by_counting(s_row, j2) <= rj)
            total += above / rj
        vals.append(total / len(rel))
    return sum(vals) / len(vals) if vals else 0.0


def rl_brute(scores, truth):
    vals = []
    for s_row, t_row in zip(scores, truth):
        if not included(t_row):
            continue
        rel = [j for j in range(len(t_row)) if t_row[j] == 1]
        irr = [j for j in range(len(t_row)) if t_row[j] == 0]
        bad = sum(1 for j in rel for k in irr if s_row[j] <= s_row[k])
        vals.append(bad / (len(rel) * len(irr)))
    return sum(vals) / len(vals) if vals else 0.0


def cov_brute(scores, truth):
    vals = []
    l = len(truth[0])
    for s_row, t_row in zip(scores, truth):
        if not included(t_row):
            continue
        worst = max(rank_by_counting(s_row, j) for j in range(l) if t_row[j] == 1)
        vals.append((worst - 1) / l)
    return sum(vals) / len(vals) if vals else 0.0


def oe_brute(scores, truth):
    vals = []
    for s_row, t_row in zip(scores, truth):
        if not included(t_row):
            continue
        top = min(range(len(s_row)), key=lambda j: (-s_row[j], j))
        vals.append(0.0 if t_row[top] == 1 else 1.0)
    return sum(vals) / len(vals) if vals else 0.0


def random_instance(rng, max_n=6, max_l=7, ties=True):
    n = rng.integers(1, max_n + 1)
    l = rng.integers(2, max_l + 1)
    if ties and rng.random() < 0.5:
        scores = rng.integers(0, 3, size=(n, l)).astype(float)
    else:
        scores = rng.standard_normal((n, l))
    truth = (rng.random((n, l)) < 0.5).astype(float)
    return scores, truth


# reference: the per-row loops the vectorized metrics replaced, kept verbatim


def _row_ranks(scores_row):
    order = np.argsort(-scores_row, kind="stable")
    ranks = np.empty(scores_row.size, dtype=np.int64)
    ranks[order] = np.arange(1, scores_row.size + 1)
    return ranks


def _scorable(T):
    row_sums = T.sum(axis=1)
    return np.flatnonzero((row_sums > 0) & (row_sums < T.shape[1]))


def ap_loop(S, T):
    rows = _scorable(T)
    if rows.size == 0:
        return 0.0
    total = 0.0
    for i in rows:
        rel_ranks = np.sort(_row_ranks(S[i])[T[i] == 1.0])
        total += float(np.mean(np.arange(1, rel_ranks.size + 1) / rel_ranks))
    return total / rows.size


def rl_loop(S, T):
    rows = _scorable(T)
    if rows.size == 0:
        return 0.0
    total = 0.0
    for i in rows:
        rel = S[i][T[i] == 1.0]
        irr = S[i][T[i] == 0.0]
        violations = np.count_nonzero(rel[:, None] <= irr[None, :])
        total += violations / (rel.size * irr.size)
    return total / rows.size


def cov_loop(S, T):
    rows = _scorable(T)
    if rows.size == 0:
        return 0.0
    l = T.shape[1]
    total = 0.0
    for i in rows:
        total += (int(_row_ranks(S[i])[T[i] == 1.0].max()) - 1) / l
    return total / rows.size


def oe_argmax(S, T):
    rows = _scorable(T)
    if rows.size == 0:
        return 0.0
    top = np.argmax(S[rows], axis=1)
    return float(np.mean(T[rows, top] == 0.0))


# ---------------------------------------------------------------------------


class TestAveragePrecision:
    def test_perfect_ranking(self):
        scores = np.array([[0.9, 0.8, 0.1, 0.2], [0.7, 0.1, 0.9, 0.2]])
        truth = np.array([[1.0, 1, 0, 0], [1, 0, 1, 0]])
        assert average_precision(scores, truth) == 1.0

    def test_single_relevant_ranked_third(self):
        assert average_precision([[0.1, 0.9, 0.5]], [[1, 0, 0]]) == pytest.approx(1 / 3)

    def test_all_rows_degenerate(self):
        scores = np.array([[0.1, 0.2], [0.5, 0.3]])
        truth = np.ones((2, 2))
        assert average_precision(scores, truth) == 0.0
        report = evaluate_all(scores, truth, truth)
        assert report.no_scorable_rows
        assert report.rows_scored == 0


class TestRankingLoss:
    def test_perfect_separation(self):
        assert ranking_loss([[0.9, 0.1]], [[1, 0]]) == 0.0

    def test_single_misordered_pair(self):
        assert ranking_loss([[0.2, 0.8]], [[1, 0]]) == 1.0

    def test_tie_counts_as_violation(self):
        assert ranking_loss([[0.5, 0.5]], [[1, 0]]) == 1.0

    def test_brute_force_5x8(self):
        rng = np.random.default_rng(8)
        scores = rng.standard_normal((5, 8))
        truth = (rng.random((5, 8)) < 0.4).astype(float)
        assert ranking_loss(scores, truth) == pytest.approx(rl_brute(scores, truth), abs=1e-12)


class TestCoverage:
    def test_relevant_on_top(self):
        # three relevant labels occupying the top three ranks: (3 - 1) / l
        scores = np.array([[0.9, 0.8, 0.7, 0.1, 0.2]])
        truth = np.array([[1.0, 1, 1, 0, 0]])
        assert coverage(scores, truth) == pytest.approx(2 / 5)

    def test_relevant_ranked_last(self):
        assert coverage([[0.1, 0.9, 0.8, 0.7]], [[1, 0, 0, 0]]) == pytest.approx(3 / 4)

    def test_brute_force_random(self):
        rng = np.random.default_rng(9)
        scores, truth = random_instance(rng)
        assert coverage(scores, truth) == pytest.approx(cov_brute(scores, truth), abs=1e-12)


class TestHammingLoss:
    def test_equal(self):
        P = np.array([[1.0, 0], [0, 1]])
        assert hamming_loss(P, P) == 0.0

    def test_complement(self):
        P = np.array([[1.0, 0], [0, 1]])
        assert hamming_loss(P, 1 - P) == 1.0

    def test_single_mismatch(self):
        assert hamming_loss([[1.0, 0], [0, 1]], [[1.0, 0], [0, 0]]) == 0.25

    def test_includes_degenerate_rows(self):
        pred = np.array([[1.0, 1], [0, 0]])
        truth = np.array([[1.0, 1], [1, 1]])
        assert hamming_loss(pred, truth) == 0.5

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            hamming_loss([[0.3, 1.0]], [[0.0, 1.0]])

    @given(st.integers(1, 50), st.integers(1, 8), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_symmetric(self, n, l, seed):
        rng = np.random.default_rng(seed)
        P = (rng.random((n, l)) < 0.5).astype(float)
        T = (rng.random((n, l)) < 0.5).astype(float)
        assert hamming_loss(P, T) == hamming_loss(T, P)


class TestOneError:
    def test_top_always_relevant(self):
        assert one_error([[0.9, 0.1], [0.2, 0.8]], [[1, 0], [0, 1]]) == 0.0

    def test_top_never_relevant(self):
        assert one_error([[0.1, 0.9]], [[1, 0]]) == 1.0

    def test_mixed_four_rows(self):
        scores = np.array([
            [0.9, 0.1, 0.1],
            [0.1, 0.9, 0.1],
            [0.1, 0.1, 0.9],
            [0.9, 0.8, 0.1],
        ])
        truth = np.array([
            [1.0, 0, 0],   # hit
            [1.0, 0, 0],   # miss
            [0.0, 1, 0],   # miss
            [0.0, 1, 0],   # miss
        ])
        assert one_error(scores, truth) == pytest.approx(3 / 4)

    def test_tie_broken_by_lower_index(self):
        assert one_error([[0.5, 0.5]], [[0, 1]]) == 1.0
        assert one_error([[0.5, 0.5]], [[1, 0]]) == 0.0


class TestOracleEquivalence:
    def test_all_ranking_metrics_match_brute_force(self):
        rng = np.random.default_rng(123)
        for _ in range(300):
            scores, truth = random_instance(rng)
            assert average_precision(scores, truth) == pytest.approx(ap_brute(scores, truth), abs=1e-12)
            assert ranking_loss(scores, truth) == pytest.approx(rl_brute(scores, truth), abs=1e-12)
            assert coverage(scores, truth) == pytest.approx(cov_brute(scores, truth), abs=1e-12)
            assert one_error(scores, truth) == pytest.approx(oe_brute(scores, truth), abs=1e-12)


class TestProperties:
    @given(st.integers(0, 2**31 - 1), st.sampled_from(["exp", "affine", "cube"]))
    @settings(max_examples=40, deadline=None)
    def test_monotone_transform_invariance(self, seed, kind):
        rng = np.random.default_rng(seed)
        scores, truth = random_instance(rng)
        if kind == "exp":
            transformed = np.exp(scores)
        elif kind == "affine":
            transformed = 3.0 * scores + 11.0
        else:
            transformed = scores**3 + 0.5 * scores
        for metric in (average_precision, ranking_loss, coverage, one_error):
            assert metric(scores, truth) == pytest.approx(metric(transformed, truth), abs=1e-12)

    def test_perfect_ap_iff_zero_ranking_loss_without_ties(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            n, l = rng.integers(1, 6), rng.integers(2, 7)
            scores = rng.permutation(n * l).reshape(n, l).astype(float)  # tie-free
            truth = (rng.random((n, l)) < 0.5).astype(float)
            if not any(included(row) for row in truth):
                continue
            ap = average_precision(scores, truth)
            rl = ranking_loss(scores, truth)
            assert (ap == 1.0) == (rl == 0.0)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            scores, truth = random_instance(rng)
            pred = (rng.random(scores.shape) < 0.5).astype(float)
            report = evaluate_all(scores, pred, truth)
            for value in (report.average_precision, report.ranking_loss, report.coverage,
                          report.hamming_loss, report.one_error):
                assert 0.0 <= value <= 1.0


class TestEvaluateAll:
    def test_bundles_and_counts(self):
        scores = np.array([[0.9, 0.1], [0.6, 0.4], [0.2, 0.7]])
        pred = (scores > 0.5).astype(float)
        truth = np.array([[1.0, 0], [1.0, 1.0], [0.0, 1.0]])  # middle row degenerate
        report = evaluate_all(scores, pred, truth)
        assert report.rows_total == 3
        assert report.rows_scored == 2
        assert report.average_precision == average_precision(scores, truth)
        assert report.hamming_loss == hamming_loss(pred, truth)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            evaluate_all(np.ones((2, 3)), np.ones((2, 3)), np.ones((3, 2)))

    def test_rejects_non_binary_truth(self):
        with pytest.raises(ValueError, match="binary"):
            average_precision(np.ones((1, 2)), [[0.5, 1.0]])

    def test_hamming_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            hamming_loss(np.ones((2, 2)), np.ones((2, 3)))


class TestLoopReference:
    """Bit-for-bit equality with the per-row loops, beyond the oracles' small shapes.

    Rows with 8 or more relevant labels are where np.mean sums pairwise, so a
    row sum taken in plain order (np.add.reduceat, say) differs in the last bit.
    """

    def test_equal_to_loops(self):
        rng = np.random.default_rng(2024)
        many_relevant = 0
        for trial in range(400):
            n, l = int(rng.integers(1, 61)), int(rng.integers(2, 41))
            if trial % 3 == 0:
                scores = rng.integers(0, 4, size=(n, l)).astype(float)
            else:
                scores = rng.standard_normal((n, l))
            truth = (rng.random((n, l)) < rng.uniform(0.05, 0.95)).astype(float)
            truth[rng.random(n) < 0.1] = 0.0
            truth[rng.random(n) < 0.1] = 1.0
            many_relevant += int(np.count_nonzero(truth[_scorable(truth)].sum(axis=1) >= 8))
            pred = (rng.random((n, l)) < 0.5).astype(float)
            report = evaluate_all(scores, pred, truth)
            expected = {
                "average_precision": ap_loop(scores, truth),
                "ranking_loss": rl_loop(scores, truth),
                "coverage": cov_loop(scores, truth),
                "one_error": oe_argmax(scores, truth),
            }
            standalone = (average_precision, ranking_loss, coverage, one_error)
            for metric in standalone:
                value = metric(scores, truth)
                assert value == expected[metric.__name__]
                assert getattr(report, metric.__name__) == value
            assert report.hamming_loss == hamming_loss(pred, truth)
            assert report.rows_scored == _scorable(truth).size
            assert report.rows_total == n
        assert many_relevant > 1000
