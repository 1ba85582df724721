import numpy as np
import pytest

from dagmix import harness
from dagmix.bayes import family_marginals
from dagmix.engine import FitConfig, PriorSpec, Schedule, fit
from dagmix.errors import DimensionMismatch, EmptyTestSet, NonNumericValue
from dagmix.harness import (
    RECOVERY_SIZES,
    count_parameters,
    default_gold_standard,
    generate_recovery_data,
    match_components,
    run_baseline_comparison,
    run_recovery,
)
from dagmix.model import DagStructure, MdagModel, empty_structure, sample
from dagmix.rng import stream
from dagmix.search import search_all_components, structural_difference
from conftest import (
    joint_moments,
    labeled_stats,
    oracle_match_components,
    oracle_structural_difference,
    random_dag,
)


class TestDefaultGoldStandard:
    def test_first_and_third_structures_identical(self):
        gold = default_gold_standard()
        assert (
            structural_difference(
                gold.model.components[0].structure, gold.model.components[2].structure
            )
            == 0
        )

    def test_valid_and_unit_parameterized(self):
        gold = default_gold_standard()
        for g in gold.model.components:
            assert np.allclose(g.variances, 1.0)
            for coeffs in g.coefficients:
                assert np.allclose(coeffs, 1.0)
        assert np.allclose(gold.model.weights, 1.0 / 3.0)

    def test_third_component_mean_propagates_intercepts(self):
        # intercept five at every node, pushed through the fanout structure
        mean, _ = joint_moments(default_gold_standard().model.components[2])
        assert np.allclose(mean, [5.0, 5.0, 15.0, 20.0, 20.0])

    def test_first_two_components_centered(self):
        gold = default_gold_standard()
        for c in (0, 1):
            mean, _ = joint_moments(gold.model.components[c])
            assert np.allclose(mean, 0.0)


class TestRecoveryData:
    def test_sizes_exact(self):
        datasets = generate_recovery_data(default_gold_standard(), seed=0)
        assert sorted(datasets) == sorted(RECOVERY_SIZES)
        for size, (data, labels) in datasets.items():
            assert data.shape == (size, 5)
            assert labels.shape == (size,)

    def test_nested_subsets(self):
        datasets = generate_recovery_data(default_gold_standard(), seed=1)
        sizes = sorted(datasets)
        for small, big in zip(sizes, sizes[1:]):
            small_rows = {tuple(row) for row in datasets[small][0]}
            big_rows = {tuple(row) for row in datasets[big][0]}
            assert small_rows <= big_rows

    def test_stratified_at_full_size(self):
        datasets = generate_recovery_data(default_gold_standard(), seed=2)
        _, labels = datasets[3000]
        assert np.bincount(labels).tolist() == [1000, 1000, 1000]

    def test_repeated_size_rejected(self):
        # keyed by size, a repeated size would give one row for two requests
        with pytest.raises(DimensionMismatch):
            generate_recovery_data(default_gold_standard(), seed=0, sizes=(60, 60))
        with pytest.raises(DimensionMismatch):
            run_recovery(default_gold_standard(), 0, sizes=(93, 60, 93), k_max=1)

    def test_deterministic(self):
        a = generate_recovery_data(default_gold_standard(), seed=3)
        b = generate_recovery_data(default_gold_standard(), seed=3)
        for size in a:
            assert np.array_equal(a[size][0], b[size][0])


class TestLabeledRecoveryOracle:
    def test_exact_statistics_recover_structures(self):
        # gold labels supplied, responsibilities one-hot: search alone must
        # land each component's equivalence class at the full sample size
        gold = default_gold_standard()
        data, labels = generate_recovery_data(gold, seed=0)[3000]
        ms = labeled_stats(data, labels, 3)
        prior = PriorSpec().normal_wishart(5)
        learned = search_all_components(
            family_marginals(prior, ms), tuple(empty_structure(5) for _ in range(3))
        )
        diffs = [
            structural_difference(learned[c], gold.model.components[c].structure)
            for c in range(3)
        ]
        assert diffs == [0, 0, 0]


GOLD = [g.structure for g in default_gold_standard().model.components]
# the chain with one more arc, 0 -> 2
CHAIN_PLUS = DagStructure(5, ((), (0,), (0, 1), (2,), (3,)))


class TestMatching:
    def test_permutation_invariance(self, rng):
        gold = default_gold_standard()
        gold_structures = [g.structure for g in gold.model.components]
        learned = [
            DagStructure(5, ((), (0,), (1,), (2,), (3,))),
            DagStructure(5, ((), (), (0, 1), (2,), (2,))),
            empty_structure(5),
        ]
        weights = [0.5, 0.3, 0.2]
        base = match_components(learned, weights, gold_structures)
        perm = [2, 0, 1]
        shuffled = match_components(
            [learned[i] for i in perm], [weights[i] for i in perm], gold_structures
        )
        assert base == shuffled

    def test_fewer_learned_than_gold(self):
        gold = [g.structure for g in default_gold_standard().model.components]
        learned = [gold[1]]
        diffs = match_components(learned, [1.0], gold)
        assert diffs.count(None) == 2
        assert diffs[1] == 0

    def test_top_three_by_weight(self):
        gold = [g.structure for g in default_gold_standard().model.components]
        # four learned components; the lightest must be ignored
        learned = [gold[0], gold[1], gold[2], empty_structure(5)]
        weights = [0.3, 0.3, 0.3, 0.1]
        diffs = match_components(learned, weights, gold)
        assert diffs == (0, 0, 0)

    def test_one_weight_per_learned_structure(self):
        gold = [g.structure for g in default_gold_standard().model.components]
        with pytest.raises(DimensionMismatch):
            match_components(gold, [0.5, 0.5], gold)

    @pytest.mark.parametrize(
        "learned, weights, gold",
        [
            (GOLD, ["a", "b", "c"], GOLD),
            (GOLD, [0.5, np.nan, 0.2], GOLD),
            (GOLD, [np.inf, 0.3, 0.2], GOLD),
            (GOLD, [True, 0.3, 0.2], GOLD),
            ([None, GOLD[1], GOLD[2]], [0.5, 0.3, 0.2], GOLD),
            (GOLD, [0.5, 0.3, 0.2], [GOLD[0], GOLD[1].parents, GOLD[2]]),
            # a lighter learned structure than the top three, and a gold
            # structure no best assignment uses: neither pair is scored
            ([*GOLD, empty_structure(4)], [0.3, 0.3, 0.3, 0.1], GOLD),
            (GOLD, [0.5, 0.3, 0.2], [*GOLD, empty_structure(4)]),
        ],
        ids=["string-weights", "nan-weight", "inf-weight", "bool-weight", "learned-not-a-dag",
             "gold-not-a-dag", "unscored-learned-n", "unscored-gold-n"],
    )
    def test_inputs_rejected(self, learned, weights, gold):
        with pytest.raises(DimensionMismatch):
            match_components(learned, weights, gold)

    @pytest.mark.parametrize(
        "learned, weights",
        [
            (GOLD, [0.5, 0.3, 0.2]),
            ([GOLD[2], GOLD[1], GOLD[0]], [0.2, 0.3, 0.5]),
            # equal totals: the chain fits either fanout equally
            ([CHAIN_PLUS, CHAIN_PLUS], [0.5, 0.5]),
            ([GOLD[1], empty_structure(5), GOLD[0]], [0.4, 0.4, 0.2]),
            ([GOLD[1]], [1.0]),
            ([empty_structure(5), GOLD[2]], [0.3, 0.7]),
            ([*GOLD, empty_structure(5), GOLD[1]], [0.1, 0.2, 0.1, 0.4, 0.2]),
            ([GOLD[0], GOLD[0], GOLD[0], GOLD[0]], [0.25, 0.25, 0.25, 0.25]),
        ],
        ids=["gold", "gold-reversed", "tied-sums", "tied-weights", "fewer-learned",
             "two-learned", "more-learned", "all-one-class"],
    )
    def test_matches_every_assignment(self, learned, weights):
        # G0 and G2 are equivalent, so most of these have tied totals
        assert match_components(learned, weights, GOLD) == oracle_match_components(
            learned, weights, GOLD
        )

    def test_random_assignments_match_every_assignment(self, rng):
        for _ in range(20):
            gold = [random_dag(5, rng, p=0.3) for _ in range(rng.integers(1, 4))]
            gold += [gold[0]] * int(rng.integers(0, 2))
            learned = [random_dag(5, rng, p=0.3) for _ in range(rng.integers(1, 5))]
            learned += gold[: rng.integers(0, len(gold) + 1)]
            weights = list(rng.integers(1, 4, len(learned)) / 4)
            assert match_components(learned, weights, gold) == oracle_match_components(
                learned, weights, gold
            )

    def test_exact_distances_only_where_bounds_cannot_settle(self, monkeypatch):
        # every pair of an equal skeleton bounds its distance at 0, so the
        # first assignment in order settles the match: each of its pairs is
        # scored once, and no other pair is
        scored = []
        real = harness.structural_difference
        monkeypatch.setattr(harness, "structural_difference",
                            lambda a, b: scored.append((a, b)) or real(a, b))
        assert match_components(GOLD, [0.5, 0.3, 0.2], GOLD) == (0, 0, 0)
        assert scored == list(zip(GOLD, GOLD))

    def test_gold_fit_matches_the_oracles(self):
        # every learned/gold pair of a k = 3 gold fit, and their assignment
        data, _ = sample(default_gold_standard().model, 600, 0)
        config = FitConfig(k=3, seed=0, max_outer=2, schedule=Schedule.parse("((EM)^5 Ec S* M)*"))
        model = fit(data, config).model
        learned = [g.structure for g in model.components]
        distances = [structural_difference(a, b) for a in learned for b in GOLD]
        assert distances == [oracle_structural_difference(a, b) for a in learned for b in GOLD]
        assert len(set(distances)) > 1
        weights = list(model.weights)
        assert match_components(learned, weights, GOLD) == oracle_match_components(
            learned, weights, GOLD
        )


class TestRecoveryRun:
    def test_report_shape_and_regenerability(self):
        gold = default_gold_standard()
        report = run_recovery(gold, seed=0, sizes=(93, 186), k_max=3)
        assert len(report.rows) == 2
        assert [r.sample_size for r in report.rows] == [93, 186]
        for row in report.rows:
            assert 0.0 <= row.top_weight_sum <= 1.0 + 1e-12
            assert all(d is None or d >= 0 for d in row.arc_differences)
        again = run_recovery(gold, seed=0, sizes=(93, 186), k_max=3)
        assert again == report


class TestParameterCounts:
    def test_full_two_variable_component(self):
        from dagmix.model import GaussianDag, complete_structure

        g = GaussianDag(
            complete_structure(2),
            np.zeros(2),
            (np.zeros(0), np.ones(1)),
            np.ones(2),
        )
        m = MdagModel(np.array([1.0]), (g,))
        # 2 intercepts + 1 coefficient + 2 variances, no free weight
        assert count_parameters(m) == 5

    def test_weights_count_components_minus_one(self):
        from conftest import single_node_model

        m = MdagModel(
            np.array([0.25, 0.75]),
            (single_node_model(0.0), single_node_model(1.0)),
        )
        assert count_parameters(m) == 1 + 2 * 2


class TestBaselineComparison:
    @pytest.mark.parametrize(
        "test_width, test_cases, families, error",
        [
            (5, 0, ("mdag",), EmptyTestSet),
            (4, 10, ("mdag",), DimensionMismatch),
            (5, 10, ("mdag", "bogus"), DimensionMismatch),
            (5, 10, 5, DimensionMismatch),
        ],
        ids=["empty-test", "narrow-test", "bad-family", "families-not-a-list"],
    )
    def test_inputs_checked_before_fitting(
        self, monkeypatch, test_width, test_cases, families, error
    ):
        def never(*args, **kwargs):
            raise AssertionError("fitted before the inputs were checked")

        monkeypatch.setattr(harness, "select_k", never)
        train, _ = sample(default_gold_standard().model, 50, 0)
        test = np.zeros((test_cases, test_width))
        with pytest.raises(error):
            run_baseline_comparison(train, test, FitConfig(), families=families)

    @pytest.mark.parametrize("complex_side", ["train", "test"])
    @pytest.mark.filterwarnings("error")
    def test_complex_cells_refused_before_fitting(self, monkeypatch, complex_side):
        def never(*args, **kwargs):
            raise AssertionError("fitted before the inputs were checked")

        monkeypatch.setattr(harness, "select_k", never)
        data = {"train": sample(default_gold_standard().model, 50, 0)[0]}
        data["test"] = data["train"][:10].copy()
        data[complex_side] = data[complex_side] + 0j  # zero imaginary parts
        with pytest.raises(NonNumericValue):
            run_baseline_comparison(data["train"], data["test"], FitConfig())

    def test_families_and_ordering(self):
        gold = default_gold_standard()
        train, _ = sample(gold.model, 700, stream(5, "train"))
        test, _ = sample(gold.model, 700, stream(5, "test"))
        scores = run_baseline_comparison(
            train, test, FitConfig(seed=5), families=("mdag", "mdiag"), k_max=5
        )
        by_family = {s.family: s for s in scores}
        assert set(by_family) == {"mdag", "mdiag"}
        assert by_family["mdag"].predictive >= by_family["mdiag"].predictive
        assert by_family["mdag"].parameters > 0

    def test_mdiag_structures_empty(self):
        gold = default_gold_standard()
        train, _ = sample(gold.model, 300, stream(6, "train"))
        test, _ = sample(gold.model, 300, stream(6, "test"))
        from dagmix.engine import select_k
        import dataclasses

        result = select_k(train, dataclasses.replace(FitConfig(seed=6), family="mdiag"), 3)
        assert all(
            g.structure.arc_count() == 0 for g in result.best.model.components
        )
