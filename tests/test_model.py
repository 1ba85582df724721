import numpy as np
import pytest
from scipy import stats as sps

from dagmix.errors import (
    AllComponentsZeroDensity,
    BadParentIndex,
    CycleDetected,
    DimensionMismatch,
    SingularParentBlock,
)
from dagmix.model import (
    DagStructure,
    GaussianDag,
    MdagModel,
    NoiseComponent,
    sample,
)
from dagmix.scoring import observed_loglik, predictive_score
from dagmix.stats import component_case_loglik, group_cases
from conftest import (
    joint_moments,
    node_log_density,
    random_dag,
    random_gaussian_dag,
    single_node_model,
    two_component_1d,
)

STD_NORMAL_AT_MODE = -0.9189385332046727  # -log(sqrt(2 pi))


def chain_model() -> GaussianDag:
    structure = DagStructure(2, ((), (0,)))
    return GaussianDag(structure, np.zeros(2), (np.zeros(0), np.ones(1)), np.ones(2))


def sweep_log_density(g: GaussianDag, rows) -> np.ndarray:
    """The E sweep's log density of one component at each row."""
    cases = group_cases(np.atleast_2d(rows))
    return component_case_loglik(MdagModel(np.ones(1), (g,)).stacked, cases)[:, 0]


class TestValidate:
    def test_chain_is_acyclic(self):
        assert DagStructure(3, ((), (0,), (1,))).topological_order == (0, 1, 2)

    def test_two_cycle_rejected(self):
        with pytest.raises(CycleDetected):
            DagStructure(2, ((1,), (0,)))

    def test_self_loop_rejected(self):
        with pytest.raises(CycleDetected) as err:
            DagStructure(1, ((0,),))
        assert err.value.cycle == (0, 0)

    def test_bad_parent_index(self):
        with pytest.raises(BadParentIndex):
            DagStructure(2, ((), (5,)))

    def test_duplicate_parent_rejected(self):
        # it once constructed, and a component on it then sampled x1 ~ 3 x0
        # while its regression form read x1 ~ 2 x0
        with pytest.raises(BadParentIndex):
            DagStructure(2, ((), (0, 0)))

    def test_long_cycle_rejected(self):
        # a recursive cycle search once raised RecursionError here
        n = 1200
        parents = tuple(((i - 1) % n,) for i in range(n))
        with pytest.raises(CycleDetected) as err:
            DagStructure(n, parents)
        cycle = err.value.cycle
        assert len(cycle) == n + 1 and cycle[0] == cycle[-1]
        assert all(p in parents[c] for c, p in zip(cycle, cycle[1:]))

    def test_short_parent_list_rejected(self):
        # a component over it once scored two of three nodes and ignored x2
        with pytest.raises(BadParentIndex):
            GaussianDag(
                DagStructure(3, ((), ())), np.zeros(3), (np.zeros(0), np.zeros(0)), np.ones(3)
            )

    def test_parent_past_n_rejected_before_from_joint(self):
        # from_joint once met such a parent with a raw IndexError
        with pytest.raises(BadParentIndex):
            GaussianDag.from_joint(DagStructure(3, ((5,), (), ())), np.zeros(3), np.eye(3))

    def test_cycle_error_lists_a_cycle(self):
        with pytest.raises(CycleDetected) as err:
            DagStructure(3, ((2,), (0,), (1,)))
        cycle = err.value.cycle
        assert cycle[0] == cycle[-1]
        assert len(cycle) >= 3


class TestComponentDensity:
    def test_standard_normal_at_mode(self):
        g = single_node_model(0.0)
        assert sweep_log_density(g, np.zeros(1)) == pytest.approx([STD_NORMAL_AT_MODE], abs=1e-12)

    def test_chain_at_origin(self):
        # two standard-normal factors: node 1 is centered because x0 = 0
        assert sweep_log_density(chain_model(), np.zeros(2)) == pytest.approx(
            [2 * STD_NORMAL_AT_MODE], abs=1e-12
        )

    def test_dimension_mismatch(self):
        # the sweep trusts its cases; held-out data is checked where it enters
        with pytest.raises(DimensionMismatch):
            predictive_score(np.zeros((1, 3)), MdagModel(np.ones(1), (chain_model(),)))

    def test_matches_joint_density_on_random_graphs(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 6))
            g = random_gaussian_dag(random_dag(n, rng), rng)
            rows = rng.normal(0, 2, (4, n))
            mean, cov = joint_moments(g)
            expected = sps.multivariate_normal.logpdf(rows, mean=mean, cov=cov)
            np.testing.assert_allclose(sweep_log_density(g, rows), expected, rtol=0, atol=1e-9)


class TestJointMoments:
    def test_from_joint_round_trip(self, rng):
        g = random_gaussian_dag(random_dag(4, rng, p=0.6), rng)
        mean, cov = joint_moments(g)
        back = GaussianDag.from_joint(g.structure, mean, cov)
        assert np.allclose(back.intercepts, g.intercepts, atol=1e-9)
        assert np.allclose(back.variances, g.variances, atol=1e-9)

    def test_from_joint_singular_parent_block(self):
        # x0 and x1 are the same variable, so x2's parent block is singular;
        # at variance 1e8 the 1e-9 diagonal jitter is lost to rounding
        cov = np.array([[1e8, 1e8, 5e3], [1e8, 1e8, 5e3], [5e3, 5e3, 2.0]])
        with pytest.raises(SingularParentBlock):
            GaussianDag.from_joint(DagStructure(3, ((), (), (0, 1))), np.zeros(3), cov)


class TestMarkovEquivalence:
    def test_equivalent_parameterizations_match_densities(self, rng):
        # X -> Y and Y -> X parameterized to the same joint agree everywhere
        forward = chain_model()
        mean, cov = joint_moments(forward)
        backward = GaussianDag.from_joint(DagStructure(2, ((1,), ())), mean, cov)
        rows = rng.normal(0, 3, (50, 2))
        np.testing.assert_allclose(
            sweep_log_density(forward, rows), sweep_log_density(backward, rows), rtol=0, atol=1e-9
        )


class TestMixtureDensity:
    def test_single_component_degenerate(self):
        g = chain_model()
        m = MdagModel(np.array([1.0]), (g,))
        x = np.array([[0.3, -0.2]])
        assert observed_loglik(group_cases(x), m) == sweep_log_density(g, x)[0]

    def test_identical_components_symmetry(self):
        g = chain_model()
        m = MdagModel(np.array([0.5, 0.5]), (g, g))
        x = np.array([[1.0, 2.0]])
        assert observed_loglik(group_cases(x), m) == pytest.approx(
            node_log_density(g, x[0]), abs=1e-12
        )

    def test_two_means_value(self):
        m = two_component_1d(0.0, 5.0)
        expected = np.log(0.5 * sps.norm.pdf(0.0, 0, 1) + 0.5 * sps.norm.pdf(0.0, 5, 1))
        got = observed_loglik(group_cases(np.zeros((1, 1))), m)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_one_hot_weights_exact(self):
        a, b = single_node_model(0.0), single_node_model(3.0)
        m = MdagModel(np.array([0.0, 1.0]), (a, b))
        x = np.array([[1.5]])
        assert observed_loglik(group_cases(x), m) == sweep_log_density(b, x)[0]

    def test_weight_sum_enforced(self):
        with pytest.raises(DimensionMismatch):
            MdagModel(np.array([0.6, 0.6]), (single_node_model(0), single_node_model(1)))

    def test_noise_only_model_outside_bounds(self):
        noise = NoiseComponent(np.zeros(1), np.ones(1))
        m = MdagModel(np.array([1.0, 0.0]), (single_node_model(0),), noise)
        with pytest.raises(AllComponentsZeroDensity):
            observed_loglik(group_cases(np.array([[4.0]])), m)

    def test_noise_inside_bounds(self):
        noise = NoiseComponent(np.zeros(2), np.array([2.0, 4.0]))
        g = chain_model()
        m = MdagModel(np.array([0.5, 0.5]), (g,), noise)
        x = np.array([1.0, 1.0])
        by_hand = np.logaddexp(
            np.log(0.5) - np.log(2.0) - np.log(4.0), np.log(0.5) + node_log_density(g, x)
        )
        assert observed_loglik(group_cases(x[None]), m) == pytest.approx(by_hand, abs=1e-12)


class TestSampling:
    def test_zero_count(self):
        m = MdagModel(np.array([1.0]), (single_node_model(0),))
        data, labels = sample(m, 0, 1)
        assert data.shape == (0, 1)
        assert labels.shape == (0,)

    @pytest.mark.parametrize("count", [2.5, "2", True], ids=["fractional", "string", "bool"])
    def test_non_integer_count_rejected(self, count):
        m = MdagModel(np.array([1.0]), (single_node_model(0),))
        with pytest.raises(DimensionMismatch):
            sample(m, count, 0)

    def test_single_component_moments(self):
        m = MdagModel(np.array([1.0]), (single_node_model(0),))
        data, _ = sample(m, 100_000, 7)
        assert abs(data.mean()) < 0.02
        assert abs(data.var() - 1.0) < 0.05

    def test_label_frequencies(self):
        m = two_component_1d(0.0, 5.0)
        _, labels = sample(m, 100_000, 11)
        assert abs((labels == 0).mean() - 0.5) < 0.01

    def test_deterministic_given_seed(self):
        m = two_component_1d(0.0, 5.0)
        a, la = sample(m, 64, 123)
        b, lb = sample(m, 64, 123)
        assert np.array_equal(a, b)
        assert np.array_equal(la, lb)

    def test_empirical_moments_approach_joint(self, rng):
        g = random_gaussian_dag(random_dag(3, rng, p=0.7), rng)
        m = MdagModel(np.array([1.0]), (g,))
        count = 40_000
        data, _ = sample(m, count, 5)
        mean, cov = joint_moments(g)
        tol = 5.0 / np.sqrt(count)
        scale = np.sqrt(np.diag(cov))
        assert np.all(np.abs(data.mean(axis=0) - mean) < 5 * tol * scale)
        emp_cov = np.cov(data.T)
        assert np.all(np.abs(emp_cov - cov) < 10 * tol * np.outer(scale, scale))


def test_topological_order_cached_and_valid(rng):
    s = random_dag(6, rng, p=0.5)
    order = s.topological_order
    position = {node: i for i, node in enumerate(order)}
    for parent, child in s.arcs():
        assert position[parent] < position[child]
    assert s.topological_order is order
