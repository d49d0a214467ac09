"""Built-in problem instances, the noise model, and instance export."""

import os
import types

import numpy as np
import pytest

from dynreg import (
    BUILTIN_PROBLEMS,
    DimensionError,
    InvalidInputError,
    InvalidParameterError,
    NoiseSpec,
    add_noise,
    apply_forward,
    bochner_norm,
    export_instance,
    make_dct_analogue,
    make_identity_problem,
    make_mpi_analogue,
    make_nonuniform_example,
    read_csv,
    rotating_window_pattern,
)


class TestInstances:
    @pytest.mark.parametrize("kind", sorted(BUILTIN_PROBLEMS))
    def test_data_recomputable_bit_exact(self, kind):
        problem = BUILTIN_PROBLEMS[kind](7, 6)
        again = apply_forward(problem.forward, problem.truth)
        assert np.array_equal(again.values, problem.data_clean.values)

    @pytest.mark.parametrize("kind", sorted(BUILTIN_PROBLEMS))
    def test_labels_and_shapes(self, kind):
        problem = BUILTIN_PROBLEMS[kind](5, 4)
        assert problem.label == kind
        assert problem.truth.n_t == 5
        assert problem.data_clean.n_t == 5

    def test_dct_truth_is_translating_bump(self):
        problem = make_dct_analogue(4, 32)
        peaks = [problem.truth.values[i].argmax() for i in range(4)]
        assert peaks == sorted(peaks) and peaks[0] < peaks[-1]

    def test_mpi_truth_static_scalar_data(self):
        problem = make_mpi_analogue(6, 10)
        assert problem.data_clean.n_dim == 1
        assert all(
            np.array_equal(problem.truth.values[i], problem.truth.values[0]) for i in range(6)
        )

    @pytest.mark.parametrize("rows", [3, 5])
    def test_dct_pattern_needs_one_row_per_node(self, rows):
        pattern = rotating_window_pattern(rows, 6, 3)
        with pytest.raises(DimensionError, match=f"need one pattern row per time node, got {rows}"):
            make_dct_analogue(4, 6, pattern=pattern)

    def test_mpi_rejects_negative_decay(self):
        with pytest.raises(InvalidParameterError):
            make_mpi_analogue(4, 4, decay=-1.0)

    def test_nonuniform_inverse_time_structure(self):
        # constant truth through S(t) = (1/t) K: t_i * y(t_i) is node-independent
        problem = make_nonuniform_example(9, 7)
        scaled = problem.data_clean.values * problem.forward.time_grid.nodes[:, None]
        for i in range(1, 9):
            np.testing.assert_allclose(scaled[i], scaled[0], rtol=1e-12)

    def test_nonuniform_refinement_doubles_peak(self):
        coarse = make_nonuniform_example(8, 6)
        fine = make_nonuniform_example(16, 6)
        peak = lambda p: max(
            np.linalg.norm(v) for v in p.data_clean.values
        )
        assert peak(fine) == pytest.approx(2.0 * peak(coarse), rel=1e-12)

    def test_identity_round_trip(self):
        problem = make_identity_problem(4, 5)
        assert np.array_equal(problem.data_clean.values, problem.truth.values)

    def test_invalid_sizes_rejected(self):
        for make in BUILTIN_PROBLEMS.values():
            with pytest.raises(InvalidParameterError):
                make(0, 4)


class TestNoise:
    def test_norm_is_fraction_of_delta(self):
        problem = make_dct_analogue(6, 8)
        for delta in (0.1, 1e-2, 1e-4):
            noisy = add_noise(problem.data_clean, NoiseSpec(delta, seed=1))
            gap = bochner_norm(noisy - problem.data_clean)
            assert gap == pytest.approx(0.99 * delta, rel=1e-12)
            assert gap < delta

    def test_custom_fraction(self):
        problem = make_identity_problem(4, 4)
        noisy = add_noise(problem.data_clean, NoiseSpec(0.5, seed=2, fraction=0.5))
        assert bochner_norm(noisy - problem.data_clean) == pytest.approx(0.25, rel=1e-12)

    def test_deterministic_per_seed(self):
        problem = make_mpi_analogue(5, 6)
        a = add_noise(problem.data_clean, NoiseSpec(1e-2, seed=7))
        b = add_noise(problem.data_clean, NoiseSpec(1e-2, seed=7))
        assert np.array_equal(a.values, b.values)

    def test_seeds_differ(self):
        problem = make_mpi_analogue(5, 6)
        a = add_noise(problem.data_clean, NoiseSpec(1e-2, seed=7))
        b = add_noise(problem.data_clean, NoiseSpec(1e-2, seed=8))
        assert bochner_norm(a - b) > 0.0

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            NoiseSpec(0.0, seed=0)
        with pytest.raises(InvalidParameterError):
            NoiseSpec(0.1, seed=0, fraction=1.5)
        with pytest.raises(InvalidParameterError, match="seed"):
            NoiseSpec(0.1, seed=-1)


def zero_draws_first(monkeypatch, seed: int, zeros: int) -> None:
    """Make the generators seeded seed, ..., seed + zeros - 1 draw all zeros."""
    real = np.random.default_rng

    def default_rng(s):
        zero = seed <= s < seed + zeros
        return types.SimpleNamespace(standard_normal=np.zeros) if zero else real(s)

    monkeypatch.setattr(np.random, "default_rng", default_rng)


class TestZeroNoiseDraws:
    @pytest.mark.parametrize("zeros", [1, 2, 3])
    def test_retry_takes_the_next_seed(self, monkeypatch, zeros):
        data = make_mpi_analogue(5, 6).data_clean
        expected = add_noise(data, NoiseSpec(1e-2, seed=7 + zeros))
        zero_draws_first(monkeypatch, 7, zeros)
        noisy = add_noise(data, NoiseSpec(1e-2, seed=7))
        assert noisy.values.tobytes() == expected.values.tobytes()

    def test_four_zero_draws_raise(self, monkeypatch):
        data = make_mpi_analogue(5, 6).data_clean
        zero_draws_first(monkeypatch, 7, 4)
        with pytest.raises(InvalidInputError, match="zero norm four times"):
            add_noise(data, NoiseSpec(1e-2, seed=7))


class TestExport:
    def test_directory_contents(self, tmp_path):
        problem = make_dct_analogue(5, 6)
        spec = NoiseSpec(1e-2, seed=3)
        noisy = add_noise(problem.data_clean, spec)
        out = os.path.join(tmp_path, "inst")
        export_instance(problem, noisy, spec, out)
        names = sorted(os.listdir(out))
        assert names == ["data_clean.csv", "data_noisy.csv", "meta.txt", "truth.csv"]
        with open(os.path.join(out, "meta.txt")) as f:
            meta = dict(line.strip().split("=", 1) for line in f)
        assert meta["kind"] == "dct"
        assert meta["n_t"] == "5" and meta["n_x"] == "6"
        assert float(meta["delta"]) == 1e-2 and meta["seed"] == "3"

    def test_round_trip_values(self, tmp_path):
        problem = make_mpi_analogue(6, 5)
        spec = NoiseSpec(1e-3, seed=4)
        noisy = add_noise(problem.data_clean, spec)
        out = os.path.join(tmp_path, "inst")
        export_instance(problem, noisy, spec, out)
        back = read_csv(os.path.join(out, "data_noisy.csv"))
        assert np.array_equal(back.values, noisy.values)
