import math
import random

import pytest

from privzone import (
    CsvParseError,
    DegenerateInputError,
    DimensionError,
    DuplicateCellError,
    ParameterError,
    generate_sigmoid_probabilities,
    grid_from_json,
    grid_to_json,
    load_probabilities_csv,
    make_grid,
    normalize,
    poisson_alert_pmf,
    sample_alert_zone,
    sigmoid,
)

FIG4_WEIGHTS = [0.1, 0.2, 0.5, 0.4, 0.6]


class TestSigmoid:
    @pytest.mark.parametrize("b", [1, 10, 100, 200])
    def test_inflection_point_is_half(self, b):
        assert sigmoid(0.7, 0.7, b) == pytest.approx(0.5)

    def test_direct_formula_evaluation(self):
        # Oracle: 1 / (1 + e^-10)
        assert sigmoid(1.0, 0.9, 100) == pytest.approx(0.9999546021312976, rel=1e-15)

    def test_steep_gradient_stays_in_open_interval(self):
        low = sigmoid(0.0, 0.99, 200)
        high = sigmoid(1.0, 0.0, 200)
        assert 0 < low < 1
        assert 0 < high < 1


class TestGenerateSigmoidProbabilities:
    def test_32x32_shape_and_range(self):
        grid = generate_sigmoid_probabilities(32, 32, 0.9, 100, seed=1)
        assert grid.n == 1024
        assert grid.rows == grid.cols == 32
        assert all(0 < w < 1 for w in grid.weights)

    def test_pure_function_of_arguments(self):
        a = generate_sigmoid_probabilities(8, 8, 0.9, 10, seed=42)
        b = generate_sigmoid_probabilities(8, 8, 0.9, 10, seed=42)
        c = generate_sigmoid_probabilities(8, 8, 0.9, 10, seed=43)
        assert a.weights == b.weights
        assert a.weights != c.weights

    def test_matches_manual_draws(self):
        rng = random.Random(7)
        expected = tuple(sigmoid(rng.random(), 0.8, 20) for _ in range(6))
        grid = generate_sigmoid_probabilities(2, 3, 0.8, 20, seed=7)
        assert grid.weights == expected

    @pytest.mark.parametrize("rows,cols", [(0, 4), (4, 0), (-1, 2)])
    def test_rejects_bad_dimensions(self, rows, cols):
        with pytest.raises(DimensionError):
            generate_sigmoid_probabilities(rows, cols, 0.9, 10, seed=0)


class TestCsvLoading:
    def _write(self, tmp_path, text):
        path = tmp_path / "probs.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_loads_fig4_row(self, tmp_path):
        body = "row,col,probability\n" + "\n".join(
            f"0,{i},{w}" for i, w in enumerate(FIG4_WEIGHTS)
        )
        grid, missing = load_probabilities_csv(self._write(tmp_path, body))
        assert grid.weights == tuple(FIG4_WEIGHTS)
        assert grid.rows == 1 and grid.cols == 5
        assert missing == 0

    def test_header_only_is_an_error(self, tmp_path):
        with pytest.raises(CsvParseError):
            load_probabilities_csv(self._write(tmp_path, "row,col,probability\n"))

    def test_text_probability_names_the_line(self, tmp_path):
        body = "row,col,probability\n0,0,0.5\n0,1,oops\n"
        with pytest.raises(CsvParseError) as err:
            load_probabilities_csv(self._write(tmp_path, body))
        assert "line 3" in str(err.value)

    def test_duplicate_cell_rejected(self, tmp_path):
        body = "row,col,probability\n0,0,0.5\n0,0,0.25\n"
        with pytest.raises(DuplicateCellError):
            load_probabilities_csv(self._write(tmp_path, body))

    def test_negative_probability_rejected(self, tmp_path):
        body = "row,col,probability\n0,0,-0.5\n"
        with pytest.raises(CsvParseError):
            load_probabilities_csv(self._write(tmp_path, body))

    def test_missing_cells_default_zero_with_count(self, tmp_path):
        body = "row,col,probability\n0,0,0.5\n1,1,0.25\n"
        grid, missing = load_probabilities_csv(self._write(tmp_path, body))
        assert grid.rows == grid.cols == 2
        assert grid.weights == (0.5, 0.0, 0.0, 0.25)
        assert missing == 2

    @pytest.mark.parametrize("line", ["1000000000,0,0.5", "0,1000000000,0.5", "1024,1023,0.5"])
    def test_oversized_grid_rejected(self, tmp_path, line):
        with pytest.raises(CsvParseError, match="exceeds the limit"):
            load_probabilities_csv(self._write(tmp_path, f"row,col,probability\n{line}\n"))

    def test_bad_header_rejected(self, tmp_path):
        with pytest.raises(CsvParseError):
            load_probabilities_csv(self._write(tmp_path, "x,y,p\n0,0,1\n"))


class TestNormalize:
    def test_fig4_fractions(self):
        grid = normalize(make_grid(FIG4_WEIGHTS))
        expected = [w / 1.8 for w in FIG4_WEIGHTS]
        assert grid.weights == pytest.approx(expected, rel=1e-15)
        assert math.fsum(grid.weights) == pytest.approx(1.0, abs=1e-12)

    def test_single_cell_identity(self):
        assert normalize(make_grid([1.0])).weights == (1.0,)

    def test_all_zero_is_degenerate(self):
        with pytest.raises(DegenerateInputError):
            make_grid([0.0, 0.0, 0.0])

    def test_ordering_preserved(self):
        rng = random.Random(3)
        weights = [rng.random() for _ in range(50)]
        grid = normalize(make_grid(weights))
        order = sorted(range(50), key=weights.__getitem__)
        normalized_order = sorted(range(50), key=grid.weights.__getitem__)
        assert order == normalized_order


class TestPoissonPmf:
    def test_k0_and_k1_equal_e_inverse(self):
        assert poisson_alert_pmf(0) == pytest.approx(0.36787944117144233, rel=1e-15)
        assert poisson_alert_pmf(1) == pytest.approx(0.36787944117144233, rel=1e-15)

    def test_k3_direct_evaluation(self):
        assert poisson_alert_pmf(3) == pytest.approx(0.06131324019524039, rel=1e-15)

    def test_mass_sums_to_one(self):
        total = math.fsum(poisson_alert_pmf(k) for k in range(51))
        assert 1 - 1e-12 <= total <= 1

    def test_negative_k_rejected(self):
        with pytest.raises(ParameterError):
            poisson_alert_pmf(-1)


class TestSampleAlertZone:
    def test_zero_radius_is_origin_only(self):
        grid = generate_sigmoid_probabilities(8, 8, 0.5, 5, seed=2)
        zone = sample_alert_zone(grid, 10.0, 0.0, seed=9)
        assert zone.cell_ids == {zone.origin_cell}

    def test_radius_10m_interior_is_von_neumann_neighborhood(self):
        # Force an interior origin by putting all the mass on one cell.
        weights = [0.0] * 1024
        origin = 16 * 32 + 16
        weights[origin] = 1.0
        grid = make_grid(weights, rows=32)
        zone = sample_alert_zone(grid, 10.0, 10.0, seed=0)
        # Oracle: enumerate centers within 10 m of the origin center.
        expected = {
            r * 32 + c
            for r in range(32)
            for c in range(32)
            if ((r - 16) ** 2 + (c - 16) ** 2) * 100 <= 100
        }
        assert zone.origin_cell == origin
        assert zone.cell_ids == expected
        assert len(zone.cell_ids) == 5

    def test_covering_radius_takes_all_cells(self):
        grid = generate_sigmoid_probabilities(8, 8, 0.5, 5, seed=2)
        diagonal = math.hypot(8, 8) * 10
        zone = sample_alert_zone(grid, 10.0, diagonal, seed=5)
        assert zone.cell_ids == set(range(64))

    def test_origin_always_inside(self):
        grid = generate_sigmoid_probabilities(6, 6, 0.9, 50, seed=4)
        for seed in range(25):
            zone = sample_alert_zone(grid, 10.0, 25.0, seed=seed)
            assert zone.origin_cell in zone.cell_ids

    def test_invariant_under_weight_rescaling(self):
        rng = random.Random(11)
        weights = [rng.random() for _ in range(36)]
        grid = make_grid(weights, rows=6)
        for scale in (0.25, 2.0, 1024.0, 3.0):
            scaled = make_grid([w * scale for w in weights], rows=6)
            for seed in range(10):
                a = sample_alert_zone(grid, 10.0, 15.0, seed=seed)
                b = sample_alert_zone(scaled, 10.0, 15.0, seed=seed)
                assert a.cell_ids == b.cell_ids

    def test_zero_weight_cells_never_originate(self):
        weights = [0.0, 1.0, 0.0, 2.0]
        grid = make_grid(weights, rows=1)
        origins = {sample_alert_zone(grid, 10.0, 0.0, seed=s).origin_cell for s in range(40)}
        assert origins <= {1, 3}

    def test_negative_radius_rejected(self):
        grid = make_grid([1.0, 1.0], rows=1)
        with pytest.raises(ParameterError):
            sample_alert_zone(grid, 10.0, -1.0, seed=0)


class TestGridJson:
    def test_round_trip(self):
        grid = generate_sigmoid_probabilities(3, 4, 0.9, 10, seed=8)
        obj = grid_to_json(grid)
        assert obj["rows"] == 3 and obj["cols"] == 4
        back = grid_from_json(obj)
        assert back.weights == grid.weights


class TestGridValidation:
    def test_weight_count_must_match(self):
        with pytest.raises(DimensionError):
            make_grid([0.5, 0.5, 0.5], rows=2)

    def test_negative_weight_rejected(self):
        with pytest.raises(ParameterError):
            make_grid([0.5, -0.1])
