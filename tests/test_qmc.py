"""Tests for the interlaced polynomial lattice rules."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracuq
from fracuq import qmc
from fracuq.errors import ConfigurationError, ValidationError
from fracuq.qmc import (InterlacedLatticeRule, cbc_construct, cbc_rule,
                        classical_points, default_modulus, digital_shift_half,
                        interlace, kernel_values, load_gen_vector,
                        save_gen_vector, shift_to_centered)
from fracuq.qmc import _digits, _from_digits, _monic, _mul_mod, is_irreducible
from oracles import classical_points_by_column, figure_of_merit, poly_mod


def coeffs(v, b):
    """The coefficients of the polynomial of code v over GF(b), lowest first,
    without trailing zeros."""
    return np.trim_zeros(_digits(v, b, 8), "b").tolist()


class TestGFPoly:
    """Polynomials over GF(b) held as integer codes: base-b digits, lowest first."""

    def test_int_round_trip(self):
        for b in (2, 3, 5):
            v = np.arange(40)
            assert _from_digits(_digits(v, b, 8), b).tolist() == v.tolist()

    def test_mul_mod_consistency(self):
        # the residue product a c mod p over GF(2) agrees with carry-less bit math
        a, c = _digits([0b1011, 0b110], 2, 4)
        low, _ = _monic(0b10011, 2, 4)  # x^4 + x + 1
        prod = int(_from_digits(_mul_mod(a, c, low, 2), 2))

        def clmul(x, y):
            out = 0
            while y:
                if y & 1:
                    out ^= x
                x <<= 1
                y >>= 1
            return out

        def mod2(x, q):
            while x.bit_length() >= q.bit_length():
                x ^= q << (x.bit_length() - q.bit_length())
            return x

        assert prod == mod2(clmul(0b1011, 0b110), 0b10011)

    def test_coefficients_reduced(self, tmp_path):
        # a rule file's coefficients are read mod b: g = 5 + 3x over GF(2) is 1 + x
        path = tmp_path / "rule.txt"
        path.write_text("2 2 1 1\nP 1 1 1\ng 5 3\n")
        assert load_gen_vector(path).gen == (3,)


class TestIrreducibility:
    def brute(self, p, b):
        # trial division by every lower-degree polynomial
        m = len(coeffs(p, b)) - 1
        if m <= 0:
            return False
        for d in range(b, b ** m):            # the codes of degree 1 .. m - 1
            if not poly_mod(coeffs(p, b), coeffs(d, b), b):
                return False
        return True

    @pytest.mark.parametrize("b", [2, 3, 5])
    def test_matches_trial_division(self, b):
        # degree 4 and 6 reach Rabin's gcd condition for m / q >= 2
        max_degree = {2: 6, 3: 3, 5: 3}[b]
        for v in range(b, b ** (max_degree + 1)):
            assert is_irreducible(v, b) == self.brute(v, b), v

    def test_default_modulus_is_irreducible(self):
        for m in range(1, 12):
            p = default_modulus(2, m)
            assert 2 ** m <= p < 2 ** (m + 1)
            assert is_irreducible(p, 2)


class TestClassicalPoints:
    def test_point_zero_is_origin(self):
        p = default_modulus(2, 3)
        ps = classical_points(2, 3, 2, p, [1, 2])      # g = 1, x
        assert np.all(ps.values[0] == 0.0)

    def test_two_point_rule_half(self):
        # b=2, m=1, P=x+1, g=(1): long division gives 1/(x+1) = x^-1 + ...,
        # so v_1 keeps the single digit 1 -> coordinate 1/2
        ps = classical_points(2, 1, 1, 3, [1])
        assert ps.values[1, 0] == 0.5

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_columns_are_full_grid(self, m):
        n = 2 ** m
        p = default_modulus(2, m)
        for g_int in range(1, n):
            ps = classical_points(2, m, 1, p, [g_int])
            assert sorted(ps.values[:, 0]) == [k / n for k in range(n)]

    def test_coordinates_exact_multiples(self):
        p = default_modulus(2, 5)
        ps = classical_points(2, 5, 1, p, [7])
        assert ps.digits == 5
        assert np.all(ps.mantissas >= 0) and np.all(ps.mantissas < 32)

    @pytest.mark.parametrize("b, m", [(2, m) for m in range(1, 13)]
                             + [(3, 1), (3, 3), (3, 5), (5, 1), (5, 2), (5, 4)])
    def test_bitwise_equal_to_column_by_column(self, b, m):
        rng = np.random.default_rng(b * 100 + m)
        dim = 5 if b ** m > 1000 else 24
        gen = rng.integers(1, b ** m, dim).tolist()
        p = default_modulus(b, m)
        got = classical_points(b, m, dim, p, gen).mantissas
        want = classical_points_by_column(b, m, dim, p, gen)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_reducible_modulus_rejected(self):
        with pytest.raises(ValidationError):
            classical_points(2, 2, 1, 4, [1])        # P = x^2

    def test_degree_mismatch_rejected(self):
        p = default_modulus(2, 2)
        with pytest.raises(ValidationError):
            classical_points(2, 2, 1, p, [7])        # g = 1 + x + x^2


class TestInterlace:
    def test_beta_one_identity(self):
        p = default_modulus(2, 3)
        ps = classical_points(2, 3, 2, p, [1, 2])
        out = interlace(ps, 1)
        assert np.array_equal(out.mantissas, ps.mantissas)

    def test_half_half_gives_three_quarters(self):
        from fracuq.qmc import PointSet
        raw = PointSet(np.array([[1, 1]], dtype=np.int64), 2, 1)
        out = interlace(raw, 2)
        assert out.values[0, 0] == 0.75

    def test_zero_block(self):
        from fracuq.qmc import PointSet
        raw = PointSet(np.zeros((1, 3), dtype=np.int64), 2, 4)
        assert interlace(raw, 3).values[0, 0] == 0.0

    def test_block_size_mismatch(self):
        from fracuq.qmc import PointSet
        raw = PointSet(np.zeros((1, 5), dtype=np.int64), 2, 2)
        with pytest.raises(ConfigurationError):
            interlace(raw, 2)

    @pytest.mark.parametrize("beta", [2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_injective_on_grid(self, m, beta):
        # exhaustive over all beta-tuples of m-digit base-2 mantissas
        from fracuq.qmc import PointSet
        grids = list(itertools.product(range(2 ** m), repeat=beta))
        raw = PointSet(np.array(grids, dtype=np.int64), 2, m)
        out = interlace(raw, beta)
        assert len(set(out.mantissas[:, 0].tolist())) == len(grids)

    def test_digit_depth_guard(self):
        from fracuq.qmc import PointSet
        raw = PointSet(np.zeros((1, 3), dtype=np.int64), 2, 20)
        with pytest.raises(ConfigurationError):
            interlace(raw, 3)  # 60 binary digits > float64 mantissa


class TestShifts:
    def test_centering(self):
        from fracuq.qmc import PointSet
        raw = PointSet(np.array([[0, 8, 15]], dtype=np.int64), 2, 4)
        vals = shift_to_centered(raw)
        assert vals[0, 0] == -0.5
        assert vals[0, 1] == 0.0
        assert vals[0, 2] == 0.4375  # 0.9375 - 1/2

    def test_digital_shift_half_base2(self):
        from fracuq.qmc import PointSet
        raw = PointSet(np.array([[0, 8, 5]], dtype=np.int64), 2, 4)
        out = digital_shift_half(raw)
        # flips the leading binary digit: 0 -> 1/2, 1/2 -> 0, 5/16 -> 13/16
        assert out.mantissas[0].tolist() == [8, 0, 13]

    def test_digital_shift_is_involution(self):
        from fracuq.qmc import PointSet
        rng = np.random.default_rng(0)
        raw = PointSet(rng.integers(0, 2 ** 6, size=(10, 4)), 2, 6)
        twice = digital_shift_half(digital_shift_half(raw))
        assert np.array_equal(twice.mantissas, raw.mantissas)


class TestKernel:
    def test_kernel_matches_direct_sum(self):
        # psi(x) = sum_{i>=1} s^(i-1) * wal-type digit factor; evaluate the
        # defining geometric series directly for every grid value
        b, m, beta = 2, 5, 3
        s = float(b) ** (1 - beta)
        vals = kernel_values(b, m, beta)
        assert vals[0] == pytest.approx((b - 1) / (1 - s), rel=1e-14)
        for r in range(1, b ** m):
            digs = [(r // b ** (m - t)) % b for t in range(1, m + 1)]
            i0 = next(t for t, d in enumerate(digs, start=1) if d > 0)
            expected = sum((b - 1) * s ** (i - 1) for i in range(1, i0)) \
                - s ** (i0 - 1)
            assert vals[r] == pytest.approx(expected, rel=1e-13)


class TestCBC:
    def exhaustive_scores(self, b, m, beta, gammas, prefix):
        p = default_modulus(b, m)
        scores = {}
        for g_int in range(1, b ** m):
            cand = prefix + [g_int]
            scores[g_int] = figure_of_merit(b, m, beta, p, cand, gammas)
        return scores

    @pytest.mark.parametrize("m", [2, 4, 6])
    @pytest.mark.parametrize("beta", [1, 2])
    def test_matches_exhaustive_search(self, m, beta):
        b = 2
        gammas = [1.0, 0.5, 0.25]
        gen = cbc_construct(b, m, 3, beta, gammas)
        p = default_modulus(b, m)
        prefix = []
        for c in range(3):
            scores = self.exhaustive_scores(b, m, beta, gammas, prefix)
            best = min(scores.values())
            chosen = figure_of_merit(b, m, beta, p, prefix + [gen[c]], gammas)
            assert chosen == pytest.approx(best, rel=1e-10)
            prefix.append(gen[c])

    def test_generating_vectors_pinned(self):
        # integer codes of the CBC vectors of the default moduli, recorded
        # from a construction by polynomial arithmetic; every rule must keep them
        pinned = json.loads((Path(__file__).parent / "pinned_genvecs.json").read_text())
        gammas = 1.0 / np.arange(1, 13, dtype=float) ** 2
        for key, want in pinned.items():
            b, m, beta = map(int, key.split(","))
            rule = cbc_rule(b, m, beta, 12, gammas)
            assert list(rule.gen) == want, key

    def test_effective_weights_match_column_loop(self):
        # the per-column loop with Python's float ** int is the reference;
        # numpy's power can differ from it in the last bit for large b
        from fracuq.qmc import _effective_weights
        for b, beta, dim in itertools.product((2, 3, 7, 251, 65521), (1, 2, 3, 4),
                                              (1, 5, 12, 759)):
            gam = 1.0 / np.arange(1, dim + 2, dtype=float) ** 1.7
            loop = [gam[c // beta] * float(b) ** -(c % beta) for c in range(dim)]
            assert _effective_weights(dim, beta, b, gam).tobytes() == np.array(loop).tobytes()

    def test_deterministic(self):
        g1 = cbc_construct(2, 5, 6, 3, [1.0 / (j + 1) for j in range(2)])
        g2 = cbc_construct(2, 5, 6, 3, [1.0 / (j + 1) for j in range(2)])
        assert g1 == g2

    def test_merit_nonincreasing_under_extension(self):
        # appending a dimension with a small weight cannot increase the
        # merit by more than the weighted correction; with decaying weights
        # the per-dimension minimum stays below (1 + w psi(0)) * previous
        b, m, beta = 2, 4, 2
        gammas = [1.0, 0.25, 0.0625, 0.015625]
        p = default_modulus(b, m)
        gen = cbc_construct(b, m, 4, beta, gammas)
        merits = [figure_of_merit(b, m, beta, p, list(gen[: c + 1]), gammas)
                  for c in range(4)]
        psi0 = kernel_values(b, m, beta)[0]
        from fracuq.qmc import _effective_weights
        w = _effective_weights(4, beta, b, gammas)
        for c in range(3):
            assert merits[c + 1] <= merits[c] * (1.0 + w[c + 1] * psi0) + 1e-15

    def test_rule_mean_of_constant(self):
        rule = cbc_rule(2, 4, 3, 5, [2.0 ** -j for j in range(5)])
        pts = rule.points().values
        assert pts.shape == (16, 5)
        # equal-weight rule integrates f = 1 exactly
        assert np.sum(np.ones(16)) / 16 == 1.0
        # each classical column is the full grid, so column means are (N-1)/2N
        cls = rule.classical().values
        assert np.allclose(cls.mean(axis=0), 15.0 / 32.0)

    def test_first_point_origin_and_centering(self):
        rule = cbc_rule(2, 3, 2, 3, [1.0, 0.5, 0.25])
        pts = rule.centered_points()
        assert np.all(pts[0] == -0.5)
        assert np.all(pts >= -0.5) and np.all(pts < 0.5)
        shifted = rule.centered_points(shift="digital-half")
        assert np.all(shifted[0] == 0.0)
        assert np.array_equal(shift_to_centered(rule.points(), "digital-half"), shifted)
        with pytest.raises(ConfigurationError):
            rule.centered_points(shift="bogus")

    def test_serves(self):
        rule = cbc_rule(2, 3, 2, 3, [1.0, 0.5, 0.25])
        assert rule.serves(2, 3, 2, 3) and rule.serves(2, 3, 2, 1)
        assert not rule.serves(2, 3, 2, 4)
        assert not any(rule.serves(*shape) for shape in
                       [(3, 3, 2, 3), (2, 4, 2, 3), (2, 3, 3, 3)])


class TestScorePaths:
    """The circulant product and the FFT pair score the candidates of a column;
    ``_CBC_DIRECT_ORDER`` picks one by the group order, and both must choose
    the same generating vectors."""

    @staticmethod
    def force(monkeypatch, path):
        monkeypatch.setattr(qmc, "_CBC_DIRECT_ORDER", 10 ** 9 if path == "direct" else 0)

    @pytest.mark.parametrize("path", ["direct", "fft"])
    def test_pinned_on_each_path(self, monkeypatch, path):
        self.force(monkeypatch, path)
        TestCBC().test_generating_vectors_pinned()

    # group orders b^m - 1 on both sides of the crossover at 255
    @pytest.mark.parametrize("b, ms", [(2, (1, 2, 3, 5, 8, 9)), (3, (1, 2, 4, 5, 6)),
                                       (5, (1, 2, 3, 4)), (7, (1, 2, 3))],
                             ids=["b2", "b3", "b5", "b7"])
    def test_paths_choose_the_same_vectors(self, monkeypatch, b, ms):
        z = 6
        for m, beta, decay in itertools.product(ms, (1, 2, 3, 4), (0.0, 2.0)):
            # decay 0 gives equal weights, whose scores tie exactly
            gammas = 1.0 / np.arange(1, z + 1, dtype=float) ** decay
            gens = {}
            for path in ("direct", "fft"):
                self.force(monkeypatch, path)
                gens[path] = cbc_construct(b, m, beta * z, beta, gammas)
            assert gens["direct"] == gens["fft"], (m, beta, decay)


class TestGuards:
    """Refusals of bad rules, each reached through public input."""

    def test_constant_is_not_irreducible(self, tmp_path):
        assert not is_irreducible(1, 2)
        assert not is_irreducible(0, 3)
        # a rule file of degree 0 has a constant modulus
        path = tmp_path / "rule.txt"
        path.write_text("2 0 1 0\nP 1\n")
        with pytest.raises(ValidationError, match="reducible"):
            load_gen_vector(path)

    @pytest.mark.parametrize("call", ["default_modulus(1, 2)", "default_modulus(0, 3)",
                                      "default_modulus(-2, 2)", "is_irreducible(5, 1)",
                                      "is_irreducible(5, 0)"])
    def test_base_below_two_refused(self, call):
        # below base 2 the search for the degree never ended: the call runs in a
        # child with a timeout, so a hang fails this test and does not stall the suite
        child = ("import sys\n"
                 "from fracuq.errors import ConfigurationError\n"
                 "from fracuq.qmc import default_modulus, is_irreducible\n"
                 f"try:\n    {call}\n"
                 "except ConfigurationError as exc:\n    sys.exit(f'refused: {exc}')\n")
        paths = [os.path.dirname(os.path.dirname(fracuq.__file__)), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("refused: base b = ") and "is not prime" in proc.stderr

    def test_default_modulus_needs_degree_one(self):
        with pytest.raises(ConfigurationError, match="m must be >= 1"):
            default_modulus(3, 0)

    def test_classical_points_dim_must_match_generators(self):
        with pytest.raises(ConfigurationError, match="2 generating polynomials"):
            classical_points(2, 2, 3, default_modulus(2, 2), [1] * 2)

    def test_cbc_needs_a_weight_per_coordinate(self):
        # dim 5 at beta 2 spans 3 coordinates
        with pytest.raises(ConfigurationError, match="need 3 weights"):
            cbc_construct(2, 3, 5, 2, [1.0, 0.5])

    def test_cbc_needs_a_column(self):
        with pytest.raises(ConfigurationError, match="dim must be >= 1"):
            cbc_construct(2, 3, 0, 1, [1.0])

    @pytest.mark.parametrize("text, what", [("2 2 1 1\nQ 1 1 1\ng 1\n", "modulus"),
                                            ("2 2 1 1\nP 1 1 1\nh 1\n", "generator")],
                             ids=["modulus", "generator"])
    def test_rule_file_line_tags(self, tmp_path, text, what):
        path = tmp_path / "rule.txt"
        path.write_text(text)
        with pytest.raises(ValidationError, match=f"expected {what} line"):
            load_gen_vector(path)


class TestGenVectorFiles:
    def test_round_trip(self, tmp_path):
        rule = cbc_rule(2, 4, 2, 3, [1.0, 0.5, 0.25])
        path = tmp_path / "rule.txt"
        save_gen_vector(rule, path)
        loaded = load_gen_vector(path)
        assert loaded.b == rule.b and loaded.m == rule.m
        assert loaded.beta == rule.beta and loaded.z == rule.z
        assert loaded.p == rule.p and loaded.gen == rule.gen
        assert np.array_equal(loaded.points().mantissas, rule.points().mantissas)

    def test_reducible_modulus_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2 1 1\nP 0 0 1\ng 1\n")  # P = x^2 is reducible
        with pytest.raises(ValidationError):
            load_gen_vector(path)

    def test_generator_degree_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2 1 1\nP 1 1 1\ng 1 1 1\n")
        with pytest.raises(ValidationError) as err:
            load_gen_vector(path)
        assert ":3" in str(err.value)  # offending line reported

    def test_comments_and_header_errors(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# only a comment\nnot a header\n")
        with pytest.raises(ValidationError):
            load_gen_vector(path)

    def test_rule_validation(self):
        with pytest.raises(ValidationError):
            InterlacedLatticeRule(b=2, m=2, beta=2, z=1,
                                  p=default_modulus(2, 2),
                                  gen=(1,))
