"""Layer semantics and finite-difference gradient verification."""

import numpy as np
import pytest

from tglink.errors import DivergenceError, ShapeError, ValidationError
from tglink.nn import (
    Adam,
    AttentionReadout,
    GruCell,
    Mlp,
    MlpSpec,
    ParamSet,
    Tensor,
    TimeEncoder,
    masked_attention,
    masked_attention_backward,
    uniform_init,
)

from helpers import grad_check

GRAD_TOL = 1e-4
N_INSTANCES = 20


def check_layer(params, loss_and_grad, loss_only):
    """Populate grads once, then compare against central differences."""
    for _, p in params:
        p.grad.fill(0.0)
    loss_and_grad()
    return grad_check(loss_only, params, eps=1e-5, tolerance=GRAD_TOL)


class TestMlpSemantics:
    def test_zero_weights_bias_passthrough(self):
        rng = np.random.default_rng(0)
        mlp = Mlp(MlpSpec(3, (4,), 2), rng)
        for w in mlp.weights:
            w.values[:] = 0.0
        mlp.biases[0].values[:] = 0.0
        mlp.biases[1].values[:] = [0.7, -0.3]
        out, _ = mlp.forward(np.random.default_rng(1).normal(size=(5, 3)))
        assert out == pytest.approx(np.tile([0.7, -0.3], (5, 1)))

    def test_identity_single_layer(self):
        mlp = Mlp(MlpSpec(3, (), 3), np.random.default_rng(0))
        mlp.weights[0].values[:] = np.eye(3)
        mlp.biases[0].values[:] = 0.0
        x = np.random.default_rng(2).normal(size=(4, 3))
        out, _ = mlp.forward(x)
        assert out == pytest.approx(x)

    def test_shape_error_names_layer(self):
        mlp = Mlp(MlpSpec(3, (4,), 2), np.random.default_rng(0), name="decoder")
        with pytest.raises(ShapeError, match="decoder"):
            mlp.forward(np.zeros((2, 5)))

    def test_param_count_closed_form(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            dims = rng.integers(1, 9, size=rng.integers(2, 5))
            spec = MlpSpec(int(dims[0]), tuple(int(d) for d in dims[1:-1]), int(dims[-1]))
            mlp = Mlp(spec, rng)
            actual = sum(p.size for _, p in mlp.parameters())
            assert actual == spec.weight_count() + spec.bias_count()


class TestMlpGradients:
    def test_matches_finite_differences(self):
        worst = 0.0
        for trial in range(N_INSTANCES):
            rng = np.random.default_rng(100 + trial)
            mlp = Mlp(MlpSpec(5, (7,), 3), rng)
            x = Tensor(rng.normal(size=(4, 5)))
            proj = rng.normal(size=(4, 3))
            params = mlp.parameters() + [("x", x)]

            def loss_and_grad():
                out, cache = mlp.forward(x.values)
                dx = mlp.backward(cache, proj)
                x.accumulate(dx)

            def loss_only():
                out, _ = mlp.forward(x.values)
                return float((out * proj).sum())

            report = check_layer(params, loss_and_grad, loss_only)
            worst = max(worst, report.max_rel_error)
            assert report.passed(GRAD_TOL), report.failures[:3]
        assert worst < GRAD_TOL


class TestGruSemantics:
    def test_saturated_update_gate_keeps_state(self):
        rng = np.random.default_rng(0)
        gru = GruCell(4, 3, rng)
        gru.b_z.values[:] = 50.0  # z ~= 1 everywhere
        h = rng.normal(size=(2, 3))
        x = rng.normal(size=(2, 4))
        h2, _ = gru.forward(h, x)
        assert h2 == pytest.approx(h, abs=1e-12)

    def test_zero_state_zero_candidate(self):
        rng = np.random.default_rng(1)
        gru = GruCell(4, 3, rng)
        gru.w_xn.values[:] = 0.0
        gru.b_n.values[:] = 0.0
        h = np.zeros((2, 3))
        h2, _ = gru.forward(h, np.random.default_rng(2).normal(size=(2, 4)))
        assert h2 == pytest.approx(np.zeros((2, 3)), abs=1e-15)

    def test_shape_error(self):
        gru = GruCell(4, 3, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            gru.forward(np.zeros((2, 3)), np.zeros((2, 5)))


class TestGruGradients:
    def test_matches_finite_differences(self):
        for trial in range(N_INSTANCES):
            rng = np.random.default_rng(200 + trial)
            gru = GruCell(12, 8, rng)
            h = Tensor(rng.normal(size=(3, 8)))
            x = Tensor(rng.normal(size=(3, 12)))
            proj = rng.normal(size=(3, 8))
            params = gru.parameters() + [("h", h), ("x", x)]

            def loss_and_grad():
                out, cache = gru.forward(h.values, x.values)
                dh, dx = gru.backward(cache, proj)
                h.accumulate(dh)
                x.accumulate(dx)

            def loss_only():
                out, _ = gru.forward(h.values, x.values)
                return float((out * proj).sum())

            report = check_layer(params, loss_and_grad, loss_only)
            assert report.passed(GRAD_TOL), report.failures[:3]


class TestTimeEncoderSemantics:
    def test_zero_dt_gives_cos_phase(self):
        enc = TimeEncoder(6, span=10.0)
        enc.phase.values[:] = np.linspace(0, 1, 6)
        out, _ = enc.forward(np.zeros(4))
        assert out == pytest.approx(np.tile(np.cos(enc.phase.values), (4, 1)))

    def test_zero_frequency_constant(self):
        enc = TimeEncoder(3, span=10.0)
        enc.omega.values[:] = 0.0
        enc.phase.values[:] = [0.1, 0.2, 0.3]
        out, _ = enc.forward(np.array([0.0, 5.0, 100.0]))
        assert out == pytest.approx(np.tile(np.cos([0.1, 0.2, 0.3]), (3, 1)))

    def test_range(self):
        enc = TimeEncoder(8, span=3.0)
        out, _ = enc.forward(np.random.default_rng(0).uniform(0, 100, 50))
        assert np.all(out >= -1.0) and np.all(out <= 1.0)


class TestTimeEncoderGradients:
    def test_matches_finite_differences(self):
        for trial in range(N_INSTANCES):
            rng = np.random.default_rng(300 + trial)
            enc = TimeEncoder(5, span=float(rng.uniform(0.5, 20)))
            dt = Tensor(rng.uniform(0, 10, size=6))
            proj = rng.normal(size=(6, 5))
            params = enc.parameters() + [("dt", dt)]

            def loss_and_grad():
                out, cache = enc.forward(dt.values)
                ddt = enc.backward(cache, proj)
                dt.accumulate(ddt)

            def loss_only():
                out, _ = enc.forward(dt.values)
                return float((out * proj).sum())

            report = check_layer(params, loss_and_grad, loss_only)
            assert report.passed(GRAD_TOL), report.failures[:3]


class TestAttentionSemantics:
    def test_single_neighbor_returns_its_value(self):
        rng = np.random.default_rng(0)
        q = rng.normal(size=(2, 4))
        k = rng.normal(size=(2, 1, 4))
        v = rng.normal(size=(2, 1, 3))
        mask = np.ones((2, 1), dtype=bool)
        out, _ = masked_attention(q, k, v, mask)
        assert out == pytest.approx(v[:, 0, :])

    def test_duplicate_neighbor_equals_single(self):
        rng = np.random.default_rng(1)
        q = rng.normal(size=(3, 4))
        k1 = rng.normal(size=(3, 1, 4))
        v1 = rng.normal(size=(3, 1, 5))
        out1, _ = masked_attention(q, k1, v1, np.ones((3, 1), bool))
        k2 = np.concatenate([k1, k1], axis=1)
        v2 = np.concatenate([v1, v1], axis=1)
        out2, _ = masked_attention(q, k2, v2, np.ones((3, 2), bool))
        assert out2 == pytest.approx(out1)

    def test_no_neighbors_zero_output(self):
        rng = np.random.default_rng(2)
        out, _ = masked_attention(
            rng.normal(size=(2, 4)),
            rng.normal(size=(2, 3, 4)),
            rng.normal(size=(2, 3, 5)),
            np.zeros((2, 3), bool),
        )
        assert out == pytest.approx(np.zeros((2, 5)))

    def test_readout_zero_neighbors_is_query_projection(self):
        rng = np.random.default_rng(3)
        att = AttentionReadout(4, 6, 5, 3, rng)
        q_in = rng.normal(size=(2, 4))
        kv = rng.normal(size=(2, 3, 6))
        out, _ = att.forward(q_in, kv, np.zeros((2, 3), bool))
        q = q_in @ att.w_q.values + att.b_q.values
        expected = np.concatenate([q, np.zeros((2, 5))], axis=1) @ att.w_o.values + att.b_o.values
        assert out == pytest.approx(expected)


class TestAttentionGradients:
    def test_core_matches_finite_differences(self):
        for trial in range(N_INSTANCES):
            rng = np.random.default_rng(400 + trial)
            b, k, d, dv = 3, 4, 5, 6
            q = Tensor(rng.normal(size=(b, d)))
            keys = Tensor(rng.normal(size=(b, k, d)))
            values = Tensor(rng.normal(size=(b, k, dv)))
            mask = rng.random((b, k)) < 0.7
            mask[0, :] = False  # exercise the all-masked row
            proj = rng.normal(size=(b, dv))
            params = [("q", q), ("k", keys), ("v", values)]

            def loss_and_grad():
                out, cache = masked_attention(q.values, keys.values, values.values, mask)
                dq, dk, dv_ = masked_attention_backward(cache, proj)
                q.accumulate(dq)
                keys.accumulate(dk)
                values.accumulate(dv_)

            def loss_only():
                out, _ = masked_attention(q.values, keys.values, values.values, mask)
                return float((out * proj).sum())

            report = check_layer(params, loss_and_grad, loss_only)
            assert report.passed(GRAD_TOL), report.failures[:3]

    def test_readout_matches_finite_differences(self):
        for trial in range(N_INSTANCES):
            rng = np.random.default_rng(500 + trial)
            att = AttentionReadout(4, 6, 5, 3, rng)
            q_in = Tensor(rng.normal(size=(3, 4)))
            kv_in = Tensor(rng.normal(size=(3, 2, 6)))
            mask = rng.random((3, 2)) < 0.8
            proj = rng.normal(size=(3, 3))
            params = att.parameters() + [("q_in", q_in), ("kv_in", kv_in)]

            def loss_and_grad():
                out, cache = att.forward(q_in.values, kv_in.values, mask)
                dq, dkv = att.backward(cache, proj)
                q_in.accumulate(dq)
                kv_in.accumulate(dkv)

            def loss_only():
                out, _ = att.forward(q_in.values, kv_in.values, mask)
                return float((out * proj).sum())

            report = check_layer(params, loss_and_grad, loss_only)
            assert report.passed(GRAD_TOL), report.failures[:3]


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = Tensor(np.array([1.0, 2.0]))
        opt = Adam([ParamSet([("p", p)])], lr=0.1)
        opt.zero_grad()
        opt.step()
        assert p.values == pytest.approx([1.0, 2.0])
        assert opt.t == 1

    def test_quadratic_convergence(self):
        p = Tensor(np.array([5.0]))
        opt = Adam([ParamSet([("p", p)])], lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            p.accumulate(2.0 * p.values)  # d/dx of x^2
            opt.step()
        assert abs(p.values[0]) < 1e-3

    def test_deterministic_trajectories(self):
        def run():
            rng = np.random.default_rng(0)
            p = Tensor(rng.normal(size=4))
            opt = Adam([ParamSet([("p", p)])], lr=0.05)
            for i in range(50):
                opt.zero_grad()
                p.accumulate(np.sin(p.values) + 0.1 * i)
                opt.step()
            return p.values.copy()

        assert np.array_equal(run(), run())

    def test_non_finite_gradient_raises(self):
        p = Tensor(np.array([1.0]))
        opt = Adam([ParamSet([("p", p)])], lr=0.1)
        p.grad[0] = np.nan
        with pytest.raises(DivergenceError):
            opt.step()


class TestGradCheck:
    def test_flags_wrong_backward(self):
        # a deliberately broken backward must be caught (mutation test)
        rng = np.random.default_rng(0)
        w = Tensor(rng.normal(size=(3, 2)))
        x = rng.normal(size=(4, 3))
        proj = rng.normal(size=(4, 2))

        def loss_only():
            return float(((x @ w.values) * proj).sum())

        w.accumulate(1.02 * (x.T @ proj))  # 2% off
        report = grad_check(loss_only, [("w", w)], eps=1e-5, tolerance=GRAD_TOL)
        assert not report.passed(GRAD_TOL)
        assert report.failures

    def test_bad_eps(self):
        w = Tensor(np.zeros(3))
        with pytest.raises(ValidationError):
            grad_check(lambda: 0.0, [("w", w)], eps=0.0)


class TestInit:
    def test_uniform_init_bounds(self):
        rng = np.random.default_rng(0)
        w = uniform_init(rng, (200, 50), fan_in=50)
        bound = 1.0 / np.sqrt(50)
        assert np.all(np.abs(w) <= bound)

    def test_seeded_init_reproducible(self):
        a = Mlp(MlpSpec(4, (5,), 2), np.random.default_rng(9))
        b = Mlp(MlpSpec(4, (5,), 2), np.random.default_rng(9))
        for (_, pa), (_, pb) in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa.values, pb.values)
