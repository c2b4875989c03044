"""Minimal dense float64 neural layers with hand-derived reverse mode.

This is deliberately not a general autodiff graph: the model needs exactly an
affine/ReLU stack, a GRU cell, a cosine time encoder, and masked dot-product
attention. Each layer exposes `forward(...) -> (output, cache)` and a
`backward(cache, d_output)` that accumulates into parameter `.grad` buffers
and returns gradients with respect to its inputs. Every backward pass is
checked against central finite differences in the test suite.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DivergenceError, ShapeError, ValidationError


class Tensor:
    """A dense float64 array and its same-shape gradient buffer."""

    __slots__ = ("values", "grad")

    def __init__(self, values):
        self.values = np.ascontiguousarray(values, dtype=np.float64)
        self.grad = np.zeros_like(self.values)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def accumulate(self, g: np.ndarray) -> None:
        if g.shape != self.values.shape:
            raise ShapeError(f"gradient shape {g.shape} != value shape {self.values.shape}")
        self.grad += g


class ParamSet:
    """Named tensors whose values and gradients are views into two flat buffers.

    A parameter owner (the model, the structural map) packs its layers'
    tensors into one set, so zeroing gradients, an optimizer step, a snapshot
    or a copy is one array operation on `flat_values` or `flat_grad`. Writes
    go through the buffers and never rebind a view, so the layers always read
    the current values.
    """

    def __init__(self, named: Sequence[tuple[str, Tensor]]):
        self._named = list(named)
        self.flat_values = np.concatenate([p.values.reshape(-1) for _, p in self._named])
        self.flat_grad = np.zeros_like(self.flat_values)
        start = 0
        for _, p in self._named:
            stop = start + p.size
            p.values = self.flat_values[start:stop].reshape(p.shape)
            p.grad = self.flat_grad[start:stop].reshape(p.shape)
            start = stop

    def parameters(self) -> list[tuple[str, Tensor]]:
        return list(self._named)

    def state_dict(self) -> dict:
        return {name: p.values.tolist() for name, p in self._named}

    def load_state_dict(self, state: dict) -> None:
        for name, p in self._named:
            p.values[...] = np.array(state[name], dtype=np.float64).reshape(p.shape)

    def copy(self):
        """An independent copy of the owner, packed into buffers of its own."""
        clone = deepcopy(self)
        # deepcopy gives each view its own array; re-pack them.
        ParamSet.__init__(clone, clone._named)
        return clone


def uniform_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    """Seeded uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) initialization."""
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


@dataclass(frozen=True)
class MlpSpec:
    """Affine stack spec: ReLU on hidden layers, identity on the output."""

    input_dim: int
    hidden_dims: tuple[int, ...]
    output_dim: int

    def __post_init__(self):
        dims = (self.input_dim, *self.hidden_dims, self.output_dim)
        if any(d < 1 for d in dims):
            raise ValidationError(f"all MLP dimensions must be >= 1, got {dims}")

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_dims, self.output_dim)

    def weight_count(self) -> int:
        dims = self.layer_dims
        return sum(dims[i] * dims[i + 1] for i in range(len(dims) - 1))

    def bias_count(self) -> int:
        return sum(self.layer_dims[1:])


class Mlp:
    """ReLU MLP; parameter count matches MlpSpec's closed form exactly."""

    def __init__(self, spec: MlpSpec, rng: np.random.Generator, name: str = "mlp"):
        self.spec = spec
        self.name = name
        dims = spec.layer_dims
        self.weights = [
            Tensor(uniform_init(rng, (dims[i], dims[i + 1]), dims[i]))
            for i in range(len(dims) - 1)
        ]
        self.biases = [
            Tensor(uniform_init(rng, (dims[i + 1],), dims[i])) for i in range(len(dims) - 1)
        ]

    def parameters(self) -> list[tuple[str, Tensor]]:
        out = []
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out.append((f"{self.name}.w{i}", w))
            out.append((f"{self.name}.b{i}", b))
        return out

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list]:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.spec.input_dim:
            raise ShapeError(
                f"{self.name}: input dim {x.shape[-1]} != expected {self.spec.input_dim}"
            )
        cache = []
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            pre = h @ w.values + b.values
            if i < last:
                post = np.maximum(pre, 0.0)
                cache.append((h, pre))
                h = post
            else:
                cache.append((h, pre))
                h = pre
        return h, cache

    def backward(self, cache: list, dy: np.ndarray) -> np.ndarray:
        d = np.asarray(dy, dtype=np.float64)
        last = len(self.weights) - 1
        for i in range(last, -1, -1):
            h_in, pre = cache[i]
            if i < last:
                d = d * (pre > 0)
            self.weights[i].accumulate(h_in.reshape(-1, h_in.shape[-1]).T @ d.reshape(-1, d.shape[-1]))
            self.biases[i].accumulate(d.reshape(-1, d.shape[-1]).sum(axis=0))
            d = d @ self.weights[i].values.T
        return d


class GruCell:
    """Gated recurrent unit: h' = z*h + (1-z)*tanh(Wx x + (r*h) Wh + b).

    z is the keep gate (saturating it at 1 reproduces h), r the reset gate.
    """

    def __init__(self, input_dim: int, state_dim: int, rng: np.random.Generator, name: str = "gru"):
        self.input_dim = input_dim
        self.state_dim = state_dim
        self.name = name

        def w(shape, fan):
            return Tensor(uniform_init(rng, shape, fan))

        self.w_xz = w((input_dim, state_dim), input_dim)
        self.w_hz = w((state_dim, state_dim), state_dim)
        self.b_z = w((state_dim,), input_dim)
        self.w_xr = w((input_dim, state_dim), input_dim)
        self.w_hr = w((state_dim, state_dim), state_dim)
        self.b_r = w((state_dim,), input_dim)
        self.w_xn = w((input_dim, state_dim), input_dim)
        self.w_hn = w((state_dim, state_dim), state_dim)
        self.b_n = w((state_dim,), input_dim)

    def parameters(self) -> list[tuple[str, Tensor]]:
        names = ("w_xz", "w_hz", "b_z", "w_xr", "w_hr", "b_r", "w_xn", "w_hn", "b_n")
        return [(f"{self.name}.{n}", getattr(self, n)) for n in names]

    def forward(self, h: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        h = np.asarray(h, dtype=np.float64)
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.input_dim or h.shape[-1] != self.state_dim:
            raise ShapeError(
                f"{self.name}: got input {x.shape[-1]}/state {h.shape[-1]}, "
                f"expected {self.input_dim}/{self.state_dim}"
            )
        z = sigmoid(x @ self.w_xz.values + h @ self.w_hz.values + self.b_z.values)
        r = sigmoid(x @ self.w_xr.values + h @ self.w_hr.values + self.b_r.values)
        rh = r * h
        n = np.tanh(x @ self.w_xn.values + rh @ self.w_hn.values + self.b_n.values)
        h_new = z * h + (1.0 - z) * n
        return h_new, (h, x, z, r, rh, n)

    def backward(self, cache: tuple, dh_new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        h, x, z, r, rh, n = cache
        d = np.asarray(dh_new, dtype=np.float64)
        dz = d * (h - n)
        dn = d * (1.0 - z)
        dh = d * z

        dan = dn * (1.0 - n * n)
        self.w_xn.accumulate(x.T @ dan)
        self.w_hn.accumulate(rh.T @ dan)
        self.b_n.accumulate(dan.sum(axis=0))
        drh = dan @ self.w_hn.values.T
        dr = drh * h
        dh += drh * r
        dx = dan @ self.w_xn.values.T

        dar = dr * r * (1.0 - r)
        self.w_xr.accumulate(x.T @ dar)
        self.w_hr.accumulate(h.T @ dar)
        self.b_r.accumulate(dar.sum(axis=0))
        dx += dar @ self.w_xr.values.T
        dh += dar @ self.w_hr.values.T

        daz = dz * z * (1.0 - z)
        self.w_xz.accumulate(x.T @ daz)
        self.w_hz.accumulate(h.T @ daz)
        self.b_z.accumulate(daz.sum(axis=0))
        dx += daz @ self.w_xz.values.T
        dh += daz @ self.w_hz.values.T
        return dh, dx


class TimeEncoder:
    """Cosine encoding of elapsed time: row i = cos(dt_i * omega + phase).

    Frequencies start log-spaced over [1e-4 * 2pi/span, 10 * 2pi/span] so the
    bank covers the stream's time scales; both vectors are trainable.
    """

    def __init__(self, dim: int, span: float = 1.0, name: str = "time_enc"):
        if dim < 1:
            raise ValidationError("time encoder dim must be >= 1")
        span = max(span, 1e-12)
        lo = np.log10(1e-4 * 2.0 * np.pi / span)
        hi = np.log10(10.0 * 2.0 * np.pi / span)
        self.omega = Tensor(np.logspace(lo, hi, dim))
        self.phase = Tensor(np.zeros(dim))
        self.name = name

    @property
    def dim(self) -> int:
        return self.omega.size

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [(f"{self.name}.omega", self.omega), (f"{self.name}.phase", self.phase)]

    def forward(self, dt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        dt = np.asarray(dt, dtype=np.float64)
        angle = dt[:, None] * self.omega.values[None, :] + self.phase.values[None, :]
        return np.cos(angle), (dt, angle)

    def backward(self, cache: tuple, dout: np.ndarray) -> np.ndarray:
        dt, angle = cache
        da = -np.sin(angle) * dout
        self.omega.accumulate(dt @ da)
        self.phase.accumulate(da.sum(axis=0))
        return da @ self.omega.values


def masked_attention(
    query: np.ndarray, keys: np.ndarray, values: np.ndarray, mask: np.ndarray
) -> tuple[np.ndarray, tuple]:
    """Scaled dot-product attention over the neighbor axis.

    query (B, D); keys (B, K, D); values (B, K, Dv); mask (B, K) with True
    marking valid entries. Rows with no valid neighbor produce zeros.
    """
    query = np.asarray(query, dtype=np.float64)
    keys = np.asarray(keys, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if keys.shape[-1] != query.shape[-1]:
        raise ShapeError(f"attention: key dim {keys.shape[-1]} != query dim {query.shape[-1]}")
    if keys.shape[:2] != values.shape[:2] or keys.shape[:2] != mask.shape:
        raise ShapeError("attention: keys/values/mask neighbor axes disagree")
    scale = 1.0 / np.sqrt(query.shape[-1])
    scores = np.einsum("bd,bkd->bk", query, keys) * scale
    scores = np.where(mask, scores, -np.inf)
    # Stable softmax; all-masked rows become all-zero weights.
    row_max = np.max(scores, axis=1, keepdims=True)
    row_max = np.where(np.isfinite(row_max), row_max, 0.0)
    expd = np.where(mask, np.exp(scores - row_max), 0.0)
    denom = expd.sum(axis=1, keepdims=True)
    attn = np.divide(expd, denom, out=np.zeros_like(expd), where=denom > 0)
    out = np.einsum("bk,bkd->bd", attn, values)
    return out, (query, keys, values, mask, attn, scale)


def masked_attention_backward(
    cache: tuple, dout: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    query, keys, values, mask, attn, scale = cache
    dout = np.asarray(dout, dtype=np.float64)
    dvalues = attn[:, :, None] * dout[:, None, :]
    dattn = np.einsum("bd,bkd->bk", dout, values)
    # Softmax Jacobian: ds = a * (da - sum_k a_k da_k); masked entries stay 0.
    inner = (dattn * attn).sum(axis=1, keepdims=True)
    dscores = attn * (dattn - inner)
    dscores = np.where(mask, dscores, 0.0) * scale
    dquery = np.einsum("bk,bkd->bd", dscores, keys)
    dkeys = dscores[:, :, None] * query[:, None, :]
    return dquery, dkeys, dvalues


class AttentionReadout:
    """Projected attention head: out = [W_q q || attended(W_k kv, W_v kv)] W_o.

    With no valid neighbors the attended part is zero and the output reduces
    to a projection of the query alone, which is the fresh-node contract.
    """

    def __init__(
        self,
        query_dim: int,
        kv_dim: int,
        attn_dim: int,
        out_dim: int,
        rng: np.random.Generator,
        name: str = "attention",
    ):
        self.query_dim = query_dim
        self.kv_dim = kv_dim
        self.attn_dim = attn_dim
        self.out_dim = out_dim
        self.name = name
        self.w_q = Tensor(uniform_init(rng, (query_dim, attn_dim), query_dim))
        self.b_q = Tensor(uniform_init(rng, (attn_dim,), query_dim))
        self.w_k = Tensor(uniform_init(rng, (kv_dim, attn_dim), kv_dim))
        self.b_k = Tensor(uniform_init(rng, (attn_dim,), kv_dim))
        self.w_v = Tensor(uniform_init(rng, (kv_dim, attn_dim), kv_dim))
        self.b_v = Tensor(uniform_init(rng, (attn_dim,), kv_dim))
        self.w_o = Tensor(uniform_init(rng, (2 * attn_dim, out_dim), 2 * attn_dim))
        self.b_o = Tensor(uniform_init(rng, (out_dim,), 2 * attn_dim))

    def parameters(self) -> list[tuple[str, Tensor]]:
        names = ("w_q", "b_q", "w_k", "b_k", "w_v", "b_v", "w_o", "b_o")
        return [(f"{self.name}.{n}", getattr(self, n)) for n in names]

    def forward(
        self, query_in: np.ndarray, kv_in: np.ndarray, mask: np.ndarray
    ) -> tuple[np.ndarray, tuple]:
        query_in = np.asarray(query_in, dtype=np.float64)
        kv_in = np.asarray(kv_in, dtype=np.float64)
        if query_in.shape[-1] != self.query_dim:
            raise ShapeError(f"{self.name}: query dim {query_in.shape[-1]} != {self.query_dim}")
        if kv_in.shape[-1] != self.kv_dim:
            raise ShapeError(f"{self.name}: kv dim {kv_in.shape[-1]} != {self.kv_dim}")
        q = query_in @ self.w_q.values + self.b_q.values
        k = kv_in @ self.w_k.values + self.b_k.values
        v = kv_in @ self.w_v.values + self.b_v.values
        att, att_cache = masked_attention(q, k, v, mask)
        concat = np.concatenate([q, att], axis=1)
        out = concat @ self.w_o.values + self.b_o.values
        return out, (query_in, kv_in, q, att_cache, concat)

    def backward(self, cache: tuple, dout: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        query_in, kv_in, q, att_cache, concat = cache
        dout = np.asarray(dout, dtype=np.float64)
        self.w_o.accumulate(concat.T @ dout)
        self.b_o.accumulate(dout.sum(axis=0))
        dconcat = dout @ self.w_o.values.T
        dq = dconcat[:, : self.attn_dim].copy()
        datt = dconcat[:, self.attn_dim :]
        dq_att, dk, dv = masked_attention_backward(att_cache, datt)
        dq += dq_att
        self.w_q.accumulate(query_in.T @ dq)
        self.b_q.accumulate(dq.sum(axis=0))
        dquery_in = dq @ self.w_q.values.T
        flat_kv = kv_in.reshape(-1, self.kv_dim)
        self.w_k.accumulate(flat_kv.T @ dk.reshape(-1, self.attn_dim))
        self.b_k.accumulate(dk.reshape(-1, self.attn_dim).sum(axis=0))
        self.w_v.accumulate(flat_kv.T @ dv.reshape(-1, self.attn_dim))
        self.b_v.accumulate(dv.reshape(-1, self.attn_dim).sum(axis=0))
        dkv_in = dk @ self.w_k.values.T + dv @ self.w_v.values.T
        return dquery_in, dkv_in


class Adam:
    """Standard Adam over parameter sets, one fused update per set; raises on non-finite grads."""

    def __init__(
        self,
        sets: Sequence[ParamSet],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.sets = list(sets)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(s.flat_values) for s in self.sets]
        self.v = [np.zeros_like(s.flat_values) for s in self.sets]

    @property
    def steps(self) -> int:
        return self.t

    def zero_grad(self) -> None:
        for s in self.sets:
            s.flat_grad.fill(0.0)

    def step(self) -> None:
        for s in self.sets:
            if not np.isfinite(s.flat_grad).all():
                name = next(n for n, p in s.parameters() if not np.isfinite(p.grad).all())
                raise DivergenceError(f"non-finite gradient in {name}")
        self.t += 1
        correct1 = 1.0 - self.beta1**self.t
        correct2 = 1.0 - self.beta2**self.t
        for s, m, v in zip(self.sets, self.m, self.v):
            g = s.flat_grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            s.flat_values -= self.lr * (m / correct1) / (np.sqrt(v / correct2) + self.eps)
