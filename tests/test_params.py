"""Parameter sets: the fused Adam against the per-tensor one, and tensors that stay views."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tglink.checkpoint import load_checkpoint, save_checkpoint
from tglink.errors import DivergenceError
from tglink.nn import Adam, ParamSet, Tensor
from tglink.structmap import StructMapParams
from tglink.transfer import TrainConfig, fit

from helpers import (
    TINY_CONFIG,
    assert_step_reaches_layers,
    assert_views,
    model_layers,
    random_stream,
    tiny_model,
)
from oracles import PerTensorAdam

SHAPES = [(1,), (3,), (2, 3), (4, 1)]


@st.composite
def adam_runs(draw):
    """One or two sets of 1-3 tensors, a learning rate and each step's gradients.

    Some steps have all-zero gradients; optionally the last step holds one
    non-finite entry.
    """
    group = st.lists(st.sampled_from(SHAPES), min_size=1, max_size=3)
    groups = draw(st.lists(group, min_size=1, max_size=2))
    shapes = [shape for group in groups for shape in group]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = [rng.normal(size=shape) for shape in shapes]
    steps = draw(st.integers(1, 5))
    grads = []
    for _ in range(steps):
        if draw(st.booleans()):
            grads.append([np.zeros(shape) for shape in shapes])
        else:
            scale = draw(st.sampled_from([1e-6, 1.0, 1e6]))
            grads.append([scale * rng.normal(size=shape) for shape in shapes])
    bad = draw(st.none() | st.sampled_from([np.nan, np.inf, -np.inf]))
    if bad is not None:
        which = draw(st.integers(0, len(shapes) - 1))
        grads[-1][which].reshape(-1)[draw(st.integers(0, grads[-1][which].size - 1))] = bad
    lr = draw(st.sampled_from([0.0, 1e-3, 0.1]))
    return [len(g) for g in groups], values, grads, lr, bad


@given(run=adam_runs())
@settings(max_examples=100, deadline=None)
def test_fused_adam_matches_per_tensor_adam(run):
    sizes, values, grads, lr, bad = run
    names = [f"t{i}" for i in range(len(values))]
    fused_named = [(n, Tensor(v)) for n, v in zip(names, values)]
    oracle_named = [(n, Tensor(v)) for n, v in zip(names, values)]
    sets, start = [], 0
    for size in sizes:
        sets.append(ParamSet(fused_named[start : start + size]))
        start += size
    fused, oracle = Adam(sets, lr=lr), PerTensorAdam(oracle_named, lr=lr)
    for i, step_grads in enumerate(grads):
        fused.zero_grad()
        for (_, p), (_, q), g in zip(fused_named, oracle_named, step_grads):
            q.grad.fill(0.0)
            p.accumulate(g)
            q.accumulate(g)
        if bad is not None and i == len(grads) - 1:
            with pytest.raises(DivergenceError) as want:
                oracle.step()
            with pytest.raises(DivergenceError) as got:
                fused.step()
            assert str(got.value) == str(want.value)
            assert fused.t == oracle.t
        else:
            fused.step()
            oracle.step()
        for (name, p), (_, q) in zip(fused_named, oracle_named):
            assert p.values.tobytes() == q.values.tobytes(), (i, name)
        # The moments too: a difference there may not reach the values within a few steps.
        for fused_moment, per_tensor in ((fused.m, oracle.m), (fused.v, oracle.v)):
            flat = np.concatenate([a.reshape(-1) for a in per_tensor])
            assert np.concatenate(fused_moment).tobytes() == flat.tobytes(), i


def owners(seed: int):
    model = tiny_model(seed)
    cfg = model.config
    sm = StructMapParams(cfg.d_s, cfg.d_m, cfg.structmap_hidden, cfg.alpha, np.random.default_rng(seed))
    return model, sm


def check_owners(model, sm) -> None:
    assert_views(model)
    assert_views(sm)
    assert_step_reaches_layers(model, model_layers(model))
    assert_step_reaches_layers(sm, (sm.mlp,))


def test_load_state_dict_writes_into_the_views():
    model, sm = owners(0)
    source_model, source_sm = owners(1)
    model.load_state_dict(source_model.state_dict())
    sm.load_state_dict(source_sm.state_dict())
    assert model.flat_values.tobytes() == source_model.flat_values.tobytes()
    assert sm.flat_values.tobytes() == source_sm.flat_values.tobytes()
    check_owners(model, sm)


def test_copy_packs_buffers_of_its_own():
    model, sm = owners(2)
    clones = model.copy(), sm.copy()
    before = [owner.flat_values.copy() for owner in (model, sm)]
    for owner, clone in zip((model, sm), clones):
        assert type(clone) is type(owner)
        assert clone.flat_values.tobytes() == owner.flat_values.tobytes()
    check_owners(*clones)
    # Stepping the copies left the originals alone.
    for owner, old in zip((model, sm), before):
        assert owner.flat_values.tobytes() == old.tobytes()


def test_load_checkpoint_keeps_the_views(tmp_path):
    stream = random_stream(np.random.default_rng(4), 8, 60, span=20.0)
    trained = fit(stream, None, TINY_CONFIG, TrainConfig(batch_size=10, epochs=1), seed=4)
    save_checkpoint(trained, tmp_path / "ckpt.json")
    loaded = load_checkpoint(tmp_path / "ckpt.json")
    assert loaded.model.flat_values.tobytes() == trained.model.flat_values.tobytes()
    check_owners(loaded.model, loaded.structmap)
