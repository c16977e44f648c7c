"""Trainer.fit backpropagates parameter gradients only.

The first layer's input gradient is never read, so ``fit`` asks the network
for parameter gradients alone.  Training must come out bit-identical to the
full backward, and the first layer must not compute the skipped gradient.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.common import build_network, dataset_for
from repro.experiments.config import FAST
from repro.nn import Sequential
from repro.train import TrainConfig, Trainer

#: Two steps of 32 samples per network.
PROFILE = replace(FAST, train_size=64, test_size=16)
CONFIG = TrainConfig(epochs=1, batch_size=32)


def _spy_first_layer(model: Sequential) -> list:
    """Record (need_input_grad, result) of every first-layer backward call."""
    calls = []
    first = model.layers[0]
    original = first.backward

    def backward(grad, need_input_grad=True):
        result = original(grad, need_input_grad=need_input_grad)
        calls.append((need_input_grad, result))
        return result

    first.backward = backward
    return calls


@pytest.mark.parametrize("net", ["lenet", "convnet", "mlp"])
def test_fit_is_bit_identical_to_full_backward(net, monkeypatch):
    dataset = dataset_for(net, PROFILE)

    model = build_network(net, seed=0)
    calls = _spy_first_layer(model)
    Trainer(model, CONFIG).fit(dataset)
    got = model.state_dict()

    # The pre-change step: full backward through every layer, input gradient
    # of the first layer included.
    full_backward = Sequential.backward
    monkeypatch.setattr(
        Sequential, "backward",
        lambda self, grad, need_input_grad=True: full_backward(self, grad),
    )
    reference = build_network(net, seed=0)
    reference_calls = _spy_first_layer(reference)
    Trainer(reference, CONFIG).fit(dataset)
    want = reference.state_dict()

    assert got.keys() == want.keys()
    for name in want:
        assert np.array_equal(got[name], want[name]), name

    assert len(calls) == len(reference_calls) == 2
    assert all(need is False and result is None for need, result in calls)
    assert all(need is True and result is not None for need, result in reference_calls)
    if net != "mlp":
        # The kn2row input-gradient buffers of the first conv never exist.
        assert not {"gx_pad", "gin"} & model.layers[0]._scratch_buffers.keys()
        assert {"gx_pad", "gin"} <= reference.layers[0]._scratch_buffers.keys()
