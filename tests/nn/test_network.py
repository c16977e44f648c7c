"""Tests for the Sequential container."""

import numpy as np
import pytest

from repro.nn import (
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    ReLU,
    Sequential,
    SoftmaxCrossEntropy,
)


def small_net(rng=None):
    rng = rng or np.random.default_rng(0)
    return Sequential(
        [
            Conv2D(1, 4, 3, padding=1, name="conv1", rng=rng),
            ReLU(name="relu1"),
            MaxPool2D(2, 2, name="pool1"),
            Flatten(name="flatten"),
            Dense(4 * 3 * 3, 5, name="ip1", rng=rng),
        ],
        input_shape=(1, 6, 6),
        name="small",
    )


class TestSequential:
    def test_forward_shape(self, rng):
        net = small_net()
        assert net.forward(rng.normal(size=(7, 1, 6, 6))).shape == (7, 5)

    def test_layer_shapes(self):
        shapes = small_net().layer_shapes()
        assert shapes[0] == ((1, 6, 6), (4, 6, 6))
        assert shapes[-1] == ((36,), (5,))

    def test_output_shape(self):
        assert small_net().output_shape() == (5,)

    def test_total_macs(self):
        net = small_net()
        # conv: 4*6*6*1*9; dense: 36*5
        assert net.total_macs() == 4 * 36 * 9 + 180

    def test_geometry_requires_input_shape(self, rng):
        net = Sequential([Dense(4, 2, rng=rng)])
        with pytest.raises(ValueError):
            net.layer_shapes()

    def test_duplicate_layer_names_uniquified(self, rng):
        net = Sequential([ReLU(name="act"), ReLU(name="act")])
        assert net.layers[0].name != net.layers[1].name

    def test_parameter_names_qualified(self):
        names = [name for name, _ in small_net().named_parameters()]
        assert "conv1.weight" in names
        assert "ip1.bias" in names

    def test_get_parameter_missing(self):
        with pytest.raises(KeyError):
            small_net().get_parameter("nope.weight")

    def test_state_dict_roundtrip(self, rng):
        a = small_net(np.random.default_rng(1))
        b = small_net(np.random.default_rng(2))
        x = rng.normal(size=(3, 1, 6, 6))
        assert not np.allclose(a.forward(x), b.forward(x))
        b.load_state_dict(a.state_dict())
        np.testing.assert_array_equal(a.forward(x), b.forward(x))

    def test_state_dict_is_a_copy(self):
        net = small_net()
        state = net.state_dict()
        state["ip1.bias"][...] = 99.0
        assert not np.any(net.get_parameter("ip1.bias").data == 99.0)

    def test_load_state_dict_missing_key(self):
        net = small_net()
        state = net.state_dict()
        del state["ip1.bias"]
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    def test_load_state_dict_shape_mismatch(self):
        net = small_net()
        state = net.state_dict()
        state["ip1.bias"] = np.zeros(99)
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    def test_backward_propagates(self, rng):
        net = small_net()
        x = rng.normal(size=(4, 1, 6, 6))
        loss = SoftmaxCrossEntropy()
        loss(net.forward(x), np.array([0, 1, 2, 3]))
        net.zero_grad()
        grad_in = net.backward(loss.backward())
        assert grad_in.shape == x.shape
        # Every parameter received some gradient.
        for _, p in net.named_parameters():
            assert np.any(p.grad != 0)

    def test_train_eval_propagate(self):
        net = small_net()
        net.eval()
        assert all(not l.training for l in net.layers)
        net.train()
        assert all(l.training for l in net.layers)

    def test_predict_and_accuracy(self, rng):
        net = small_net()
        x = rng.normal(size=(10, 1, 6, 6))
        preds = net.predict(x, batch_size=3)
        assert preds.shape == (10,)
        acc = net.accuracy(x, preds)
        assert acc == 1.0

    def test_predict_empty(self):
        net = small_net()
        assert net.predict(np.zeros((0, 1, 6, 6))).shape == (0,)

    def test_summary_contains_layers(self):
        text = small_net().summary()
        assert "conv1" in text and "total parameters" in text

    def test_num_parameters(self):
        net = small_net()
        expected = (4 * 1 * 9 + 4) + (36 * 5 + 5)
        assert net.num_parameters == expected


class TestParameterOnlyBackward:
    def _backward(self, net, x, need_input_grad):
        loss = SoftmaxCrossEntropy()
        loss(net.forward(x), np.arange(x.shape[0]) % 5)
        net.zero_grad()
        result = net.backward(loss.backward(), need_input_grad=need_input_grad)
        return result, {name: p.grad.copy() for name, p in net.named_parameters()}

    def test_same_parameter_gradients_and_no_input_gradient(self, rng):
        x = rng.normal(size=(4, 1, 6, 6))
        full, want = self._backward(small_net(), x, True)
        none, got = self._backward(small_net(), x, False)
        assert full.shape == x.shape and none is None
        assert got.keys() == want.keys()
        for name in want:
            np.testing.assert_array_equal(got[name], want[name])

    def test_parameter_free_leading_layers_are_skipped(self, rng):
        net = Sequential(
            [Flatten(name="flatten"), Dense(36, 5, name="ip1", rng=rng)],
            input_shape=(1, 6, 6),
        )
        seen = []
        flatten = net.layers[0]
        flatten.backward = lambda grad: seen.append(grad)
        none, grads = self._backward(net, rng.normal(size=(3, 1, 6, 6)), False)
        assert none is None and not seen
        assert np.any(grads["ip1.weight"] != 0)

    def test_parameter_free_network(self, rng):
        net = Sequential([Flatten(), ReLU()])
        net.forward(rng.normal(size=(2, 3, 2, 2)))
        assert net.backward(np.ones((2, 12)), need_input_grad=False) is None
