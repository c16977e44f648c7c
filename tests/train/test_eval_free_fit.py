"""Evaluation is observation only: skipping it changes no trained state.

``fit(eval_every=0)`` evaluates nothing, and the experiment chain
(``train_sparsified``, ``train_baseline``) trains that way and evaluates
once, where the accuracy is read.  Evaluation draws no RNG (``Dropout`` is
the identity in eval mode) and updates no state (``BatchNorm`` leaves its
running statistics alone), so the weights must come out bit-identical to a
run that evaluates after every epoch.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.datasets import SyntheticImageDataset
from repro.experiments.common import build_network, dataset_for, train_baseline
from repro.experiments.config import FAST
from repro.nn import BatchNorm, Dense, Dropout, ReLU, Sequential
from repro.obs.trace import _NOOP
from repro.train import SparsifyConfig, TrainConfig, Trainer, train_sparsified

#: Two epochs of two 32-sample steps, so an evaluation sits between epochs.
PROFILE = replace(
    FAST, train_size=64, test_size=16,
    baseline=replace(FAST.baseline, epochs=2, batch_size=32),
    sparsify=replace(FAST.sparsify, epochs=2, batch_size=32),
    finetune=replace(FAST.finetune, epochs=2, batch_size=32),
)


def _digest(arrays: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for name in sorted(arrays):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arrays[name]).tobytes())
    return h.hexdigest()


@pytest.fixture
def accuracy_calls(monkeypatch) -> list[int]:
    """Spy on ``Sequential.accuracy``; the list grows by one per call."""
    calls: list[int] = []
    original = Sequential.accuracy

    def accuracy(self, x, labels, batch_size=256):
        calls.append(len(x))
        return original(self, x, labels, batch_size=batch_size)

    monkeypatch.setattr(Sequential, "accuracy", accuracy)
    return calls


@pytest.fixture
def tracing():
    obs.get_collector().clear()
    obs.enable_tracing()
    yield obs.get_collector()
    obs.disable_tracing()
    obs.get_collector().clear()


@pytest.mark.parametrize("net", ["mlp", "lenet", "convnet", "caffenet"])
def test_trained_state_does_not_depend_on_eval_every(net):
    dataset = dataset_for(net, PROFILE)
    digests = {}
    for eval_every in (0, 1):
        model = build_network(net, seed=0)
        Trainer(model, PROFILE.baseline).fit(dataset, eval_every=eval_every)
        digests[eval_every] = _digest(model.state_dict())
    assert digests[0] == digests[1]


def test_batchnorm_running_statistics_do_not_depend_on_eval_every():
    dataset = SyntheticImageDataset.generate(
        "bn", (1, 6, 6), num_classes=3, train_size=48, test_size=24,
        noise=0.8, max_shift=1, seed=5, flat=True,
    )
    states = {}
    for eval_every in (0, 1):
        rng = np.random.default_rng(0)
        model = Sequential(
            [
                Dense(36, 16, name="fc1", rng=rng),
                BatchNorm(16, name="bn1"),
                ReLU(),
                Dropout(0.3, seed=1),
                Dense(16, 3, name="fc2", rng=rng),
            ],
            input_shape=(36,),
            name="bn-mlp",
        )
        Trainer(model, TrainConfig(epochs=3, batch_size=16)).fit(
            dataset, eval_every=eval_every
        )
        bn = model.layers[1]
        state = model.state_dict()
        state.update(running_mean=bn.running_mean, running_var=bn.running_var)
        states[eval_every] = _digest(state)
    assert states[0] == states[1]


def test_eval_free_fit_never_evaluates(accuracy_calls):
    dataset = dataset_for("mlp", PROFILE)
    history = Trainer(build_network("mlp", seed=0), PROFILE.baseline).fit(
        dataset, eval_every=0
    )
    assert accuracy_calls == []
    assert history.test_accuracy == []
    assert len(history.loss) == PROFILE.baseline.epochs


def test_train_sparsified_evaluates_once(accuracy_calls):
    dataset = dataset_for("mlp", PROFILE)
    model = build_network("mlp", seed=0)
    Trainer(model, PROFILE.baseline).fit(dataset, eval_every=0)
    config = SparsifyConfig(
        lam_g=0.1, sparsify=PROFILE.sparsify, finetune=PROFILE.finetune
    )
    result = train_sparsified(model, dataset, 16, "ss", config)
    assert accuracy_calls == [len(dataset.y_test)]
    assert result.accuracy == model.accuracy(dataset.x_test, dataset.y_test)
    assert result.sparsify_history.test_accuracy == []
    assert result.finetune_history.test_accuracy == []


def test_cold_train_baseline_evaluates_once(accuracy_calls, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    train_baseline("mlp", PROFILE)
    assert accuracy_calls == [PROFILE.test_size]


def test_negative_eval_every_rejected():
    with pytest.raises(ValueError, match="eval_every"):
        Trainer(build_network("mlp", seed=0), PROFILE.baseline).fit(
            dataset_for("mlp", PROFILE), eval_every=-1
        )


def test_traced_cold_train_baseline_emits_one_eval_span(tracing, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    model, _ = train_baseline("mlp", PROFILE)
    evals = [r for r in tracing.records() if r["name"] == "nn.eval"]
    assert len(evals) == 1
    assert evals[0]["attrs"] == {"model": model.name, "samples": PROFILE.test_size}


def test_eval_span_is_the_noop_when_tracing_is_off(monkeypatch):
    import repro.nn.network as network

    spans = []
    original = network.span

    def spy(name, **attrs):
        sp = original(name, **attrs)
        spans.append((name, sp))
        return sp

    monkeypatch.setattr(network, "span", spy)
    assert not obs.tracing_enabled()
    dataset = dataset_for("mlp", PROFILE)
    build_network("mlp", seed=0).accuracy(dataset.x_test, dataset.y_test)
    assert spans == [("nn.eval", _NOOP)]
