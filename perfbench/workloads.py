"""The three benchmark workloads, each driven through ``repro``'s public API.

A workload has a cheap ``setup`` (inputs, models, clusters; reported as
``setup_s``) and a fixed ``unit`` of work (its normalised CPU time is
``norm_cpu_s``).  The entry point :mod:`run` repeats set-up and unit, each
against a fresh ``REPRO_CACHE_DIR``, so every unit is a cold run of the
same work.  Checks
run outside the timed phase; ``trace_targets`` names the calls a traced
unit times (see :mod:`tracer`).

* ``train`` — dense ``Trainer.fit`` of LeNet and ConvNet on small synthetic
  data sets (``TRAIN_SIZES``), then SS_Mask (LeNet) / SS (ConvNet)
  sparsification at 16 cores.  Training is nine tenths of a cold end-to-end
  run; conv, pooling, activations and the group-Lasso prox step do the
  work, while NoC, simulator and serving code sit idle.
* ``simulate`` — spec-only plans of LeNet at 16/32 cores, ConvNet at
  16/32/64 and AlexNet at 16 (``SIM_POINTS``): the traditional plan, the per-layer degree
  DP's plan and the 4-chip stage-split race, all through the cycle engine
  with a cold drain memo.  The event-driven NoC does most of the work; nn
  does none.
* ``serve`` — seeded Poisson and MMPP open-loop streams at a ladder of
  absolute rates against a 4x4-core single chip and a 2x2-chip MCM, under
  all four schedulers (columnar fast path), plus one closed-loop stream on
  the object loop sized to about a third of the unit.
"""

from __future__ import annotations

import math
import os
import shutil
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.accel.chip import ChipConfig
from repro.experiments import cache
from repro.experiments.common import build_network, dataset_for
from repro.experiments.config import FAST
from repro.mcm.topology import McmTopology
from repro.models.zoo import get_spec
from repro.nn.layers import (
    AvgPool2D,
    Conv2D,
    Dense,
    MaxPool2D,
    ReLU,
    Sigmoid,
    Tanh,
)
from repro.noc.network import NoCSimulator
from repro.noc.reference import ReferenceNoCSimulator
from repro.partition import build_traditional_plan
from repro.search import search_layer_degrees, search_stage_split
from repro.serve import (
    SLO,
    ClosedLoopWorkload,
    MMPPWorkload,
    PoissonWorkload,
    ServeSimulator,
    build_mcm_cluster,
    build_spec_cluster,
    clear_service_memo,
    make_scheduler,
    simulate_serving,
)
from repro.sim.engine import InferenceSimulator, SimConfig
from repro.train import SparsifyConfig, Trainer, train_sparsified

from speed import work_time
from tracer import Tracer, instrument

#: Relative tolerance for float outputs that go through BLAS reductions:
#: admits float64 reassociation, rejects any change of dtype or algorithm.
FLOAT_RTOL = 1e-6


@dataclass
class UnitResult:
    """What one unit of work produced."""

    outputs: dict  # JSON-able, deterministic for a seed: compared across units
    attempted: int = 0
    failed: int = 0
    work: float = 0.0  # items of work done (samples / plans / requests)
    excluded_s: float = 0.0  # CPU seconds of the unit not spent on that work
    extra: dict = field(default_factory=dict)  # objects the checks need


class Ops:
    """Counts operations; an exception fails the operation, not the run."""

    def __init__(self, result: UnitResult) -> None:
        self.result = result

    def run(self, fn, *args, **kwargs):
        self.result.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # a failed operation is counted and reported
            self.result.failed += 1
            traceback.print_exc()
            return None


def fresh_cache(root: Path, tag: str) -> Path:
    """Point ``REPRO_CACHE_DIR`` at an empty directory and drop in-process memos."""
    path = root / tag
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    os.environ["REPRO_CACHE_DIR"] = str(path)
    cache.clear_memo()
    clear_service_memo()
    return path


def close(a, b) -> bool:
    """Deep equality with FLOAT_RTOL on floats."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(close(x, y) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=FLOAT_RTOL, abs_tol=1e-12)
    return a == b


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


class Workload:
    name = ""

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self._setups = 0

    def cold_cache(self) -> Path:
        self._setups += 1
        return fresh_cache(self.scratch, f"{self.name}-{self._setups}")

    def setup(self):
        raise NotImplementedError

    def unit(self, state) -> UnitResult:
        raise NotImplementedError

    def trace_targets(self) -> list[tuple]:
        return []

    def traced_models(self, state) -> list:
        return []

    def checks(self, unit: UnitResult, goldens: dict | None) -> list[tuple[str, bool, str]]:
        return []

    def golden_view(self, unit: UnitResult) -> dict:
        """The part of the outputs recorded as default-seed goldens."""
        return unit.outputs

    def layer_values(self, unit: UnitResult, tracer: Tracer) -> dict[str, float]:
        """Per-layer values read from outputs and span counters."""
        return {}

    def summary(self, unit: UnitResult) -> list[tuple[str, str]]:
        """The workload's simulated or trained results, for the report."""
        return []


# -- train -------------------------------------------------------------------------


TRAIN_RUNS = (("lenet", "ss_mask"), ("convnet", "ss"))
#: The fast profile cut to a unit of about 4 CPU seconds on one BLAS thread
#: (the full fast profile takes 44), so that a run holds several units.
TRAIN_SIZES = {"train_size": 96, "test_size": 32}
TRAIN_EPOCHS = {"baseline": 1, "sparsify": 1, "finetune": 1}
#: Group-Lasso strength: ten times the fast profile's, because the cut
#: schedule takes about a tenth of its prox steps (2 instead of 15).  At
#: the fast profile's 0.1 no block gets pruned at all.
TRAIN_LAM_G = 1.0
TRAIN_CORES = 16
NUM_CLASSES = 10
#: Margin over chance accuracy below which a trained model counts as degenerate.
DEGENERATE_EPS = 0.02

_LAYER_KIND = {
    Conv2D: "conv", Dense: "dense", MaxPool2D: "pool", AvgPool2D: "pool",
    ReLU: "act", Sigmoid: "act", Tanh: "act",
}


def layer_kind(layer) -> str:
    return _LAYER_KIND.get(type(layer), "other")


def _count_steps(counts, args, result) -> None:
    counts["train.steps"] += 1


def _count_samples(counts, args, result) -> None:
    counts["train.samples"] += len(args[2])  # SoftmaxCrossEntropy.forward(self, logits, labels)


def is_degenerate(accuracy: float, loss: float) -> bool:
    return accuracy <= 1 / NUM_CLASSES + DEGENERATE_EPS or loss >= 0.98 * math.log(NUM_CLASSES)


class Train(Workload):
    name = "train"

    def setup(self):
        self.cold_cache()
        profile = replace(
            FAST, seed=self.seed, **TRAIN_SIZES,
            **{phase: replace(getattr(FAST, phase), epochs=epochs)
               for phase, epochs in TRAIN_EPOCHS.items()},
        )
        data = {net: dataset_for(net, profile) for net, _ in TRAIN_RUNS}
        models = {net: build_network(net, seed=profile.seed) for net, _ in TRAIN_RUNS}
        return profile, data, models

    def traced_models(self, state) -> list:
        return list(state[2].values())

    def unit(self, state) -> UnitResult:
        profile, data, models = state
        config = SparsifyConfig(
            lam_g=TRAIN_LAM_G,
            sparsify=profile.sparsify,
            finetune=profile.finetune,
            prune_rms_threshold=profile.prune_rms_threshold,
        )
        unit = UnitResult(outputs={})
        ops = Ops(unit)
        # Evaluation's CPU time is taken so throughput can exclude it (a few
        # calls per epoch).
        clock = Tracer(clock=work_time)
        with instrument(clock, [("repro.nn.network:Sequential.accuracy", "eval")]):
            for net, scheme in TRAIN_RUNS:
                model, ds = models[net], data[net]
                hist = ops.run(Trainer(model, profile.baseline).fit, ds)
                if hist is None:
                    continue
                unit.work += profile.baseline.epochs * len(ds.y_train)
                unit.outputs[f"{net}/dense"] = {
                    "loss": hist.loss[-1], "accuracy": hist.final_test_accuracy,
                }
                result = ops.run(train_sparsified, model, ds, TRAIN_CORES, scheme, config)
                if result is None:
                    continue
                unit.work += (config.sparsify.epochs + config.finetune.epochs) * len(ds.y_train)
                off = ~np.eye(TRAIN_CORES, dtype=bool)
                unit.outputs[f"{net}/{scheme}"] = {
                    "loss": result.finetune_history.loss[-1],
                    "accuracy": result.accuracy,
                    "zeroed_offdiag_blocks": int(
                        sum(mask[off].sum() for mask in result.pruned_blocks.values())
                    ),
                    "offdiag_blocks": int(off.sum()) * len(result.pruned_blocks),
                }
                unit.extra[f"{net}/{scheme}"] = result
        unit.excluded_s = clock.self_times().get("eval", 0.0)
        return unit

    def golden_view(self, unit: UnitResult) -> dict:
        return {
            "final_loss": {k: v["loss"] for k, v in unit.outputs.items()},
            "probe": numerics_probe(),
        }

    def checks(self, unit, goldens):
        out = []
        for key, row in unit.outputs.items():
            out.append((
                f"{key} finite",
                math.isfinite(row["loss"]) and 0.0 <= row["accuracy"] <= 1.0,
                f"loss {row['loss']:.6g} accuracy {row['accuracy']:.4f}",
            ))
        for key, result in unit.extra.items():
            # The recipe's contract: pruned blocks stay exactly zero through fine-tuning.
            leaks = sum(
                int((~part.zero_mask(result.model.get_parameter(name).data))[
                    result.pruned_blocks[name]
                ].sum())
                for name, part in result.partitions.items()
            )
            out.append((f"{key} pruned blocks stay zero", leaks == 0, f"{leaks} nonzero"))
        probe = numerics_probe()
        if goldens is not None:
            want = goldens["probe"]
            out.append((
                "float64 two-step training probe",
                close(probe, want),
                f"got {probe}, golden {want}",
            ))
            if goldens.get("seed") == self.seed:
                got = {k: v["loss"] for k, v in unit.outputs.items()}
                out.append((
                    "default-seed final training loss",
                    close(got, goldens["final_loss"]),
                    f"got {got}, golden {goldens['final_loss']}",
                ))
        return out

    def trace_targets(self):
        return [
            ("repro.datasets.synthetic:synthetic_mnist", "datasets.synth"),
            ("repro.datasets.synthetic:synthetic_cifar10", "datasets.synth"),
            ("repro.models.factory:build_lenet", "models.build"),
            ("repro.models.factory:build_convnet", "models.build"),
            ("repro.train.trainer:Trainer.fit", "train.fit"),
            ("repro.train.sparsify:train_sparsified", "train.sparsify"),
            ("repro.nn.network:Sequential.accuracy", "nn.eval_forward", {"fold": True}),
            ("repro.nn.loss:SoftmaxCrossEntropy.forward", "nn.loss",
             {"count": _count_samples}),
            ("repro.nn.loss:SoftmaxCrossEntropy.backward", "nn.loss"),
            ("repro.nn.optim:SGD.step", "nn.optimizer", {"count": _count_steps}),
            ("repro.nn.regularizers:GroupLassoRegularizer.prox_step", "nn.regularizer"),
            ("repro.nn.regularizers:GroupLassoRegularizer.add_gradients", "nn.regularizer"),
            ("repro.nn.regularizers:GroupLassoRegularizer.loss", "nn.regularizer"),
            ("repro.nn.sparsity:CoreBlockPartition.prune_blocks", "nn.sparsity"),
            ("repro.nn.sparsity:CoreBlockPartition.apply_block_mask", "nn.sparsity"),
        ]

    def layer_values(self, unit, tracer):
        sparsified = [r for r in unit.outputs.values() if "offdiag_blocks" in r]
        blocks = sum(r["offdiag_blocks"] for r in sparsified)
        accuracy, degenerate = trained_quality(unit.outputs)
        return {
            "train.steps": tracer.counts["train.steps"],
            "train.samples": tracer.counts["train.samples"],
            "train.block_sparsity": (
                sum(r["zeroed_offdiag_blocks"] for r in sparsified) / blocks if blocks else 0.0
            ),
            "train.degenerate_runs": degenerate,
            "train.test_accuracy": accuracy,
        }

    def summary(self, unit):
        accuracy, degenerate = trained_quality(unit.outputs)
        return [
            ("test_accuracy", f"{accuracy:.4f} (mean of " + ", ".join(
                f"{k} {r['accuracy']:.3f}" for k, r in unit.outputs.items()) + ")"),
            ("degenerate_runs", f"{degenerate} of {len(unit.outputs)} (accuracy <= chance + "
             f"{DEGENERATE_EPS} or final loss >= 0.98 ln C)"),
        ]


def trained_quality(outputs: dict) -> tuple[float, int]:
    """Mean final test accuracy and the number of degenerate models."""
    rows = outputs.values()
    accuracy = float(np.mean([r["accuracy"] for r in rows])) if rows else 0.0
    return accuracy, sum(is_degenerate(r["accuracy"], r["loss"]) for r in rows)


def numerics_probe() -> dict:
    """Loss, weight norm and dtype after two fixed training steps per network.

    Runs through ``Trainer.fit`` with the default config and is independent
    of the benchmark seed, so a change of compute dtype or of a layer's
    arithmetic shows on every run, not only at the default seed.
    """
    profile = replace(FAST, train_size=64, test_size=32)
    config = replace(profile.baseline, epochs=1, batch_size=32)
    probe = {}
    for net, _ in TRAIN_RUNS:
        model = build_network(net, seed=0)
        hist = Trainer(model, config).fit(dataset_for(net, profile))
        params = list(model.parameters())
        probe[net] = {
            "loss": hist.loss[-1],
            "weight_norm": math.sqrt(sum(float(np.vdot(p.data, p.data)) for p in params)),
            "dtype": str(params[0].data.dtype),
        }
    return probe


# -- simulate ----------------------------------------------------------------------


SIM_CORES = (16, 32, 64)
#: The plan set: (model, cores).  A unit of about 4 CPU seconds lets a run
#: hold several units, so AlexNet stops at 16 cores (at 32 and 64 its
#: traditional plan alone takes 4 and 8) and the 64-core mesh is ConvNet's.
SIM_POINTS = (
    ("lenet", 16), ("lenet", 32),
    ("convnet", 16), ("convnet", 32), ("convnet", 64),
    ("alexnet", 16),
)
#: Traditional plans whose cycle counts are checked against goldens outside
#: the timed unit.
CHECKED_POINTS = (("alexnet", 32),)
MCM_CHIPS = 4
#: Largest burst the cycle-stepping reference NoC replays in the check.
REFERENCE_MAX_FLITS = 6_000


def _count_plans(counts, args, result) -> None:
    counts["partition.plans"] += 1


def _count_candidates(counts, args, result) -> None:
    counts["plancost.candidates"] += int(np.size(result))


def _count_drain(counts, args, result) -> None:
    counts["noc.drains"] += 1
    counts["noc.flits"] += result.flits_delivered


def _count_simulation(counts, args, result) -> None:
    counts["sim.memo_hits"] += result.drain_memo_hits
    counts["sim.memo_lookups"] += result.drain_memo_hits + result.drain_memo_misses
    counts["sim.comm_cycles"] += result.comm_cycles
    counts["sim.total_cycles"] += result.total_cycles


def noc_targets() -> list[tuple]:
    """Calls into the simulator stack below plan level (shared by simulate/serve)."""
    return [
        ("repro.partition.traditional:build_traditional_plan", "partition.plan_build",
         {"count": _count_plans}),
        ("repro.partition.degree:build_degree_plan", "partition.plan_build",
         {"count": _count_plans}),
        ("repro.partition.structure:build_structure_plan", "partition.plan_build",
         {"count": _count_plans}),
        ("repro.sim.engine:InferenceSimulator.simulate", "sim.simulate",
         {"count": _count_simulation}),
        ("repro.noc.network:NoCSimulator.__init__", "noc.drain"),
        ("repro.noc.network:NoCSimulator.inject", "noc.drain"),
        ("repro.noc.network:NoCSimulator.run", "noc.drain", {"count": _count_drain}),
        ("repro.noc.traffic:TrafficMatrix.to_packets", "noc.packets"),
        ("repro.noc.analytical:estimate_drain_cycles", "noc.analytical"),
        ("repro.experiments.cache:load_json", "experiments.cache"),
        ("repro.experiments.cache:save_json", "experiments.cache"),
        ("repro.experiments.cache:settings_key", "experiments.cache"),
        ("repro.mcm.pipeline:build_mcm_plan", "mcm.service_build"),
        ("repro.mcm.service:mcm_service", "mcm.service_build"),
        ("repro.serve.cluster:service_for_plan", "serve.cluster_build"),
    ]


def noc_values(tracer: Tracer) -> dict[str, float]:
    c = tracer.counts
    drain_s = tracer.self_times().get("noc.drain", 0.0)
    return {
        "partition.plans": c["partition.plans"],
        "plancost.candidates": c["plancost.candidates"],
        "noc.drains": c["noc.drains"],
        "noc.flits": c["noc.flits"],
        "noc.flits_per_s": c["noc.flits"] / drain_s if drain_s else 0.0,
        "sim.memo_hit_ratio": c["sim.memo_hits"] / c["sim.memo_lookups"]
        if c["sim.memo_lookups"] else 0.0,
        "sim.comm_share": c["sim.comm_cycles"] / c["sim.total_cycles"]
        if c["sim.total_cycles"] else 0.0,
    }


def checked_cycles() -> dict[str, int]:
    """Cold cycle-engine totals of the ``CHECKED_POINTS`` traditional plans."""
    return {
        f"{model}@{cores}": InferenceSimulator(ChipConfig.table2(cores), SimConfig())
        .simulate(build_traditional_plan(get_spec(model), cores)).total_cycles
        for model, cores in CHECKED_POINTS
    }


class Simulate(Workload):
    name = "simulate"

    def setup(self):
        self.cold_cache()
        specs = {m: get_spec(m) for m, _ in SIM_POINTS}
        chips = {c: ChipConfig.table2(c) for c in SIM_CORES}
        topologies = {c: McmTopology.build(MCM_CHIPS, c) for c in SIM_CORES}
        # The plan set is fixed; the seed only picks the burst the reference
        # NoC replays.  (A seeded order of the points moved peak RSS by 7%.)
        return specs, chips, topologies, SIM_POINTS

    def unit(self, state) -> UnitResult:
        specs, chips, topologies, points = state
        unit = UnitResult(outputs={})
        ops = Ops(unit)
        for model, cores in points:
            spec, key = specs[model], f"{model}@{cores}"
            sim = InferenceSimulator(chips[cores], SimConfig())
            traditional = ops.run(lambda: sim.simulate(build_traditional_plan(spec, cores)))
            search = ops.run(search_layer_degrees, spec, cores)
            searched = ops.run(sim.simulate, search.plan) if search else None
            stage = ops.run(search_stage_split, spec, topologies[cores])
            unit.work += 3
            if not (traditional and searched and stage):
                continue
            unit.outputs[key] = {
                "traditional_cycles": traditional.total_cycles,
                "searched_cycles": searched.total_cycles,
                "degrees": list(search.degrees),
                "predicted_cycles": search.predicted_cycles,
                "stage_interval": stage.interval_cycles,
                "stage_balanced_interval": stage.balanced_interval,
                "stage_sizes": list(stage.searched_sizes),
            }
            unit.extra[key] = search
        return unit

    def golden_view(self, unit):
        fields = ("traditional_cycles", "searched_cycles", "degrees", "stage_interval")
        return {
            "cycles": {k: {f: v[f] for f in fields} for k, v in unit.outputs.items()},
            "checked_traditional_cycles": checked_cycles(),
        }

    def checks(self, unit, goldens):
        out = []
        fresh_cache(self.scratch, "simulate-checks")
        for key, search in unit.extra.items():
            cores = search.num_cores
            analytical = InferenceSimulator(
                ChipConfig.table2(cores), SimConfig(comm_mode="analytical")
            ).simulate(search.plan).total_cycles
            out.append((
                f"{key} oracle == analytical engine",
                analytical == search.predicted_cycles,
                f"oracle {search.predicted_cycles}, engine {analytical}",
            ))
            row = unit.outputs[key]
            out.append((
                f"{key} stage split no worse than balanced",
                row["stage_interval"] <= row["stage_balanced_interval"],
                f"{row['stage_interval']} vs {row['stage_balanced_interval']}",
            ))
        out.append(self._reference_drain())
        if goldens is not None:
            got = self.golden_view(unit)
            for part in ("cycles", "checked_traditional_cycles"):
                for key, want in goldens.get(part, {}).items():
                    have = got[part].get(key)
                    out.append((f"{key} golden {part}", have == want,
                                f"got {have}, golden {want}"))
        return out

    def _reference_drain(self) -> tuple[str, bool, str]:
        """Replay one seed-chosen layer burst through both NoC engines."""
        bursts = []
        for model, cores in SIM_POINTS:
            chip = ChipConfig.table2(cores)
            plan = build_traditional_plan(get_spec(model), cores)
            for layer in plan.layers:
                flits = sum(p.num_flits for p in layer.traffic.to_packets(chip.noc))
                if 0 < flits <= REFERENCE_MAX_FLITS:
                    bursts.append((f"{model}@{cores}/{layer.layer.name}", chip, layer.traffic))
        label, chip, traffic = bursts[int(np.random.default_rng(self.seed).integers(len(bursts)))]
        stats = []
        for engine in (NoCSimulator, ReferenceNoCSimulator):
            sim = engine(chip.mesh, chip.noc)
            sim.inject(traffic.to_packets(chip.noc))
            stats.append(sim.run())
        return (f"reference NoC drain {label}", stats[0] == stats[1],
                f"event {stats[0].cycles} cycles, reference {stats[1].cycles} cycles")

    def trace_targets(self):
        return noc_targets() + [
            ("repro.plancost.oracle:PlanCostOracle.__init__", "plancost.oracle_build"),
            ("repro.plancost.oracle:PlanCostOracle.batch_cost", "plancost.batch_cost",
             {"count": _count_candidates}),
            ("repro.plancost.oracle:PlanCostOracle.cost", "plancost.batch_cost",
             {"count": _count_candidates}),
            ("repro.plancost.oracle:analytic_plan_cost", "plancost.batch_cost",
             {"count": _count_candidates}),
            ("repro.search.layerdp:search_layer_degrees", "search.layerdp"),
            ("repro.search.stagedp:search_stage_split", "search.stagedp"),
            ("repro.search.stagedp:dp_stage_split", "search.stagedp"),
            ("repro.models.zoo:get_spec", "models.build"),
            ("repro.mcm.topology:McmTopology.build", "mcm.service_build"),
        ]

    def layer_values(self, unit, tracer):
        rows = unit.outputs.values()
        return {
            **noc_values(tracer),
            "search.plan_speedup": geomean(
                [r["traditional_cycles"] / r["searched_cycles"] for r in rows]
            ),
        }

    def summary(self, unit):
        speedups = {k: r["traditional_cycles"] / r["searched_cycles"]
                    for k, r in unit.outputs.items()}
        return [("plan_speedup", f"{geomean(list(speedups.values())):.4f} x (geomean of "
                 + ", ".join(f"{k} {v:.3f}" for k, v in speedups.items()) + ")")]


# -- serve -------------------------------------------------------------------------


MODEL = "convnet"
#: Offered load in requests per megacycle.  Absolute on purpose: the MCM
#: cluster's capacity_per_megacycle overstates what it sustains.
RATES = (100, 150, 200, 250, 300, 350, 400, 450)
STREAMS = ("poisson", "mmpp")
SCHEDULERS = ("fifo", "batch", "sjf", "priority")
OPEN_REQUESTS = 4_000
CLOSED_CLIENTS = 64
CLOSED_REQUESTS_PER_CLIENT = 320
CLOSED_THINK_CYCLES = 200_000
#: SLO target as a multiple of the cluster's unloaded latency.
SLO_FACTOR = 10
#: A stream whose completion rate falls below this share of its offered
#: rate has a growing backlog.
BACKLOG_SHARE = 0.95
PREFIX_REQUESTS = 2_000


def _stream(kind: str, rate: float, requests: int, seed: int):
    mix = {MODEL: 1.0}
    if kind == "poisson":
        return PoissonWorkload(rate, requests, seed=seed, mix=mix)
    # Equal-mean calm/burst phases: the same mean rate, burstier arrivals.
    return MMPPWorkload(rate / 2, rate * 1.5, requests, seed=seed, mix=mix)


def _serve_name(simulator, *args, **kwargs) -> str:
    return "serve.run" if simulator.workload.is_open_loop else "serve.object_loop_run"


def _count_serve(counts, args, result) -> None:
    batches = round(result.num_requests / result.mean_batch_size) if result.num_requests else 0
    counts["serve.requests"] += result.num_requests
    counts["serve.events"] += result.num_requests + batches


class Serve(Workload):
    name = "serve"

    def setup(self):
        self.cold_cache()
        spec = get_spec(MODEL)
        return {
            "spec16x4": build_spec_cluster(spec, 16, 4),
            "mcm4x2": build_mcm_cluster(spec, 4, 16, stages=2),
        }

    def _runs(self):
        index = 0
        for cluster in ("spec16x4", "mcm4x2"):
            for rate in RATES:
                for stream in STREAMS:
                    index += 1
                    for scheduler in SCHEDULERS:
                        yield cluster, rate, stream, scheduler, self.seed * 1000 + index

    def unit(self, clusters) -> UnitResult:
        unit = UnitResult(outputs={"open": {}, "slo_rate": {}})
        ops = Ops(unit)
        for name, rate, stream, scheduler, seed in self._runs():
            cluster = clusters[name]
            slo = SLO(SLO_FACTOR * cluster.unloaded_latency(MODEL))
            done = ops.run(
                simulate_serving, cluster, make_scheduler(scheduler),
                _stream(stream, rate, OPEN_REQUESTS, seed), slo=slo, records="summary",
            )
            if done is None:
                continue
            result, report = done
            unit.work += result.num_requests
            unit.outputs["open"][f"{name}/{stream}/{rate}/{scheduler}"] = [
                report.p99, result.makespan, result.num_requests,
            ]
            if (stream == "poisson" and report.p99 <= slo.target_cycles
                    and report.throughput_per_megacycle >= BACKLOG_SHARE * rate):
                best = unit.outputs["slo_rate"].get(name, 0)
                unit.outputs["slo_rate"][name] = max(best, rate)
        spec_cluster = clusters["spec16x4"]
        closed = ClosedLoopWorkload(
            CLOSED_CLIENTS, CLOSED_REQUESTS_PER_CLIENT, CLOSED_THINK_CYCLES,
            seed=self.seed, mix={MODEL: 1.0},
        )
        done = ops.run(
            simulate_serving, spec_cluster, make_scheduler("fifo"), closed,
            slo=SLO(SLO_FACTOR * spec_cluster.unloaded_latency(MODEL)), records="summary",
        )
        if done is not None:
            result, report = done
            unit.work += result.num_requests
            unit.outputs["closed"] = [report.p99, result.makespan, result.num_requests]
        mcm = clusters["mcm4x2"]
        unit.outputs["mcm_capacity"] = {
            "claimed": mcm.capacity_per_megacycle(MODEL),
            # Completion rate of the most overloaded unbatched stream: what the
            # pipelines sustain.  The pipeline front holds each request for
            # input load + stage 0, longer than the interval the claim uses.
            "measured": max(
                (n * 1e6 / makespan for key, (_, makespan, n) in unit.outputs["open"].items()
                 if key.startswith("mcm4x2/poisson/") and key.endswith("/fifo")),
                default=0.0,
            ),
            "front_bound": mcm.pipelines * 1e6 / mcm.service(MODEL).occupancy_cycles(1),
        }
        unit.extra["clusters"] = clusters
        return unit

    def golden_view(self, unit):
        return {k: unit.outputs[k] for k in ("open", "closed", "slo_rate")}

    def checks(self, unit, goldens):
        short = [k for k, (_, _, n) in unit.outputs["open"].items() if n != OPEN_REQUESTS]
        out = [("open streams complete every request",
                not short and len(unit.outputs["open"]) == len(list(self._runs())),
                f"short: {short}")]
        closed = unit.outputs.get("closed", [0, 0, 0])[2]
        out.append(("closed loop completes every request",
                    closed == CLOSED_CLIENTS * CLOSED_REQUESTS_PER_CLIENT, f"{closed}"))
        out.append(self._fastpath_prefix(unit.extra["clusters"]))
        if goldens is not None and goldens.get("seed") == self.seed:
            got = self.golden_view(unit)
            for part in ("open", "closed", "slo_rate"):
                have, want = got.get(part), goldens[part]
                if isinstance(want, dict) and isinstance(have, dict):
                    diff = sorted(k for k in want.keys() | have.keys()
                                  if have.get(k) != want.get(k))
                else:
                    diff = [] if have == want else [f"{have} != {want}"]
                out.append((f"default-seed {part} p99/makespan", not diff,
                            f"{len(diff)} differ, e.g. {diff[:3]}"))
        return out

    def _fastpath_prefix(self, clusters) -> tuple[str, bool, str]:
        """A seed-chosen open stream's prefix: columnar records == object loop's."""
        runs = list(self._runs())
        name, rate, stream, scheduler, seed = runs[
            int(np.random.default_rng(self.seed).integers(len(runs)))
        ]
        results = [
            ServeSimulator(
                clusters[name], make_scheduler(scheduler),
                _stream(stream, rate, PREFIX_REQUESTS, seed), fastpath=mode,
            ).run()
            for mode in ("force", "off")
        ]
        same = (results[0].records == results[1].records
                and results[0].busy_cycles == results[1].busy_cycles)
        return (f"fastpath == object loop on {name}/{stream}/{rate}/{scheduler}",
                same, f"{PREFIX_REQUESTS} requests")

    def trace_targets(self):
        return noc_targets() + [
            ("repro.serve.cluster:build_spec_cluster", "serve.cluster_build"),
            ("repro.serve.pipelined:build_mcm_cluster", "serve.cluster_build"),
            ("repro.serve.cluster:build_replica_plan", "serve.cluster_build"),
            ("repro.models.zoo:get_spec", "models.build"),
            ("repro.serve.simulator:ServeSimulator.run", _serve_name,
             {"count": _count_serve}),
            ("repro.serve.fastpath:plan_columnar", "serve.fastpath_run"),
            ("repro.serve.fastpath:run_columnar", "serve.fastpath_run"),
            ("repro.serve.workload:PoissonWorkload.arrival_columns", "serve.arrivals"),
            ("repro.serve.workload:ClosedLoopWorkload.initial", "serve.arrivals"),
            ("repro.serve.workload:ClosedLoopWorkload.on_completion", "serve.arrivals"),
            ("repro.serve.slo:evaluate_slo", "serve.slo_eval"),
            ("repro.serve.results:ServeResult.compact", "serve.slo_eval"),
        ]

    def layer_values(self, unit, tracer):
        spans = tracer.self_times()
        loop_s = spans.get("serve.fastpath_run", 0.0) + spans.get("serve.object_loop_run", 0.0)
        capacity = unit.outputs["mcm_capacity"]
        return {
            **noc_values(tracer),
            "serve.requests": tracer.counts["serve.requests"],
            "serve.events": tracer.counts["serve.events"],
            "serve.events_per_s": tracer.counts["serve.events"] / loop_s if loop_s else 0.0,
            "serve.slo_rate.spec_per_mcycle": unit.outputs["slo_rate"].get("spec16x4", 0),
            "serve.slo_rate.mcm_per_mcycle": unit.outputs["slo_rate"].get("mcm4x2", 0),
            "mcm.capacity_claimed_per_mcycle": capacity["claimed"],
            "mcm.capacity_measured_per_mcycle": capacity["measured"],
        }

    def summary(self, unit):
        capacity = unit.outputs["mcm_capacity"]
        return [
            *((f"slo_rate_per_mcycle[{name}]", f"{rate} requests/Mcycle")
              for name, rate in unit.outputs["slo_rate"].items()),
            ("mcm4x2 capacity", f"claimed {capacity['claimed']:.1f}, measured "
             f"{capacity['measured']:.1f} (front-bound {capacity['front_bound']:.1f}) "
             "requests/Mcycle"),
        ]


WORKLOADS = {w.name: w for w in (Train, Simulate, Serve)}
