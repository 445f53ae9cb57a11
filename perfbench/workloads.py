"""The three workloads: inputs, set-up, and one timed pass each.

A pass runs one workload's user-facing steps through the package's public
functions and its CLI entry point, in one process, and returns the
end-to-end figures of that pass. Every step sits in a span, so the same
code gives the traced pass when the tracer is on.

Why these workloads:

* ``tune_static`` - the heavy acceptance fixture's recipe at reduced
  size: static data (seq_len 1), a grid search and a refit, which take
  about half of a pass in training, autodiff, nn and model. The only
  workload with a grid search; its test durations have 10 distinct event
  times.
* ``longitudinal`` - a CSV cohort with 12 visits per subject: about a
  quarter of a pass is CSV parsing and per-record preparation, and the
  LSTM runs 12 steps, so a training batch records about 5x the tape nodes
  of ``tune_static`` (514 against 96). Every event time is distinct.
* ``score_online`` - no training in the timed phase: single-subject
  requests in a closed loop, batch scoring, importance and CLI evaluate
  on a checkpoint the CLI trained during set-up. Forward-only model,
  pipeline, metrics and cli; whole-day durations, so event times tie.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from dysurv import cli
from dysurv.data import SurvivalDataset, generate_synthetic, load_csv
from dysurv.metrics import (
    SurvivalCurves,
    evaluate_all,
    horizon_binary_metrics,
    horizon_labels,
    permutation_importance,
)
from dysurv.model import ModelConfig, predict_risk_batch
from dysurv.pipeline import Predictor, prepare_splits
from dysurv.training import (
    GridSearchSpace,
    TrainConfig,
    fit,
    grid_search,
    load_checkpoint,
)

from hostspeed import HostSpeed
from inputs import write_cohort
from ledger import Ledger, Op, curves_sane, masses_sane, reports_match
from tracing import Tracer

N_BINS = 10
HEAVY_MODEL = ModelConfig(hidden_size=24, z_dim=8, decoder_hidden=(24,), survival_hidden=(24,))
IMPORT_TIMEOUT_S = 60
# kernel timings in the host-speed sample taken after a step; a request
# gets a single timing, so that the sample sits right next to it
STEP_TIMINGS = 5
# The generator's true curves bound the expected test concordance, not the
# concordance on one finite split: on 1600 test subjects a fitted model
# once beat them by 0.00024. A leak or a broken metric moves it far more.
ORACLE_SLACK = 0.005

# "full" is what the benchmark measures; "tiny" only proves the code runs.
# A pass is kept to a few seconds so that a run holds several passes: the
# host's speed alternates on a scale of seconds, and figures averaged over
# passes spread across the run stay steady where one long pass does not.
SIZES = {
    "tune_static": {
        "full": dict(n=8000, m=5, censor=0.37, lrs=(1e-2, 3e-3), alphas=(0.5, 0.8),
                     keeps=(0.7, 0.9), grid_epochs=2, refit_epochs=6,
                     requests=1000, importance_n=800, horizon=5.0, setup_reps=5),
        "tiny": dict(n=400, m=3, censor=0.37, lrs=(1e-2,), alphas=(0.8,),
                     keeps=(0.9, 0.7), grid_epochs=1, refit_epochs=1,
                     requests=3, importance_n=60, horizon=5.0, setup_reps=1),
    },
    "longitudinal": {
        "full": dict(n=4000, epochs=3, batch=128, requests=250, importance_n=400,
                     horizon=30.0, setup_reps=5),
        "tiny": dict(n=300, epochs=1, batch=128, requests=3, importance_n=60,
                     horizon=30.0, setup_reps=1),
    },
    "score_online": {
        "full": dict(n=3000, epochs=3, batch=256, requests=250, importance_n=600,
                     horizon=30.0, setup_reps=3),
        "tiny": dict(n=300, epochs=1, batch=256, requests=3, importance_n=60,
                     horizon=30.0, setup_reps=1),
    },
}


def timed(tr: Tracer, name: str, fn, *args, **kwargs):
    """A step that is not an operation of its own: it is timed and traced,
    and an exception ends the run."""
    with tr.span(name):
        start = time.perf_counter()
        value = fn(*args, **kwargs)
        return value, time.perf_counter() - start


def import_seconds(src: Path) -> float:
    """Time ``import dysurv`` in a fresh interpreter, as a CLI user pays it."""
    code = (
        "import time; t = time.perf_counter(); import dysurv; "
        "print(repr(time.perf_counter() - t))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=IMPORT_TIMEOUT_S, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_cli(argv: list[str]) -> int:
    """The ``dysurv`` entry point in-process, its console output discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags by exiting
            return exc.code if isinstance(exc.code, int) else 2


def subset(ds: SurvivalDataset, records) -> SurvivalDataset:
    return SurvivalDataset(schema=ds.schema, records=list(records))


def by_ids(ds: SurvivalDataset, ids) -> SurvivalDataset:
    index = {r.id: r for r in ds.records}
    return subset(ds, (index[i] for i in ids))


@dataclass
class Pass:
    """Raw figures of one pass plus what the probes of a traced run reuse.
    ``brackets`` holds, for each timed figure, the host-speed samples taken
    right before and after it, and ``latency_host`` the pair bracketing
    each request."""

    figures: dict[str, float]
    brackets: dict[str, tuple[int, int]]
    latencies_ms: list[float]
    latency_host: list[tuple[int, int]]
    quality: dict[str, float]
    state: SimpleNamespace = field(default_factory=SimpleNamespace)


class Workload:
    name = ""

    def __init__(self, size: str, seed: int, work: Path, src: Path):
        self.p = SIZES[self.name][size]
        self.seed = seed
        self.work = work
        self.src = src
        self.pass_no = 0
        self.requests_sent = 0
        self.host = HostSpeed()
        self._mark = 0
        self._brackets: dict[str, tuple[int, int]] = {}

    # -- set-up ------------------------------------------------------------

    def generate(self) -> None:
        """Write the workload's inputs; not part of any timing."""

    def setup(self, lg: Ledger) -> dict[str, float]:
        """Work a user does before the timed phase. Returns the times of
        its parts, which add up to ``setup_s``, each with its bracket."""
        return {"import_s": self.import_step()}

    def run_setup(self, lg: Ledger) -> tuple[dict[str, float], dict[str, tuple[int, int]]]:
        """One set-up, with the host-speed brackets of its figures."""
        self._brackets = {}
        self._mark = self.host.sample(STEP_TIMINGS)
        figures = self.setup(lg)
        return figures, dict(self._brackets)

    def import_step(self) -> float:
        """``import dysurv`` in a fresh interpreter. This process and the
        interpreter share one CPU meanwhile, so that the host-speed samples
        describe the CPU the import runs on: the two vCPUs of the host this
        was tuned on change speed nearly independently."""
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(allowed)})
        try:
            self._lap()
            seconds = import_seconds(self.src)
            self._lap("import_s")
        finally:
            os.sched_setaffinity(0, allowed)
        return seconds

    # -- the timed pass ----------------------------------------------------

    def run_pass(self, tr: Tracer, lg: Ledger) -> Pass:
        raise NotImplementedError

    def _begin(self) -> int:
        """Start a pass with a host-speed sample; returns its index."""
        self.pass_no += 1
        self._brackets = {}
        self._mark = self.host.sample(STEP_TIMINGS)
        return self._mark

    def _lap(self, *keys: str, timings: int = STEP_TIMINGS) -> int:
        """Sample the host speed after a step. The stretch since the last
        sample becomes the bracket of the figures ``keys``."""
        end = self.host.sample(timings)
        for key in keys:
            self._brackets[key] = (self._mark, end)
        self._mark = end
        return end

    def _finish(self, first: int, figures: dict, served: dict, quality: dict,
                state: SimpleNamespace) -> Pass:
        latencies = served.pop("latencies_ms")
        latency_host = served.pop("latency_host")
        figures.update(served)
        last = self._lap()
        self._brackets["total_s"] = (first, last)
        return Pass(figures, dict(self._brackets), latencies, latency_host, quality, state)

    def _out(self, tag: str) -> Path:
        path = self.work / f"pass{self.pass_no}_{tag}"
        path.mkdir(parents=True, exist_ok=True)
        return path

    # -- steps shared by the workloads ---------------------------------------

    def evaluate(self, tr: Tracer, lg: Ledger, bin_probs, grid, durations, events) -> Op:
        """Fitted model to an EvalReport plus the horizon metrics, including
        predicting the curves."""
        horizon = self.p["horizon"]

        def run():
            with tr.span("model.predict_bins"):
                probs = bin_probs()
            curves = SurvivalCurves.from_bin_probs(probs, grid)
            with tr.span("metrics.evaluate_all"):
                report = evaluate_all(curves, durations, events)
            with tr.span("metrics.horizon"):
                labels, include = horizon_labels(durations, events, horizon)
                risks = 1.0 - curves.at(horizon)
                hrep = horizon_binary_metrics(risks[include], labels, horizon)
            return probs, curves, report, hrep

        op = lg.must("phase.evaluate", run)
        self._lap("eval_s")
        probs, curves, _, _ = op.value
        lg.check(op, "eval bin masses", *masses_sane(probs))
        lg.check(op, "eval curves", *curves_sane(curves.values))
        return op

    def serve(self, tr: Tracer, lg: Ledger, predictor: Predictor, ds: SurvivalDataset,
              held_out: list, cli_argv: list[str], ref: Op) -> dict[str, float]:
        """The scoring steps every workload shares: single-subject requests
        in a closed loop, one batch call, permutation importance, and the
        CLI's evaluate compared with the library's report ``ref``."""
        p = self.p
        figures: dict[str, float] = {}
        latencies: list[float] = []
        brackets: list[tuple[int, int]] = []
        self._lap()
        with tr.span("phase.predict_one"):
            for _ in range(p["requests"]):
                one = subset(ds, [held_out[self.requests_sent % len(held_out)]])
                self.requests_sent += 1
                before = len(self.host.samples) - 1
                op = lg.call("pipeline.curves_one", predictor.curves, one)
                latencies.append(op.seconds * 1e3)
                brackets.append((before, self._lap(timings=1)))
                if op.ok:
                    lg.check(op, "request curve", *curves_sane(op.value.values))
        self._lap()
        figures["latencies_ms"] = latencies
        figures["latency_host"] = brackets

        op = lg.call("pipeline.curves_batch", predictor.curves, ds)
        if op.ok:
            lg.check(op, "batch curves", *curves_sane(op.value.values))
        figures["batch_subjects"] = len(ds)
        figures["batch_s"] = op.seconds
        self._lap("batch_s")

        calls = SimpleNamespace(n=0, seconds=0.0)

        def counted_predict(d):
            start = time.perf_counter()
            try:
                return predictor.curves(d)
            finally:
                calls.n += 1
                calls.seconds += time.perf_counter() - start

        sub = subset(ds, held_out[: p["importance_n"]])
        op = lg.call(
            "metrics.permutation_importance", permutation_importance,
            counted_predict, sub, n_repeats=1, seed=self.seed,
        )
        if op.ok:
            names = sorted(name for name, _ in op.value)
            lg.check(op, "importance ranks every feature",
                     names == sorted(ds.schema.feature_names()), str(names))
        figures["importance_s"] = op.seconds
        figures["importance_calls"] = calls.n
        figures["importance_predict_s"] = calls.seconds
        self._lap("importance_s")

        out = self._out("cli")
        argv = [*cli_argv, "--seed", str(self.seed), "--out", str(out),
                "--horizon", repr(p["horizon"])]
        op = lg.call("cli.evaluate", run_cli, argv)
        figures["cli_evaluate_s"] = op.seconds
        self._lap("cli_evaluate_s")
        if op.ok and lg.check(op, "cli evaluate exit code", op.value == 0, f"exit {op.value}"):
            _, _, report, hrep = ref.value
            got = json.loads((out / "eval_report.json").read_text(encoding="utf-8"))
            lg.check(op, "cli eval_report matches evaluate_all",
                     *reports_match(got, report.to_json_dict(), ("c_td", "ibs", "inbll")))
            got = json.loads((out / "horizon_report.json").read_text(encoding="utf-8"))
            lg.check(op, "cli horizon_report matches the library",
                     *reports_match(got, hrep.to_json_dict(), ("auroc", "auprc", "sensitivity")))

        # a call without a data source must fail with exit code 1, not raise
        op = lg.call("cli.evaluate_bad", run_cli, ["evaluate", "--out", str(out)])
        if op.ok:
            lg.check(op, "cli error exit code", op.value == 1, f"exit {op.value}")
        return figures

    def checkpoint_predictor(self, tr: Tracer, path: Path, params, prep, model_config,
                             train_config) -> Predictor:
        timed(tr, "training.save_checkpoint", save_checkpoint_compat, path, params, prep,
              model_config, train_config)
        ckpt, _ = timed(tr, "training.load_checkpoint", load_checkpoint, path,
                        expected_schema=prep.schema)
        return Predictor.from_checkpoint(ckpt)


def save_checkpoint_compat(path: Path, params, prep, model_config, train_config) -> None:
    """``save_checkpoint`` with whichever keyword arguments it accepts, so a
    planned removal of ``model_config`` from its signature does not break
    the benchmark."""
    import inspect

    from dysurv.training import save_checkpoint

    kwargs = dict(schema=prep.schema, grid=prep.grid, model_config=model_config,
                  train_config=train_config, transform=prep.transform)
    accepted = inspect.signature(save_checkpoint).parameters
    save_checkpoint(path, params, **{k: v for k, v in kwargs.items() if k in accepted})


def history_from_csv(path: Path) -> tuple[int, int]:
    """Epochs run and best epoch of a CLI training run, from history.csv."""
    with open(path, newline="", encoding="utf-8") as fh:
        val = [float(row["val_total"]) for row in csv.DictReader(fh)]
    return len(val), int(np.argmin(val)) + 1


def _quality(report, val_nll: float) -> dict[str, float]:
    return {"val_nll": float(val_nll), "test_c_td": float(report.c_td),
            "test_ibs": float(report.ibs)}


class TuneStatic(Workload):
    name = "tune_static"

    def generate(self) -> None:
        p = self.p
        self.ds = generate_synthetic(p["n"], p["m"], p["censor"], seed=self.seed)

    def oracle_c_td(self, prep) -> float:
        """Concordance of the generator's true curves on the test split."""
        from dysurv.data import TimeGrid
        from dysurv.metrics import concordance_td

        truth = self.ds.truth
        idx = [int(sid[1:]) for sid in prep.test_ids]
        probs = np.concatenate([truth.pmf[idx], truth.survive_beyond[idx][:, None]], axis=1)
        grid = TimeGrid(n_bins=truth.n_bins, t_max=float(truth.n_bins))
        curves = SurvivalCurves.from_bin_probs(probs, grid)
        return concordance_td(curves, prep.test.durations, prep.test.events)

    def run_pass(self, tr: Tracer, lg: Ledger) -> Pass:
        p = self.p
        first = self._begin()
        start = time.perf_counter()
        prep, prep_s = timed(tr, "pipeline.prepare_splits", prepare_splits,
                             self.ds, self.seed, n_bins=N_BINS)
        self._lap("prep_s")

        space = GridSearchSpace(learning_rates=p["lrs"], batch_sizes=(256,),
                                alphas=p["alphas"], dropout_keeps=p["keeps"])
        base = TrainConfig(max_epochs=p["grid_epochs"], patience=p["grid_epochs"], seed=self.seed)
        with tr.span("phase.fit"):
            fit_start = time.perf_counter()
            search = lg.must("training.grid_search", grid_search, prep.train, prep.val, space,
                             base=base, model_config=HEAVY_MODEL).value
            refit = replace(search.best_config, max_epochs=p["refit_epochs"],
                            patience=p["refit_epochs"])
            params, history = lg.must("training.fit", fit, prep.train, prep.val, refit,
                                      model_config=HEAVY_MODEL).value
            fit_s = time.perf_counter() - fit_start
        self._lap("fit_s")

        ev = self.evaluate(tr, lg, lambda: predict_risk_batch(params, prep.test.x),
                           prep.grid, prep.test.durations, prep.test.events)
        predictor = self.checkpoint_predictor(
            tr, self._out("fit") / "checkpoint.bin", params, prep, HEAVY_MODEL, refit)
        held_out = by_ids(self.ds, prep.test_ids).records
        cli_argv = ["evaluate", "--synth", f"{p['n']},{p['m']},{p['censor']}",
                    "--checkpoint", str(self._out("fit") / "checkpoint.bin")]
        served = self.serve(tr, lg, predictor, self.ds, held_out, cli_argv, ev)
        figures = {"prep_s": prep_s, "fit_s": fit_s, "eval_s": ev.seconds,
                   "total_s": time.perf_counter() - start}
        report = ev.value[2]
        oracle = self.oracle_c_td(prep)
        lg.check(ev, "test c_td within the oracle's", report.c_td <= oracle + ORACLE_SLACK,
                 f"c_td {report.c_td:.6f} <= oracle {oracle:.6f} + {ORACLE_SLACK}")
        state = SimpleNamespace(
            ds=self.ds, prep=prep, params=params, train_config=refit,
            model_config=HEAVY_MODEL, predictor=predictor, held_out=held_out,
            search=search, histories=[(history.n_epochs(), history.best_epoch)], eval=ev,
            eval_durations=prep.test.durations, eval_events=prep.test.events, csv_rows=0,
            cli_argv=cli_argv, load=None,
        )
        return self._finish(first, figures, served,
                            _quality(report, history.best_val_l1()), state)


class Longitudinal(Workload):
    name = "longitudinal"

    def generate(self) -> None:
        self.cohort = write_cohort(self.work / "inputs", self.p["n"], self.seed)

    def run_pass(self, tr: Tracer, lg: Ledger) -> Pass:
        p = self.p
        first = self._begin()
        start = time.perf_counter()
        ds, load_s = timed(tr, "data.load_csv", load_csv, self.cohort.manifest)
        prep, split_s = timed(tr, "pipeline.prepare_splits", prepare_splits,
                              ds, self.seed, n_bins=N_BINS)
        self._lap("prep_s")
        config = TrainConfig(learning_rate=1e-2, batch_size=p["batch"], alpha=0.8,
                             dropout_keep=0.9, max_epochs=p["epochs"], patience=p["epochs"],
                             seed=self.seed)
        with tr.span("phase.fit"):
            op = lg.must("training.fit", fit, prep.train, prep.val, config,
                         model_config=HEAVY_MODEL)
        params, history = op.value
        self._lap("fit_s")

        ev = self.evaluate(tr, lg, lambda: predict_risk_batch(params, prep.test.x),
                           prep.grid, prep.test.durations, prep.test.events)
        ckpt_path = self._out("fit") / "checkpoint.bin"
        predictor = self.checkpoint_predictor(tr, ckpt_path, params, prep, HEAVY_MODEL, config)
        held_out = by_ids(ds, prep.test_ids).records
        cli_argv = ["evaluate", "--manifest", str(self.cohort.manifest),
                    "--checkpoint", str(ckpt_path)]
        served = self.serve(tr, lg, predictor, ds, held_out, cli_argv, ev)
        figures = {"prep_s": load_s + split_s, "fit_s": op.seconds, "eval_s": ev.seconds,
                   "total_s": time.perf_counter() - start}
        state = SimpleNamespace(
            ds=ds, prep=prep, params=params, train_config=config, model_config=HEAVY_MODEL,
            predictor=predictor, held_out=held_out, search=None,
            histories=[(history.n_epochs(), history.best_epoch)], eval=ev,
            eval_durations=prep.test.durations, eval_events=prep.test.events,
            csv_rows=self.cohort.n_subjects + self.cohort.series_rows,
            cli_argv=cli_argv, load=(load_csv, self.cohort.manifest),
        )
        return self._finish(first, figures, served,
                            _quality(ev.value[2], history.best_val_l1()), state)


class ScoreOnline(Workload):
    name = "score_online"

    def generate(self) -> None:
        self.cohort = write_cohort(self.work / "inputs", self.p["n"], self.seed,
                                   whole_days=True)
        self.train_out = self.work / "train"

    def setup(self, lg: Ledger) -> dict[str, float]:
        p = self.p
        import_s = self.import_step()
        argv = ["train", "--manifest", str(self.cohort.manifest), "--seed", str(self.seed),
                "--out", str(self.train_out), "--max-epochs", str(p["epochs"]),
                "--patience", str(p["epochs"]), "--batch", str(p["batch"]),
                "--hidden", "24", "--z-dim", "8", "--alpha", "0.8", "--lr", "0.01",
                "--n-bins", str(N_BINS)]
        op = lg.must("cli.train", run_cli, argv)
        self._lap("fit_s")
        lg.check(op, "cli train exit code", op.value == 0, f"exit {op.value}")
        if op.value != 0:
            raise RuntimeError(f"dysurv train exited with {op.value}")
        return {"import_s": import_s, "fit_s": op.seconds}

    def val_nll(self, params, val) -> float:
        """Mean validation NLL of the checkpoint, from the public tape
        functions the same way ``fit`` scores an epoch."""
        from dysurv.autodiff import Tape
        from dysurv.model import LossMasks, forward_graph, nll_graph

        total = 0.0
        for start in range(0, len(val), 1024):
            idx = np.arange(start, min(start + 1024, len(val)))
            tape = Tape()
            steps = [np.ascontiguousarray(val.x[idx][:, j, :]) for j in range(val.seq_len)]
            _, _, _, a_hat, _ = forward_graph(tape, params, steps)
            masks = LossMasks.build(val.bins[idx], val.events[idx], val.last_obs[idx], val.n_bins)
            total += float(nll_graph(tape, a_hat, masks).value)
        return total / len(val)

    def run_pass(self, tr: Tracer, lg: Ledger) -> Pass:
        first = self._begin()
        start = time.perf_counter()
        ckpt_path = self.train_out / "checkpoint.bin"
        ds, load_s = timed(tr, "data.load_csv", load_csv, self.cohort.manifest)
        ckpt, _ = timed(tr, "training.load_checkpoint", load_checkpoint, ckpt_path,
                        expected_schema=ds.schema)
        prep, split_s = timed(tr, "pipeline.prepare_splits", prepare_splits, ds, self.seed,
                              n_bins=ckpt.grid.n_bins, condition_mode=ckpt.params.condition_mode)
        predictor = Predictor.from_checkpoint(ckpt)
        test_ds = by_ids(ds, prep.test_ids)
        held_out = test_ds.records + by_ids(ds, prep.val_ids).records
        self._lap("prep_s")

        ev = self.evaluate(tr, lg, lambda: predictor.bin_probs(test_ds), predictor.grid,
                           test_ds.durations(), test_ds.events())
        cli_argv = ["evaluate", "--manifest", str(self.cohort.manifest),
                    "--checkpoint", str(ckpt_path)]
        served = self.serve(tr, lg, predictor, ds, held_out, cli_argv, ev)
        figures = {"prep_s": load_s + split_s, "eval_s": ev.seconds,
                   "total_s": time.perf_counter() - start}
        train_config = ckpt.train_config
        state = SimpleNamespace(
            ds=ds, prep=prep, params=ckpt.params, train_config=train_config,
            model_config=ckpt.model_config, predictor=predictor, held_out=held_out,
            search=None, histories=[history_from_csv(self.train_out / "history.csv")],
            eval=ev, eval_durations=test_ds.durations(), eval_events=test_ds.events(),
            csv_rows=self.cohort.n_subjects + self.cohort.series_rows,
            cli_argv=cli_argv, load=(load_csv, self.cohort.manifest),
        )
        done = self._finish(first, figures, served, {}, state)
        done.quality = _quality(ev.value[2], self.val_nll(ckpt.params, prep.val))
        return done


WORKLOADS = {w.name: w for w in (TuneStatic, Longitudinal, ScoreOnline)}
