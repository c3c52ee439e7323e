"""Tests of the benchmark itself: configs, span arithmetic, patching, checks.

Run from the repository root with ``python -m pytest perfbench``.
"""

import sys

import pytest

import run

run.prepare()

import tracing  # noqa: E402
from workloads import WORKLOADS, Command, Workload  # noqa: E402

TINY_MLP = "model_kind = mlp\nlayer_sizes = 4, 5, 3\nactivation = tanh\nlambda_damp = 0.1\n"
TINY = Workload(
    "tiny",
    "small versions of every benchmarked command",
    (
        Command("stats", "command = stats\n" + TINY_MLP + "n_examples = 64\nn_probes = 6\nsketch_dim = 4\n"),
        Command(
            "pbrf-compare",
            "command = pbrf-compare\n" + TINY_MLP + "n_examples = 30\nbatch_size = 4\n"
            "t_steps = 3\nn_train = 4\nn_test = 5\n",
        ),
        Command(
            "counterexample",
            "command = counterexample\neigenvalues = 1, 1, 1, 1\nlambda_damp = 0.1\n"
            "batch_size = 1\nt_max = 3\nn_runs = 4000\n",
        ),
        Command("similarity", "command = similarity\n" + TINY_MLP + "n_examples = 40\nn_items = 4\n"),
        Command("lissa", "command = lissa\n" + TINY_MLP + "n_examples = 40\nbatch_size = 8\ntolerance = 0.9\n"),
    ),
)


def traced_pass(runner):
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        invocations = runner.run_pass(tracer)
    return tracer, invocations


def test_same_seed_same_configs(tmp_path):
    for workload in WORKLOADS.values():
        a = run.Runner(workload, 3, tmp_path / "a")
        b = run.Runner(workload, 3, tmp_path / "b")
        c = run.Runner(workload, 4, tmp_path / "c")
        for command in workload.commands:
            texts = [(r.work / "config" / f"{command.name}.cfg").read_text() for r in (a, b, c)]
            # the seed reaches the program only through --seed
            assert texts[0] == texts[1] == texts[2] == command.config
            assert "seed" not in command.config
            argv = a.argv(command.name)
            assert argv[argv.index("--seed") + 1] == "3"
            assert argv[argv.index("--threads") + 1] == "1"


def test_self_time_is_duration_minus_child_spans():
    ticks = iter([0.0, 1.0, 4.0, 5.0, 6.0, 7.0, 9.0, 10.0, 11.0, 12.0, 13.0, 15.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    a = tracer.enter("A")  # A: 0..10
    b = tracer.enter("B")  # B: 1..4
    tracer.exit(b)
    c = tracer.enter("C")  # C: 5..9
    inner = tracer.enter("B")  # B inside C: 6..7
    tracer.exit(inner)
    tracer.exit(c)
    tracer.exit(a)
    d = tracer.enter("D")  # D: 11..15 holding another D: 12..13
    nested = tracer.enter("D")
    tracer.exit(nested)
    tracer.exit(d)
    totals = tracer.layer_totals()
    assert totals["A"] == {"calls": 1, "total_s": 10.0, "self_s": 10.0 - 3.0 - 4.0}
    assert totals["B"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0 + 1.0}
    assert totals["C"] == {"calls": 1, "total_s": 4.0, "self_s": 4.0 - 1.0}
    # a span nested in its own layer counts once and its time once
    assert totals["D"] == {"calls": 1, "total_s": 4.0, "self_s": 4.0}


def test_tracing_off_wraps_nothing(tmp_path):
    runner = run.Runner(TINY, 0, tmp_path)
    assert tracing.wrapped_bindings() == []
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        invocations = runner.run_pass()
    finally:
        sys.setprofile(None)
    assert all(inv.code == 0 for inv in invocations)
    wrapper_code = tracing._wrap(tracing.Tracer(), tracing.PROBES[0], len).__code__
    assert wrapper_code not in called
    assert tracing.wrapped_bindings() == []


def test_instrumented_patches_every_binding_and_restores():
    from lissakit import cli, gnh, models, pbrf

    originals = (models._forward, gnh._forward, pbrf._forward, cli.COMMANDS["stats"], gnh.sample_batch)
    with tracing.instrumented(tracing.Tracer()):
        bound = set(tracing.wrapped_bindings())
        for name in ("lissakit.models._forward", "lissakit.gnh._forward", "lissakit.pbrf._forward",
                     "lissakit.pbrf.sample_batch", "lissakit.cli.COMMANDS['stats']",
                     "lissakit.cli.cmd_stats", "lissakit.gnh.GnhOperator.matvec"):
            assert name in bound
    assert (models._forward, gnh._forward, pbrf._forward, cli.COMMANDS["stats"], gnh.sample_batch) == originals
    assert tracing.wrapped_bindings() == []


def test_checks_pass_and_hvp_counts_match(tmp_path):
    runner = run.Runner(TINY, 5, tmp_path)
    warmup = runner.run_pass()
    tracer, traced = traced_pass(runner)
    problems, nominal = run.check_outputs(runner, warmup)
    assert nominal["stats"] == (3 * 6 + 4, 0)
    assert nominal["counterexample"] == (0, 4000 * 3)
    for first, inv in zip(warmup, traced):
        assert run.failure_reasons(inv, first.outputs, problems[inv.command], nominal[inv.command]) == []
    values = tracing.layer_values(tracer)
    assert values["gnh.hvps"] == sum(n[0] for n in nominal.values())
    assert values["lissa.sampler_hvps"] == 4000 * 3
    assert values["spectral.probe_vectors_per_column"] == 2.0


def test_hvp_check_trips_when_a_pass_is_shortened(tmp_path):
    full = run.Runner(TINY, 5, tmp_path / "full")
    problems, nominal = run.check_outputs(full, full.run_pass())
    short = Workload(
        "short",
        "stats with fewer probes than the workload asks for",
        (Command("stats", TINY.commands[0].config.replace("n_probes = 6", "n_probes = 5")),),
    )
    runner = run.Runner(short, 5, tmp_path / "short")
    _, (inv,) = traced_pass(runner)
    assert inv.code == 0
    reasons = run.failure_reasons(inv, inv.outputs, [], nominal["stats"])
    assert reasons == ["counted HVPs (19, 0) != nominal (22, 0)"]


def test_broken_output_is_a_failure(tmp_path):
    runner = run.Runner(TINY, 5, tmp_path)
    warmup = runner.run_pass()
    path = runner.out_dir("similarity") / "influence_similarity.csv"
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[2] = repr(float(cells[2]) + 1e-6)
    path.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")
    problems, _ = run.check_outputs(runner, warmup)
    assert problems["similarity"] and problems["stats"] == []


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "dense-oracle", "--seed", "0", "--seconds", "1", "--trace", "0"])
    assert code != 0 and capsys.readouterr().out == ""


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_why_is_one_short_line(name):
    why = WORKLOADS[name].why
    assert "\n" not in why and len(why) <= 200


def test_benchmark_json_matches_the_code():
    import json

    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == [(n, u) for n, u, _ in tracing.PER_LAYER]
    assert {m["name"] for m in doc["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
