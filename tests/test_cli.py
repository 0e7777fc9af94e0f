import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from conftest import make_graph
from tagforge import synthesis
from tagforge.cli import main
from tagforge.gateway import MockProvider
from tagforge.graph import load_graph
from tagforge.synthesis import SynthesisConfig, run_synthesis


def _base_graph():
    adj = {
        "1": ["2", "3"], "2": ["3"], "3": [],
        "4": ["5", "6"], "5": ["6"], "6": [],
        "7": ["1"],
    }
    labels = {"1": 0, "2": 0, "3": 0, "7": 0, "4": 1, "5": 1, "6": 1}
    return make_graph(adj, labels=labels, class_count=2)


@pytest.fixture
def graph_file(tmp_graph_file):
    return tmp_graph_file(_base_graph(), "base.json")


def _one_round_script(tmp_path, goal=False, score=9.0, name="script.json"):
    script = {
        "0": json.dumps({"mode": "semantic"}),
        "1": json.dumps([{
            "node_id": "new_node 1", "label": 0,
            "text": "a synthesized document body with plenty of characters",
            "neighbors": ["1", "2"]}]),
        "2": json.dumps([{"node_id": "new_node 1", "score": score}]),
        "3": json.dumps({"goal_reached": goal, "justification": "scripted"}),
    }
    path = tmp_path / name
    path.write_text(json.dumps(script), encoding="utf-8")
    return str(path)


def _loaded_by_cli_import(modules):
    """Which of ``modules`` a fresh interpreter has loaded after importing
    the CLI."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (f"import sys, tagforge.cli; print(sorted(m for m in {tuple(modules)!r} "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_loads_no_scipy_stats_special_or_networkx():
    # every command pays for what importing the CLI loads; scipy.stats at
    # module level once added about 1.1 s to each set-up
    assert _loaded_by_cli_import(("scipy.stats", "scipy.special", "networkx")) == "[]"


def test_cli_import_loads_no_requests():
    # only HttpProvider needs requests; importing it cost every command
    # about 0.07 s of start-up
    assert _loaded_by_cli_import(("requests",)) == "[]"


# exit codes and argument errors -----------------------------------------------------

def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    assert "invalid choice" in capsys.readouterr().err


def test_unknown_flag_exits_2(capsys):
    assert main(["stats", "--bogus", "x"]) == 2


def test_no_arguments_exits_2():
    assert main([]) == 2


def test_missing_input_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["stats", missing]) == 2
    assert "nope.json" in capsys.readouterr().err


def test_invalid_graph_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["stats", str(bad)]) == 2


def test_schema_violation_exits_2(tmp_path, capsys):
    bad = tmp_path / "schema.json"
    bad.write_text(json.dumps({"class_count": 1, "nodes": [
        {"node_id": "a", "label": 0, "text": "t", "neighbors": ["ghost"],
         "mask": "Train"}]}), encoding="utf-8")
    assert main(["stats", str(bad)]) == 2
    assert "ghost" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["stats"], ["limit", "OUT", "--alpha", "1.0"], ["synthesize", "OUT", "--dry-run"]])
def test_lone_surrogate_in_a_graph_file_exits_2_naming_the_record(tmp_path, capsys, command):
    # UTF-8 cannot encode it, so the graph could be loaded but not saved
    bad = tmp_path / "surrogate.json"
    bad.write_text(json.dumps({"class_count": 1, "nodes": [
        {"node_id": "a", "label": 0, "text": "fine", "neighbors": ["b\udc00"]},
        {"node_id": "b\udc00", "label": 0, "text": "bad \ud800 text", "neighbors": []}]}),
        encoding="utf-8")
    out = tmp_path / "out.json"
    argv = [command[0], str(bad), *[str(out) if a == "OUT" else a for a in command[1:]]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: nodes[0].neighbors holds a lone surrogate\n"
    assert captured.out == "" and not out.exists()


def test_coherence_id_file_that_is_not_utf8_exits_2_naming_it(graph_file, tmp_path, capsys):
    cands = tmp_path / "cands.json"
    cands.write_bytes(b'["caf\xe9"]')
    emb = _embeddings_file(tmp_path, ["1"])
    assert main(["coherence", "--background", graph_file, "--candidates", str(cands),
                 "--embeddings", emb]) == 2
    assert capsys.readouterr().err == (
        f"error: {cands}: not UTF-8 at byte 5: invalid continuation byte\n")


@pytest.mark.parametrize("content, message", [
    (b'"\xe9"', "not UTF-8 at byte 1: invalid continuation byte"),
    (b"{nope",
     "invalid JSON at line 1 column 2: Expecting property name enclosed in double quotes"),
], ids=["not utf8", "invalid json"])
@pytest.mark.parametrize("command", [
    ["coherence", "--background", "GRAPH", "--candidates", "GRAPH", "--embeddings", "BAD"],
    ["synthesize", "GRAPH", "OUT", "--provider", "mock:BAD"],
    ["limit", "GRAPH", "OUT", "--config", "BAD"],
], ids=["embeddings", "mock script", "config"])
def test_bad_json_input_exits_2_naming_its_file(graph_file, tmp_path, capsys, command,
                                                 content, message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    out = tmp_path / "out.json"
    names = {"GRAPH": graph_file, "OUT": str(out), "BAD": str(bad), "mock:BAD": f"mock:{bad}"}
    assert main([names.get(a, a) for a in command]) == 2
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert not out.exists()


def test_bad_log_level_exits_2(capsys, graph_file):
    assert main(["--log-level", "noisy", "stats", graph_file]) == 2


# stats and analyze -------------------------------------------------------------------

def test_stats_prints_json_and_writes_report(capsys, graph_file, tmp_path):
    report = tmp_path / "stats.json"
    assert main(["stats", graph_file, "--report", str(report)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["num_nodes"] == 7
    assert printed["num_edges"] == 7
    on_disk = json.loads(report.read_text(encoding="utf-8"))
    assert on_disk == printed


def test_analyze_reports_similarity(capsys, tmp_graph_file):
    a = tmp_graph_file(_base_graph(), "a.json")
    b = tmp_graph_file(_base_graph(), "b.json")
    assert main(["analyze", a, b]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["clustering_similarity"] == pytest.approx(1.0)
    assert printed["label_homogeneity"] == pytest.approx(1.0)
    assert printed["degree_ks"]["statistic"] == 0.0


# limit -------------------------------------------------------------------------------

def test_limit_writes_output_and_sidecar(capsys, graph_file, tmp_path):
    out = tmp_path / "sampled.json"
    assert main(["limit", graph_file, str(out), "--alpha", "0.5"]) == 0
    sampled = load_graph(str(out))
    assert sampled.num_nodes == 3
    sidecar = json.loads((tmp_path / "sampled.json.limits.json")
                         .read_text(encoding="utf-8"))
    assert set(sidecar) == {"original", "sample", "repair", "cell_targets", "config"}
    assert sidecar["config"]["alpha"] == 0.5
    assert sidecar["config"]["lambda_weights"] == [1 / 3, 1 / 3]
    assert sidecar["config"]["seed"] == 0
    assert all(":" in key for key in sidecar["cell_targets"])
    assert sum(sidecar["cell_targets"].values()) == 3
    assert sidecar["repair"]["final_distortion"] <= sidecar["repair"]["initial_distortion"]


def test_limit_custom_sidecar_path(graph_file, tmp_path):
    out = tmp_path / "s.json"
    side = tmp_path / "custom.json"
    assert main(["limit", graph_file, str(out), "--alpha", "0.5",
                 "--sidecar", str(side)]) == 0
    assert side.exists()
    assert not (tmp_path / "s.json.limits.json").exists()


def test_limit_alpha_flag_overrides_config(graph_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"limiter": {"alpha": 0.9}}), encoding="utf-8")
    out = tmp_path / "s.json"
    assert main(["limit", graph_file, str(out), "--config", str(cfg),
                 "--alpha", "0.5"]) == 0
    assert load_graph(str(out)).num_nodes == 3


def test_limit_alpha_flag_replaces_an_invalid_config_alpha(graph_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"limiter": {"alpha": 2.0}}), encoding="utf-8")
    out = tmp_path / "s.json"
    assert main(["limit", graph_file, str(out), "--config", str(cfg),
                 "--alpha", "0.5"]) == 0
    sidecar = json.loads((tmp_path / "s.json.limits.json").read_text(encoding="utf-8"))
    assert sidecar["config"]["alpha"] == 0.5


def test_limit_config_alpha_used_without_flag(graph_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"limiter": {"alpha": 1.0}}), encoding="utf-8")
    out = tmp_path / "s.json"
    assert main(["limit", graph_file, str(out), "--config", str(cfg)]) == 0
    assert load_graph(str(out)).num_nodes == 7


def test_unknown_limiter_config_key_exits_2(graph_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"limiter": {"alhpa": 0.5}}), encoding="utf-8")
    assert main(["limit", graph_file, str(tmp_path / "o.json"),
                 "--config", str(cfg)]) == 2
    assert "alhpa" in capsys.readouterr().err


def test_three_limiter_weights_exit_2(graph_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"limiter": {"lambda_weights": [0.3, 0.3, 0.4]}}),
                   encoding="utf-8")
    assert main(["limit", graph_file, str(tmp_path / "o.json"),
                 "--config", str(cfg)]) == 2
    assert "lambda_weights" in capsys.readouterr().err


def test_unknown_config_section_exits_2(graph_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sampler": {}}), encoding="utf-8")
    assert main(["limit", graph_file, str(tmp_path / "o.json"),
                 "--config", str(cfg)]) == 2
    assert "sampler" in capsys.readouterr().err


# synthesize --------------------------------------------------------------------------

def test_synthesize_requires_provider(graph_file, tmp_path, capsys):
    assert main(["synthesize", graph_file, str(tmp_path / "o.json")]) == 2
    assert "--provider" in capsys.readouterr().err


def test_synthesize_bad_provider_spec(graph_file, tmp_path):
    assert main(["synthesize", graph_file, str(tmp_path / "o.json"),
                 "--provider", "bogus"]) == 2
    assert main(["synthesize", graph_file, str(tmp_path / "o.json"),
                 "--provider", "mock:"]) == 2


def test_synthesize_mock_run_grows_graph(graph_file, tmp_path):
    script = _one_round_script(tmp_path)
    out = tmp_path / "grown.json"
    code = main(["synthesize", graph_file, str(out),
                 "--provider", f"mock:{script}",
                 "--config", _max_iters_config(tmp_path)])
    assert code == 0
    grown = load_graph(str(out))
    assert grown.num_nodes == 8
    assert grown.has_node("new_node 1")
    entries = _audit_entries(tmp_path / "grown.json.audit.jsonl")
    kinds = [e["kind"] for e in entries]
    assert kinds[0] == "effective_config"
    assert "run_start" in kinds and "run_end" in kinds
    # the command and provider kind only; run_start carries seed and config
    assert entries[0] == {"seq": 0, "kind": "effective_config",
                          "command": "synthesize", "provider": "mock"}
    run_start = entries[kinds.index("run_start")]
    assert run_start["seed"] == 0
    assert run_start["config"] == json.loads(json.dumps(
        asdict(synthesis.SynthesisConfig(max_iterations=1))))


def _audit_entries(path):
    return [json.loads(line) for line in
            Path(path).read_text(encoding="utf-8").splitlines()]


def _run_start(path):
    return next(e for e in _audit_entries(path) if e["kind"] == "run_start")


def _max_iters_config(tmp_path, name="maxiter.json"):
    cfg = tmp_path / name
    cfg.write_text(json.dumps({"synthesis": {"max_iterations": 1}}),
                   encoding="utf-8")
    return str(cfg)


def test_synthesize_mock_determinism_byte_identical(graph_file, tmp_path):
    script = _one_round_script(tmp_path)
    cfg = _max_iters_config(tmp_path)
    outs, audits = [], []
    for tag in ("one", "two"):
        out = tmp_path / f"{tag}.json"
        audit = tmp_path / f"{tag}.audit.jsonl"
        assert main(["synthesize", graph_file, str(out),
                     "--provider", f"mock:{script}", "--config", cfg,
                     "--seed", "5", "--audit", str(audit)]) == 0
        outs.append(out.read_bytes())
        audits.append(audit.read_bytes())
    assert outs[0] == outs[1]
    assert audits[0] == audits[1]


def test_synthesize_provider_failure_exits_3(graph_file, tmp_path, capsys):
    empty_script = tmp_path / "empty.json"
    empty_script.write_text("{}", encoding="utf-8")
    out = tmp_path / "o.json"
    code = main(["synthesize", graph_file, str(out),
                 "--provider", f"mock:{empty_script}"])
    assert code == 3
    assert "provider failure" in capsys.readouterr().err
    # graph grown so far and audit still land on disk
    assert load_graph(str(out)).num_nodes == 7
    assert (tmp_path / "o.json.audit.jsonl").exists()


def test_synthesize_require_convergence_exits_4(graph_file, tmp_path, capsys):
    script = _one_round_script(tmp_path, goal=False)
    out = tmp_path / "o.json"
    code = main(["synthesize", graph_file, str(out),
                 "--provider", f"mock:{script}",
                 "--config", _max_iters_config(tmp_path),
                 "--require-convergence"])
    assert code == 4
    assert "convergence" in capsys.readouterr().err
    assert out.exists()


def test_synthesize_seed_flag_beats_config_seed(graph_file, tmp_path):
    script = _one_round_script(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 11, "synthesis": {"max_iterations": 1}}),
                   encoding="utf-8")
    out = tmp_path / "o.json"
    audit = tmp_path / "a.jsonl"
    assert main(["synthesize", graph_file, str(out), "--provider",
                 f"mock:{script}", "--config", str(cfg), "--seed", "3",
                 "--audit", str(audit)]) == 0
    assert _run_start(audit)["seed"] == 3

    out2 = tmp_path / "o2.json"
    audit2 = tmp_path / "a2.jsonl"
    assert main(["synthesize", graph_file, str(out2), "--provider",
                 f"mock:{script}", "--config", str(cfg),
                 "--audit", str(audit2)]) == 0
    assert _run_start(audit2)["seed"] == 11


def test_synthesize_config_overrides_land_in_audit(graph_file, tmp_path):
    script = _one_round_script(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"synthesis": {"max_iterations": 1, "capsule_size": 4}}), encoding="utf-8")
    out = tmp_path / "o.json"
    audit = tmp_path / "a.jsonl"
    assert main(["synthesize", graph_file, str(out), "--provider",
                 f"mock:{script}", "--config", str(cfg),
                 "--audit", str(audit)]) == 0
    config = _run_start(audit)["config"]
    assert config["capsule_size"] == 4
    assert config["max_iterations"] == 1


def test_unknown_synthesis_config_key_exits_2(graph_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"synthesis": {"capsul_size": 4}}), encoding="utf-8")
    assert main(["synthesize", graph_file, str(tmp_path / "o.json"),
                 "--provider", "live", "--config", str(cfg)]) == 2
    assert "capsul_size" in capsys.readouterr().err


def test_removed_provider_max_inflight_key_exits_2(graph_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"provider": {"max_inflight": 4}}), encoding="utf-8")
    assert main(["synthesize", graph_file, str(tmp_path / "o.json"),
                 "--provider", "live", "--config", str(cfg)]) == 2
    assert "max_inflight" in capsys.readouterr().err


def test_removed_synthesis_allow_internal_edges_key_exits_2(graph_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"synthesis": {"allow_internal_edges": False}}),
                   encoding="utf-8")
    assert main(["synthesize", graph_file, str(tmp_path / "o.json"),
                 "--provider", "live", "--config", str(cfg)]) == 2
    assert "allow_internal_edges" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("score_min", 0.0), ("score_max", 5.0)])
def test_removed_synthesis_key_exits_2(graph_file, tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"synthesis": {key: value}}), encoding="utf-8")
    assert main(["synthesize", graph_file, str(tmp_path / "o.json"),
                 "--provider", "live", "--config", str(cfg)]) == 2
    assert key in capsys.readouterr().err


def test_synthesize_bad_embedding_reply_exits_3(graph_file, tmp_path, capsys,
                                                monkeypatch):
    script = _one_round_script(tmp_path)
    monkeypatch.setattr(MockProvider, "embed",
                        lambda self, texts: [np.full(4, np.nan) for _ in texts])
    out = tmp_path / "o.json"
    assert main(["synthesize", graph_file, str(out),
                 "--provider", f"mock:{script}"]) == 3
    assert "non-finite" in capsys.readouterr().err
    assert load_graph(str(out)).num_nodes == 7
    assert (tmp_path / "o.json.audit.jsonl").exists()


def test_synthesize_internal_error_exits_3_with_outputs(graph_file, tmp_path, capsys,
                                                        monkeypatch):
    script = {}
    for it in (1, 2):
        base = 4 * (it - 1)
        script[str(base)] = json.dumps({"mode": "semantic"})
        script[str(base + 1)] = json.dumps([{
            "node_id": f"new_node {it}", "label": 0,
            "text": f"synthesized document body number {it} with plenty of characters",
            "neighbors": ["1", "2"]}])
        script[str(base + 2)] = json.dumps([{"node_id": f"new_node {it}", "score": 9.0}])
        script[str(base + 3)] = json.dumps({"goal_reached": False, "justification": "x"})
    script_path = tmp_path / "two_rounds.json"
    script_path.write_text(json.dumps(script), encoding="utf-8")
    cfg = tmp_path / "two_iters.json"
    cfg.write_text(json.dumps({"synthesis": {"max_iterations": 2}}), encoding="utf-8")

    real = synthesis.propose_edges
    calls = []

    def fail_in_second_iteration(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("boom in iteration 2")
        return real(*args, **kwargs)

    monkeypatch.setattr(synthesis, "propose_edges", fail_in_second_iteration)
    out = tmp_path / "o.json"
    audit_path = tmp_path / "o.audit.jsonl"
    assert main(["synthesize", graph_file, str(out), "--provider", f"mock:{script_path}",
                 "--config", str(cfg), "--audit", str(audit_path)]) == 3
    assert ("internal failure after iteration 2: RuntimeError: boom in iteration 2"
            in capsys.readouterr().err)
    # the node accepted in iteration 1 survives in the partial graph
    grown = load_graph(str(out))
    assert grown.num_nodes == 8 and grown.has_node("new_node 1")
    entries = [json.loads(line) for line in
               audit_path.read_text(encoding="utf-8").splitlines()]
    failure, end = entries[-2], entries[-1]
    assert failure["kind"] == "internal_failure"
    assert failure["iteration"] == 2
    assert failure["error"] == "RuntimeError: boom in iteration 2"
    assert end["kind"] == "run_end" and end["failure"] == failure["error"]
    assert "provider_failure" not in [e["kind"] for e in entries]


def test_synthesize_writes_audit_when_graph_write_fails(graph_file, tmp_path):
    script = _one_round_script(tmp_path)
    audit = tmp_path / "a.jsonl"
    assert main(["synthesize", graph_file, str(tmp_path / "no_such_dir" / "o.json"),
                 "--provider", f"mock:{script}", "--config", _max_iters_config(tmp_path),
                 "--audit", str(audit)]) == 2
    assert _audit_entries(audit)[-1]["kind"] == "run_end"


_BODY = "a synthesized document body with plenty of characters"


@pytest.mark.parametrize("reply", [
    # a JSON escape of a lone surrogate: label 9 once dropped the node under
    # its id in the generation entry, so the audit could not be written;
    # label 1 once put the id into the next prompt, whose digest failed
    pytest.param(json.dumps([{"node_id": "\ud800bad", "label": label, "text": _BODY,
                              "neighbors": ["0", "1"]}]), id=str(label))
    for label in (9, 1)] + [
    # a real lone surrogate in the text: the repair prompt quotes it, and its
    # prompt key once raised
    pytest.param(json.dumps([{"node_id": "new_node 1", "label": 1, "text": _BODY + " \ud800",
                              "neighbors": ["0", "1"]}], ensure_ascii=False), id="text")])
def test_lone_surrogate_reply_aborts_iteration_and_keeps_audit(tmp_graph_file, tmp_path,
                                                               reply):
    ring = make_graph({str(i): [str((i + 1) % 12)] for i in range(12)},
                      labels={str(i): i % 2 for i in range(12)}, class_count=2)
    graph = tmp_graph_file(ring, "ring.json")
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"0": json.dumps({"mode": "semantic"}),
                                  "1": reply, "2": reply}), encoding="utf-8")
    out = tmp_path / "out.json"
    assert main(["synthesize", graph, str(out), "--provider", f"mock:{script}",
                 "--seed", "1", "--config", _max_iters_config(tmp_path)]) == 0
    entries = _audit_entries(tmp_path / "out.json.audit.jsonl")
    aborted = [e for e in entries if e["kind"] == "iteration_aborted"]
    assert [e["schema"] for e in aborted] == ["generated-nodes"]
    assert entries[-1]["kind"] == "run_end" and entries[-1]["failure"] is None
    assert load_graph(str(out)).num_nodes == 12


@pytest.mark.parametrize("key, value", [
    ("gamma", 2.0), ("capsule_size", 0), ("teleport_alpha", 0.0)])
@pytest.mark.parametrize("dry_run", [True, False])
def test_invalid_perception_config_exits_2_on_both_paths(graph_file, tmp_path, capsys,
                                                         key, value, dry_run):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"synthesis": {key: value}}), encoding="utf-8")
    flags = ["--dry-run"] if dry_run else ["--provider", f"mock:{_one_round_script(tmp_path)}"]
    out = tmp_path / "o.json"
    assert main(["synthesize", graph_file, str(out), "--config", str(cfg), *flags]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


# dry run -----------------------------------------------------------------------------

def test_dry_run_prints_prompts_without_provider(graph_file, tmp_path, capsys):
    out = tmp_path / "never_written.json"
    code = main(["synthesize", graph_file, str(out), "--dry-run",
                 "--provider", "mock:/path/that/does/not/exist.json"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "=== Manager prompt" in printed
    assert "=== Enhancement prompt" in printed
    assert "--- system ---" in printed
    assert not out.exists()


def test_dry_run_without_provider_flag(graph_file, tmp_path):
    assert main(["synthesize", graph_file, str(tmp_path / "o.json"),
                 "--dry-run"]) == 0


class _RecordingProvider(MockProvider):
    def __init__(self, script):
        super().__init__(script)
        self.requests = []

    def complete(self, req):
        self.requests.append(req)
        return super().complete(req)


@pytest.mark.parametrize("dry_gamma", [0.5, 1.0])
def test_dry_run_enhancement_prompt_is_the_loops_first(tmp_graph_file, tmp_path, capsys,
                                                       dry_gamma):
    # training labels 35:5 put the peak imbalance at 7, past the fallback
    # threshold of 3, so both sides run the topological mode; with a retention
    # factor of 0.5 the draws pick the capsule, so its seed shows in the prompt
    rng = np.random.default_rng(7)
    adj = {str(i): [str(j) for j in range(i + 1, 40) if rng.random() < 0.12]
           for i in range(40)}
    path = tmp_graph_file(make_graph(adj, labels={str(i): int(i % 8 == 0) for i in range(40)},
                                     class_count=2), "imbalanced.json")
    seed, capsule = 5, {"capsule_size": 6, "retention_beta": 0.5}
    # unusable Manager replies (first try and repair), then no candidates
    provider = _RecordingProvider({"0": "no idea", "1": "still none", "2": "[]"})
    config = SynthesisConfig(gamma=1.0, max_iterations=1, **capsule)
    result = run_synthesis(load_graph(path), config, provider, rng_seed=seed)
    assert result.failure is None
    fallback = [e for e in result.audit.entries if e["kind"] == "mode_fallback"]
    assert [e["mode"] for e in fallback] == ["topological"]
    (sent,) = [r for r in provider.requests if r.role_tag == "Enhancement"]

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"synthesis": {"gamma": dry_gamma, **capsule}}),
                   encoding="utf-8")
    assert main(["synthesize", path, str(tmp_path / "o.json"), "--dry-run",
                 "--seed", str(seed), "--config", str(cfg)]) == 0
    printed = capsys.readouterr().out.split("=== Enhancement prompt", 1)[1]
    system, user = printed.split("--- system ---\n", 1)[1].split("\n--- user ---\n")
    assert system == sent.system_prompt
    assert user == sent.user_prompt + "\n\n"


# coherence ---------------------------------------------------------------------------

def _embeddings_file(tmp_path, ids, dim=3):
    table = {}
    for k, nid in enumerate(ids):
        vec = [0.0] * dim
        vec[k % dim] = 1.0
        vec[0] += 0.5
        table[nid] = vec
    path = tmp_path / "emb.json"
    path.write_text(json.dumps(table), encoding="utf-8")
    return str(path)


def test_coherence_with_graph_background_and_id_array(graph_file, tmp_path, capsys):
    ids = [str(i) for i in range(1, 8)]
    emb = _embeddings_file(tmp_path, ids + ["c1", "c2"])
    candidates = tmp_path / "cands.json"
    candidates.write_text(json.dumps(["c1", "c2"]), encoding="utf-8")
    assert main(["coherence", "--background", graph_file,
                 "--candidates", str(candidates), "--embeddings", emb]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["background_size"] == 7
    assert printed["sample_size"] == 2
    assert set(printed["scores"]) == {"c1", "c2"}
    assert 0.0 <= printed["mean"] <= 1.0


def test_coherence_missing_embedding_exits_2(graph_file, tmp_path, capsys):
    emb = _embeddings_file(tmp_path, ["1", "2"])
    cands = tmp_path / "c.json"
    cands.write_text(json.dumps(["zz"]), encoding="utf-8")
    assert main(["coherence", "--background", graph_file,
                 "--candidates", str(cands), "--embeddings", emb]) == 2
    assert "missing" in capsys.readouterr().err


def test_coherence_rejects_non_list_candidates(graph_file, tmp_path):
    emb = _embeddings_file(tmp_path, ["1"])
    cands = tmp_path / "c.json"
    cands.write_text(json.dumps({"ids": ["1"]}), encoding="utf-8")
    assert main(["coherence", "--background", graph_file,
                 "--candidates", str(cands), "--embeddings", emb]) == 2


def test_coherence_non_finite_candidate_vector_exits_2(graph_file, tmp_path, capsys):
    # json accepts NaN; a NaN score would reach the report as invalid JSON
    emb = tmp_path / "emb.json"
    _embeddings_file(tmp_path, [str(i) for i in range(1, 8)] + ["c2"])
    table = json.loads(emb.read_text(encoding="utf-8"))
    table["c1"] = [float("nan"), 1.0, 0.0]
    emb.write_text(json.dumps(table), encoding="utf-8")
    cands = tmp_path / "c.json"
    cands.write_text(json.dumps(["c1", "c2"]), encoding="utf-8")
    report = tmp_path / "report.json"
    assert main(["coherence", "--background", graph_file, "--candidates", str(cands),
                 "--embeddings", str(emb), "--report", str(report)]) == 2
    captured = capsys.readouterr()
    assert "non-finite" in captured.err
    assert captured.out == "" and not report.exists()


@pytest.mark.parametrize("which", ["background", "candidates"])
def test_coherence_id_array_with_a_repeated_id_exits_2(graph_file, tmp_path, capsys, which):
    # a repeated id would be counted, and scored, twice
    emb = _embeddings_file(tmp_path, [str(i) for i in range(1, 8)])
    repeated = tmp_path / "repeated.json"
    repeated.write_text(json.dumps(["1", 1, "2", "3", "3", "01"]), encoding="utf-8")
    files = {"background": graph_file, "candidates": graph_file, which: str(repeated)}
    assert main(["coherence", "--background", files["background"],
                 "--candidates", files["candidates"], "--embeddings", emb]) == 2
    captured = capsys.readouterr()
    assert "repeated ids: ['1', '3']" in captured.err and captured.out == ""


def test_coherence_background_graph_with_dangling_neighbor_exits_2(tmp_path, capsys):
    graph = {"class_count": 1, "nodes": [
        {"node_id": "1", "label": 0, "text": "a", "neighbors": ["2"]},
        {"node_id": "2", "label": 0, "text": "b", "neighbors": ["99"]},
    ]}
    background = tmp_path / "bg.json"
    background.write_text(json.dumps(graph), encoding="utf-8")
    emb = _embeddings_file(tmp_path, ["1", "2", "99"])
    cands = tmp_path / "c.json"
    cands.write_text(json.dumps(["1", "2"]), encoding="utf-8")
    assert main(["coherence", "--background", str(background),
                 "--candidates", str(cands), "--embeddings", emb]) == 2
    assert "99" in capsys.readouterr().err
