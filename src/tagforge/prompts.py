"""Prompt builders for the agent roles.

Every builder returns a ChatRequest carrying the role tag so the gateway can
apply per-role temperatures and the audit log can attribute calls.
"""
from __future__ import annotations

import json
from typing import Sequence

from .gateway import SCORE_MAX, SCORE_MIN, ChatRequest

MANAGER_SYSTEM = (
    "You coordinate a pipeline that grows a text-attributed graph with new "
    "nodes. Given a structured report on the current graph, decide which "
    "enhancement mode the next round should run: 'semantic' grows a small, "
    "semantically tight community with related content, while 'topological' "
    "adds nodes to the most underrepresented class to reduce label imbalance.")

ENHANCEMENT_SYSTEM = (
    "You write new nodes for a text-attributed graph. Each node needs a text "
    "payload in the style of the provided examples, an integer class label, "
    "and a neighbor list naming existing node ids the new node should link "
    "to. Stay consistent with the subject matter of the nodes you are shown.")

EVALUATION_SYSTEM = (
    "You review candidate nodes proposed for a text-attributed graph. Score "
    f"each candidate from {SCORE_MIN:g} to {SCORE_MAX:g} on two dimensions: "
    "semantic coherence (does the text fit the labeled topic and its proposed "
    "neighborhood) and structural integrity (are the proposed links plausible "
    "for the graph).")

GOAL_SYSTEM = (
    "You judge whether a graph synthesis run has met its goal. Compare the "
    "initial graph report with the current one and decide if coverage and "
    "balance have improved enough to stop.")


def manager_prompt(report_json: str, lambda_weights: Sequence[float]) -> ChatRequest:
    priorities = {
        "semantic_quality": round(float(lambda_weights[0]), 4),
        "structural_fidelity": round(float(lambda_weights[1]), 4),
        "class_balance": round(float(lambda_weights[2]), 4),
    }
    user = (
        "Current graph report:\n" + report_json +
        "\nCurrent objective priorities: " + json.dumps(priorities, sort_keys=True) +
        "\n\nChoose the enhancement mode for the next round. "
        'Reply with JSON: {"mode": "semantic"} or {"mode": "topological"}.')
    return ChatRequest(role_tag="Manager", system_prompt=MANAGER_SYSTEM,
                       user_prompt=user)


def enhancement_prompt(
    mode: str,
    capsule_json: str,
    report_summary: str,
    budget: int,
    class_count: int,
    prior_rejections: Sequence[str] = (),
) -> ChatRequest:
    feedback = ""
    if prior_rejections:
        feedback = ("\nFeedback from the previous round, address it in the new "
                    "candidates:\n- " + "\n- ".join(prior_rejections))
    user = (
        f"Enhancement mode: {mode}.\n"
        f"Graph summary:\n{report_summary}\n"
        f"Context nodes (the knowledge capsule):\n{capsule_json}\n"
        f"{feedback}\n"
        f"Write exactly {budget} new node(s). Labels are integers in "
        f"[0, {class_count}). Neighbors must name node ids that appear above "
        "or elsewhere in the graph. Reply with a JSON array of objects, each "
        "with keys node_id, label, text, neighbors, mask.")
    return ChatRequest(role_tag="Enhancement", system_prompt=ENHANCEMENT_SYSTEM,
                       user_prompt=user)


def evaluation_prompt(
    candidates_json: str, initial_summary: str, current_summary: str) -> ChatRequest:
    user = (
        "Initial graph summary:\n" + initial_summary +
        "\nCurrent graph summary:\n" + current_summary +
        "\nCandidate nodes:\n" + candidates_json +
        "\n\nScore every candidate. Reply with a JSON array of objects, each "
        f"with keys node_id, semantic_coherence ({SCORE_MIN:g}-{SCORE_MAX:g}), "
        f"structural_integrity ({SCORE_MIN:g}-{SCORE_MAX:g}).")
    return ChatRequest(role_tag="Evaluation", system_prompt=EVALUATION_SYSTEM,
                       user_prompt=user)


def goal_prompt(initial_report_json: str, current_report_json: str) -> ChatRequest:
    user = (
        "Initial graph report:\n" + initial_report_json +
        "\nCurrent graph report:\n" + current_report_json +
        '\n\nHas the synthesis goal been reached? Reply with JSON: '
        '{"goal_reached": true|false, "justification": "..."}.')
    return ChatRequest(role_tag="Goal", system_prompt=GOAL_SYSTEM,
                       user_prompt=user)
