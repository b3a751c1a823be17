"""Machine- and human-readable check reports.

Signatures are rendered through their stable symbolic label (the interned
character, or ``tag,src,dst,comm``) rather than the raw dense integer, so
equivalent runs produce identical reports regardless of interning order.
"""
from __future__ import annotations

import json
from typing import Optional

from .model import Deadlock, Illegal, NoDeadlock
from .signatures import SignatureSpace


def build_report(
    verdict,
    space: SignatureSpace,
    *,
    messages: int,
    steps: Optional[int] = None,
    witness=None,
    confluence: Optional[bool] = None,
    unpaired=None,
) -> dict:
    report = {
        "verdict": None,
        "blocked": [],
        "matchedPairs": 0,
        "residual": 0,
        "reason": None,
        "stats": {
            "messages": messages,
            "steps": steps,
            "distinctSignatures": len(space),
        },
    }
    if isinstance(verdict, NoDeadlock):
        report["verdict"] = "ok"
        report["matchedPairs"] = messages // 2
    elif isinstance(verdict, Deadlock):
        dl = verdict.report
        report["verdict"] = "deadlock"
        report["matchedPairs"] = dl.matched_pairs
        report["residual"] = dl.residual
        for entry in sorted(dl.blocked):
            item = {
                "process": entry.rank,
                "position": entry.position,
                "signature": space.label_of(entry.signature),
            }
            if entry.envelope is not None:
                item["envelope"] = entry.envelope._asdict()  # the field names are the JSON keys
            report["blocked"].append(item)
    elif isinstance(verdict, Illegal):
        reason = verdict.reason
        report["verdict"] = "illegal"
        report["reason"] = {
            "signature": space.label_of(reason.signature) if reason.signature is not None else None,
            "processes": list(reason.ranks),
            "message": reason.message,
        }
    else:
        raise TypeError(f"not a verdict: {verdict!r}")

    if witness is not None:
        report["witness"] = [
            {
                "signature": space.label_of(node.signature),
                "endpoints": [
                    {"process": rank, "position": pos} for rank, pos in sorted(node.endpoints)
                ],
            }
            for node in witness
        ]
    if unpaired:
        report["unpaired"] = [{"process": rank, "position": pos} for rank, pos in unpaired]
    if confluence is not None:
        report["confluence"] = "agreed" if confluence else "disagreed"
    return report


def to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=False)


def to_text(report: dict) -> str:
    lines = [f"verdict: {report['verdict']}"]
    if report["verdict"] == "deadlock":
        lines.append("blocked:")
        for item in report["blocked"]:
            lines.append(f"  P{item['process']} at position {item['position']}: {item['signature']}")
        lines.append(f"matched pairs: {report['matchedPairs']}")
        lines.append(f"residual messages: {report['residual']}")
    elif report["verdict"] == "illegal":
        reason = report["reason"]
        lines.append(
            f"illegal: signature {reason['signature']} involves processes "
            f"{reason['processes']}: {reason['message']}"
        )
    if "witness" in report and report["witness"]:
        lines.append("wait cycle:")
        for node in report["witness"]:
            ends = " <-> ".join(f"P{e['process']}@{e['position']}" for e in node["endpoints"])
            lines.append(f"  {node['signature']}: {ends}")
    if "unpaired" in report and report["unpaired"]:
        spots = ", ".join(f"P{e['process']}@{e['position']}" for e in report["unpaired"])
        lines.append(f"unpaired occurrences: {spots}")
    if "confluence" in report:
        lines.append(f"confluence: {report['confluence']}")
    stats = report["stats"]
    steps = stats["steps"] if stats["steps"] is not None else "-"
    lines.append(
        f"stats: messages={stats['messages']} steps={steps} "
        f"distinct-signatures={stats['distinctSignatures']}"
    )
    return "\n".join(lines)


def exit_code_for(report: dict) -> int:
    return {"ok": 0, "deadlock": 2, "illegal": 3}[report["verdict"]]
