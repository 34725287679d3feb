"""Command-line surface: braid normal forms, operad classes, coherence, reps.

Subcommands: ``braid nf|eq``, ``operad classify|compose``,
``coherence check``, ``rep verify|eval``.  Machine output with ``--json``.
Exit codes: 0 ok, 1 check failed, 2 usage or parse error.  Reports are
deterministic; timing is attached only on request so identical inputs
yield byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass

from .braid import BraidWord, CylBraidWord, braid_eq, cyl_braid_eq, embed_cyl, garside_nf
from .coherence import COMMUTES, check
from .dsl import parse_diagram
from .errors import OrbibraidError, RelationError
from .operad import compose, classify, parse_color, parse_signed_op
from .reflect import RepData, build_cyl_rep, eval_braid, reflection_check, yang_baxter_check


@dataclass
class Report:
    command: str
    status: str  # ok | fail | error
    payload: dict
    elapsed_ms: float

    @property
    def exit_code(self) -> int:
        return {"ok": 0, "fail": 1}.get(self.status, 2)

    def render(self, as_json: bool, timing: bool) -> str:
        doc = {"command": self.command, "status": self.status, "payload": self.payload}
        if timing:
            doc["elapsed_ms"] = round(self.elapsed_ms, 3)
        if as_json:
            return json.dumps(doc, sort_keys=True)
        lines = [f"command: {self.command}", f"status:  {self.status}"]
        for key in sorted(self.payload):
            value = self.payload[key]
            if isinstance(value, list) and value and isinstance(value[0], list):
                lines.append(f"{key}:")
                width = max((len(str(x)) for row in value for x in row), default=0)
                for row in value:
                    lines.append("  [ " + "  ".join(str(x).rjust(width) for x in row) + " ]")
            elif isinstance(value, list):
                lines.append(f"{key}:")
                lines.extend(f"  {x}" for x in value)
            elif isinstance(value, dict):
                lines.append(f"{key}:")
                lines.extend(f"  {k}: {v}" for k, v in sorted(value.items()))
            else:
                lines.append(f"{key}: {value}")
        if timing:
            lines.append(f"elapsed_ms: {round(self.elapsed_ms, 3)}")
        return "\n".join(lines)


def _parse_word(text: str, n: int, cylinder: bool):
    if cylinder:
        return CylBraidWord.from_text(n, text)
    return BraidWord.from_text(n, text)


def _nf_payload(nf) -> dict:
    return {
        "power": nf.power,
        "factors": [[v + 1 for v in f] for f in nf.factors],
        "nf": nf.describe(),
    }


def _cmd_braid(args) -> tuple[str, dict]:
    if args.braid_cmd == "nf":
        w = _parse_word(args.words[0], args.strands, args.cyl)
        nf = garside_nf(embed_cyl(w) if args.cyl else w)
        payload = _nf_payload(nf)
        if args.cyl:
            payload["of_annular_embedding"] = True
        return "ok", payload
    u = _parse_word(args.words[0], args.strands, args.cyl)
    v = _parse_word(args.words[1], args.strands, args.cyl)
    equal = cyl_braid_eq(u, v) if args.cyl else braid_eq(u, v)
    return ("ok" if equal else "fail"), {"equal": equal}


def _cmd_operad(args) -> tuple[str, dict]:
    if args.operad_cmd == "classify":
        colors = [parse_color(c.strip()) for c in args.inputs.split(",") if c.strip()]
        ops = classify(args.arity, parse_color(args.output), colors)
        return "ok", {"count": len(ops), "classes": [op.to_text() for op in ops]}
    g = parse_signed_op(args.outer)
    fs = [parse_signed_op(text) for text in args.inner]
    outer_perm = None
    if args.outer_perm:
        outer_perm = tuple(int(v) - 1 for v in args.outer_perm.split())
    result = compose(g, fs, outer_perm)
    return "ok", {"result": result.to_text()}


def _cmd_coherence(args) -> tuple[str, dict]:
    with open(args.file, "r", encoding="utf-8") as fh:
        diagram = parse_diagram(fh.read())
    verdict = check(diagram.lhs, diagram.rhs, diagram.flavor)
    payload = verdict.to_json_dict()
    payload["flavor"] = diagram.flavor
    return ("ok" if verdict.status == COMMUTES else "fail"), payload


def _cmd_rep(args) -> tuple[str, dict]:
    data = RepData.load(args.file)
    if args.rep_cmd == "verify":
        payload = {
            "yang_baxter": yang_baxter_check(data.R),
            "reflection": reflection_check(data),
        }
        try:
            build_cyl_rep(data, 3)
            payload["cylinder_rep_n3"] = True
        except RelationError as exc:
            payload["cylinder_rep_n3"] = False
            payload["violated"] = exc.relation
        ok = all(payload[k] for k in ("yang_baxter", "reflection", "cylinder_rep_n3"))
        return ("ok" if ok else "fail"), payload
    w = _parse_word(args.word, args.strands, args.cyl)
    rep = build_cyl_rep(data, args.strands)
    matrix = eval_braid(rep, w)
    return "ok", {"matrix": matrix.to_strings()}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="orbibraid", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--timing", action="store_true", help="attach elapsed time to the report")

    braid = sub.add_parser("braid", help="normal forms and equality of braid words")
    bsub = braid.add_subparsers(dest="braid_cmd", required=True)
    for name, nwords in (("nf", 1), ("eq", 2)):
        p = bsub.add_parser(name)
        p.add_argument("-n", "--strands", type=int, required=True)
        p.add_argument("--cyl", action="store_true", help="cylinder braid words (tokens k/K allowed)")
        p.add_argument("words", nargs=nwords)
        common(p)

    operad = sub.add_parser("operad", help="signed-permutation classes of operations")
    osub = operad.add_subparsers(dest="operad_cmd", required=True)
    p = osub.add_parser("classify")
    p.add_argument("-k", "--arity", type=int, required=True)
    p.add_argument("--output", required=True, help="D or Dstar")
    p.add_argument("--inputs", default="", help="comma-separated input colors")
    common(p)
    p = osub.add_parser("compose")
    p.add_argument("-g", "--outer", required=True, help="outer operation, text form")
    p.add_argument("-f", "--inner", action="append", default=[], help="inner operation (repeat)")
    p.add_argument("--outer-perm", default="", help="1-based routing permutation")
    common(p)

    coherence = sub.add_parser("coherence", help="decide diagram commutativity")
    csub = coherence.add_subparsers(dest="coherence_cmd", required=True)
    p = csub.add_parser("check")
    p.add_argument("file")
    common(p)

    rep = sub.add_parser("rep", help="verify and evaluate matrix representation data")
    rsub = rep.add_subparsers(dest="rep_cmd", required=True)
    p = rsub.add_parser("verify")
    p.add_argument("file")
    common(p)
    p = rsub.add_parser("eval")
    p.add_argument("file")
    p.add_argument("-n", "--strands", type=int, required=True)
    p.add_argument("--cyl", action="store_true")
    p.add_argument("word")
    common(p)

    return parser


# argparse copies list defaults (the ``append`` of -f) before extending them,
# so a parsed namespace carries nothing over to the next call.
_parser = functools.cache(build_parser)


_DISPATCH = {
    "braid": _cmd_braid,
    "operad": _cmd_operad,
    "coherence": _cmd_coherence,
    "rep": _cmd_rep,
}


def main(argv=None) -> int:
    """Run one command and print its report; the parser is built once per process, on the first call."""
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parser().parse_args(argv)
    echo = "orbibraid " + " ".join(argv)
    start = time.perf_counter()
    try:
        status, payload = _DISPATCH[args.cmd](args)
    except (OrbibraidError, OSError, ValueError, json.JSONDecodeError, ZeroDivisionError) as exc:
        status, payload = "error", {"error": f"{type(exc).__name__}: {exc}"}
    elapsed = (time.perf_counter() - start) * 1000.0
    report = Report(echo, status, payload, elapsed)
    print(report.render(args.json, args.timing))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
