"""What each workload builds before its first operation.

This module imports nothing at load time: a set-up probe loads it first and
then times the call, so the time includes importing corelate and whatever
corelate itself imports.
"""


def fn_circuits():
    import corelate.diagrams as diagrams

    return {name: diagrams.get_theory(name) for name in ("er", "per")}


def linear_circuits():
    import corelate.corelrel  # noqa: F401  (its rel_subspace_rows reads the answers)
    import corelate.diagrams as diagrams

    return {name: diagrams.get_theory(name) for name in ("gf2-subspace", "q-subspace", "z-corel")}


def check_report():
    import corelate.cli as cli
    import corelate.diagrams as diagrams
    import corelate.spancospan as spancospan

    cli.build_parser()
    for c, a in (("f", "inj"), ("pf", "inj"), ("gf2", None), ("q", None), ("z", "split")):
        spancospan.get_ambient(c, a)
    for theory in ("er", "per", "gf2-subspace", "q-subspace", "z-corel"):
        diagrams.get_theory(theory)
    return {}


SETUPS = {"fn-circuits": fn_circuits, "linear-circuits": linear_circuits, "check-report": check_report}
