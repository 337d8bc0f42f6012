"""Trigger fixture: telemetry calls not dominated by an `is not None` test."""


def unguarded_direct(fac, k):
    fac.telemetry.emit("tasks")  # finding: no None guard


def unguarded_alias(config):
    tele = config.telemetry
    tele.emit("phase", {"name": "factor"})  # finding: alias never tested


def guard_wrong_branch(fac):
    if fac.telemetry is None:
        fac.telemetry.event("oops")  # finding: guarded by the WRONG branch


def closure_does_not_inherit(fac):
    if fac.telemetry is not None:
        def task():
            # finding: facts do not flow into closures (the closure may run
            # after telemetry is detached) — it must re-test
            fac.telemetry.emit("deferred")
        return task
    return None


def unguarded_profiler(cfg, k):
    cfg.profiler.start("factor", cblk=k)  # finding: span call, no guard


def profiler_alias(fac):
    prof = fac.profiler
    prof.current()  # finding: profiler alias never tested


def span_outside_seam(fac, k):
    prof = fac.profiler
    if prof is not None:
        prof.start("factor", cblk=k)  # finding: guarded, but not spans.span
