"""Clean fixture: every telemetry call dominated by an `is not None` test."""


def guarded_direct(fac, k):
    if fac.telemetry is not None:
        fac.telemetry.emit("tasks")


def guarded_alias(config):
    tele = config.telemetry
    if tele is not None:
        tele.emit("phase", {"name": "factor"})


def early_exit(fac):
    if fac.telemetry is None:
        return
    fac.telemetry.event("after-early-exit")


def and_chained(fac, verbose):
    verbose and fac.telemetry is not None and fac.telemetry.event("v")


def ternary(fac):
    return fac.telemetry.snapshot() if fac.telemetry is not None else {}


def closure_retests(fac):
    def task():
        if fac.telemetry is not None:
            fac.telemetry.emit("deferred")
    return task


def guarded_profiler(cfg):
    if cfg.profiler is not None:
        cfg.profiler.finish()


def profiler_ternary(fac):
    prof = fac.profiler
    return prof.current() if prof is not None else None


def span_seam(fac, k):
    with span(fac.profiler, "factor", cblk=k):  # the one way a span opens
        pass
