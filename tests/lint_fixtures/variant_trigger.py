"""Trigger fixture: variant/strategy string literals compared outside
config.py."""


def pick_kernel(strategy):
    if strategy == "minimal-memory":  # finding: strategy literal
        return "assemble-compressed"
    return "assemble-dense"


def compress_point(order):
    if order != "cuf":  # finding: loop-order literal
        return "late"
    return "early"


def is_compress_last(order):
    return order in ("cuf", "ucf")  # finding: loop-order literals


def wants_jit(cfg):
    return cfg.strategy == "just-in-time"  # finding: strategy literal
