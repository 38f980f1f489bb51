"""Verification reports and canonical JSON serialization.

Reports are deterministic: details are sorted by item label, checks by check
name, keys alphabetically, and floats printed with 17 significant digits, so
identical inputs produce byte-identical output.  A NaN or infinite value is
written as the JSON string "nan", "inf" or "-inf", and a NaN or infinite
residual fails its check, as does a report with no detail.
"""

from __future__ import annotations

import math


def max_or_nan(*residuals: float) -> float:
    """The largest residual (0.0 for none), NaN if any is NaN.  Python's max
    drops a NaN that is not its first argument, which would turn a NaN
    residual into a pass."""
    if any(r != r for r in residuals):
        return math.nan
    return max(residuals, default=0.0)


class Detail:
    __slots__ = ("item", "residual", "threshold")

    def __init__(self, item: str, residual: float, threshold: float):
        self.item, self.residual, self.threshold = item, residual, threshold

    def to_obj(self):
        return {"item": self.item, "residual": float(self.residual),
                "threshold": float(self.threshold)}


class VerificationReport:
    __slots__ = ("check", "params", "details")

    def __init__(self, check: str, params: dict, details: list | None = None):
        self.check, self.params = check, params
        self.details = [] if details is None else details

    def add(self, item: str, residual: float, threshold: float):
        self.details.append(Detail(item, float(residual), float(threshold)))

    @property
    def status(self) -> str:
        """"pass" when every detail holds; with no detail nothing was
        checked, so the report fails."""
        ok = all(d.residual <= d.threshold for d in self.details)
        return "pass" if ok and self.details else "fail"

    @property
    def max_residual(self) -> float:
        return max_or_nan(*(d.residual for d in self.details))

    def to_obj(self):
        return {
            "check": self.check,
            "params": self.params,
            "status": self.status,
            "max_residual": self.max_residual,
            "details": [d.to_obj()
                        for d in sorted(self.details, key=lambda d: d.item)],
        }

    def summary_lines(self):
        yield f"[{self.status.upper():4s}] {self.check}  " \
              f"(max residual {_fmt_float(self.max_residual)})"
        for d in sorted(self.details, key=lambda d: d.item):
            mark = "ok " if d.residual <= d.threshold else "BAD"
            yield (f"    {mark} {d.item}: {_fmt_float(d.residual)}"
                   f" <= {_fmt_float(d.threshold)}")


def _fmt_float(x: float) -> str:
    return f"{float(x):.17g}"


def _canon(obj) -> str:
    if isinstance(obj, dict):
        inner = ",".join(f"{_canon(str(k))}:{_canon(v)}"
                         for k, v in sorted(obj.items()))
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        text = _fmt_float(obj)
        return text if math.isfinite(obj) else _canon(text)
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def canonical_json(reports, version: str) -> str:
    checks = [r.to_obj() for r in sorted(reports, key=lambda r: r.check)]
    return _canon({"version": version, "checks": checks})
