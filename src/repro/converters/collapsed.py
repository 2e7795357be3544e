"""Collapsed ("folded") stack converter — Brendan Gregg's flame-graph input.

One line per unique stack::

    main;compute;hot_loop 412
    main;io_wait 88

Frames are separated by ``;`` (root first), the trailing integer is the
sample count.  Frames of the form ``module`AFunction`` or ``func (file:12)``
carry extra attribution that many emitters (perf's stackcollapse scripts,
py-spy --format raw) include; both are recognized.
"""

from __future__ import annotations

import re
from typing import List

from ..builder import ProfileBuilder
from ..core.frame import Frame, intern_frame
from ..core.profile import Profile
from ..errors import FormatError
from .base import Converter, register

_LOCATION_RE = re.compile(r"^(?P<name>.*?)\s+\((?P<file>[^():]+):(?P<line>\d+)\)$")
_MODULE_RE = re.compile(r"^(?P<module>[^`]+)`(?P<name>.+)$")
#: A sample count as :func:`serialize` writes it: an exact integer, or a
#: float's ``repr`` (exponent, ``inf`` and ``nan`` included).
_COUNT_RE = re.compile(
    r"^[+-]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|inf|nan)$")


def _parse_frame(token: str) -> Frame:
    token = token.strip()
    module = ""
    match = _MODULE_RE.match(token)
    if match:
        module = match.group("module")
        token = match.group("name")
    match = _LOCATION_RE.match(token)
    if match:
        return intern_frame(match.group("name"), file=match.group("file"),
                            line=int(match.group("line")), module=module)
    return intern_frame(token or "<unknown>", module=module)


def parse(data: bytes) -> Profile:
    """Convert folded-stack text."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError("collapsed stacks must be UTF-8 text") from exc
    builder = ProfileBuilder(tool="collapsed")
    metric = builder.metric("samples", unit="count")
    parsed_any = False
    for line_number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        stack_text, _, count_text = line.rpartition(" ")
        if not stack_text:
            raise FormatError("line %d has no sample count: %r"
                              % (line_number, line))
        try:
            count = float(count_text)
        except ValueError:
            raise FormatError("line %d has non-numeric count %r"
                              % (line_number, count_text)) from None
        frames = [_parse_frame(token)
                  for token in stack_text.split(";") if token.strip()]
        if not frames:
            raise FormatError("line %d has an empty stack" % line_number)
        builder.sample(frames, {metric: count})
        parsed_any = True
    if not parsed_any:
        raise FormatError("no stacks found in collapsed input")
    return builder.build()


def _format_count(value: float) -> str:
    """The count exactly: integral values as integers (stackcollapse
    style), others as the float's shortest round-tripping ``repr``."""
    if value.is_integer():
        return "%d" % value
    return repr(value)


def serialize(profile: Profile, metric: str = "") -> str:
    """Render a profile as folded stacks (for round-trips and export)."""
    index = (profile.schema.index_of(metric) if metric else 0)
    lines: List[str] = []
    for node in profile.nodes():
        value = node.metrics.get(index, 0.0)
        if value <= 0:
            continue
        path = ";".join(frame.name for frame in node.call_path())
        if path:
            lines.append("%s %s" % (path, _format_count(value)))
    lines.sort()
    return "\n".join(lines) + "\n"


def _sniff(data: bytes, path: str) -> bool:
    head = data[:4096]
    if not head or head[:1] in (b"{", b"<", b"\x1f"):
        return False
    try:
        text = head.decode("utf-8")
    except UnicodeDecodeError:
        return False
    lines = [ln for ln in text.splitlines() if ln.strip()
             and not ln.startswith("#")]
    if not lines:
        return False
    sample = lines[0]
    stack, _, count = sample.rpartition(" ")
    return bool(stack) and ";" in stack and bool(_COUNT_RE.match(count))


register(Converter(
    name="collapsed",
    parse=parse,
    sniff=_sniff,
    extensions=(".folded", ".collapsed"),
    description="Brendan Gregg folded stacks (stackcollapse-*, py-spy raw)"))
