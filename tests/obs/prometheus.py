"""The Prometheus 0.0.4 text-exposition grammar the round-trip tests hold
:meth:`repro.obs.MetricsRegistry.prometheus_text` to."""

import re
from typing import Dict, Optional

from repro.errors import ObservabilityError

#: one exposition line: name{labels} value  (labels optional)
LINE_RE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*'
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})?'
    r' (-?\d+(\.\d+)?([eE][+-]?\d+)?|\+Inf|-Inf|NaN)$'
)

_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$")
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _unescape_label_value(value: str) -> str:
    # \\ first via a placeholder so \\n stays a backslash + n
    return (value.replace("\\\\", "\x00")
                 .replace(r"\n", "\n")
                 .replace(r"\"", '"')
                 .replace("\x00", "\\"))


def parse_prometheus_text(text: str) -> Dict[str, dict]:
    """Parse 0.0.4 exposition text back into families.

    Returns ``{family: {"type": ..., "help": ..., "samples": [(name,
    labels_dict, value), ...]}}`` with samples attached to the family
    whose ``# TYPE`` line most recently preceded them (``_bucket``/
    ``_sum``/``_count``/quantile samples land under their family).
    """
    families: Dict[str, dict] = {}
    current: Optional[str] = None
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            families.setdefault(name, {"type": "untyped", "help": "",
                                       "samples": []})["help"] = help_text
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, type_name = rest.partition(" ")
            families.setdefault(name, {"type": "untyped", "help": "",
                                       "samples": []})["type"] = type_name
            current = name
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ObservabilityError(
                f"unparseable exposition line {lineno}: {line!r}"
            )
        sample_name, label_blob, raw_value = match.groups()
        labels = {k: _unescape_label_value(v)
                  for k, v in _LABEL_PAIR_RE.findall(label_blob or "")}
        family = current if (current is not None
                             and sample_name.startswith(current)) else sample_name
        families.setdefault(family, {"type": "untyped", "help": "",
                                     "samples": []})
        families[family]["samples"].append(
            (sample_name, labels, float(raw_value)))
    return families
