"""Run ``hshadow`` with one span around each call it makes into the library.

Usage: python3 perfbench/hshadow_traced.py SPANS_PATH [hshadow arguments ...]

The command-line front end reaches the library through its module aliases
``povm_mod``, ``shadow_mod`` and ``sim_mod``.  Each alias is swapped for a
proxy that times the public functions, so calls the library makes
internally stay untraced, as in the in-process workloads.  The spans are
written to SPANS_PATH as JSON lines when the command returns; the parent
benchmark attaches them under the span of this step.
"""

import json
import sys
import time
import types

from homodyne_shadows import cli

_ALIASES = (("povm_mod", "povm"), ("shadow_mod", "shadow"), ("sim_mod", "sim"))


class _Traced:
    """Module proxy recording a span per public function call."""

    def __init__(self, module, layer, spans):
        self._module = module
        self._layer = layer
        self._spans = spans

    def __getattr__(self, attr):
        value = getattr(self._module, attr)
        if attr.startswith("_") or not isinstance(value, types.FunctionType):
            return value
        name = "%s.%s" % (self._layer, attr)
        spans = self._spans

        def timed(*args, **kwargs):
            start = time.monotonic_ns()
            try:
                return value(*args, **kwargs)
            finally:
                spans.append(
                    {"name": name, "start_ns": start, "end_ns": time.monotonic_ns()}
                )

        return timed


def main(argv):
    path, rest = argv[0], argv[1:]
    spans = []
    for alias, layer in _ALIASES:
        setattr(cli, alias, _Traced(getattr(cli, alias), layer, spans))
    try:
        return cli.main(rest)
    finally:
        with open(path, "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
