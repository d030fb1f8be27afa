"""Source hygiene: the environment is not a configuration channel.

Behaviour under ``src/repro`` is selected by arguments and config objects.
Every line that touches ``os.environ`` / ``getenv`` is pinned here, so a new
escape hatch fails CI the day it is written instead of waiting for a
re-anchor to find it.  What is allowed: the CLI defaults for the two secrets
(``--authkey`` / ``--token``, which must not appear on a command line), the
emulator's ``DISPATCH_ENV`` read, and the dispatch bench flipping that same
variable around its two timed runs.
"""

from __future__ import annotations

import re
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Any mention at all (a bare ``environ`` alias would dodge ``ENV_NAME``).
ENV_MENTION = re.compile(r"\benviron\b|\bgetenv\b")
#: The variable a mention reads, writes or pops: a literal or a constant.
ENV_NAME = re.compile(r"""(?:\benviron(?:\.\w+)?|\bgetenv)\s*[\[(]\s*["']?(\w+)""")

#: ``(file under src/repro, variable) -> lines that touch it``.
ALLOWED = Counter({
    ("campaign/cli.py", "REPRO_DISTRIB_AUTHKEY"): 2,
    ("campaign/cli.py", "REPRO_SERVICE_TOKEN"): 2,
    ("distrib/worker.py", "REPRO_DISTRIB_AUTHKEY"): 1,
    ("analysis/emulator.py", "DISPATCH_ENV"): 1,
    ("experiments/speedup.py", "DISPATCH_ENV"): 5,
})


def test_environment_reads_are_pinned():
    found = Counter()
    for path in sorted(SRC.rglob("*.py")):
        for line in path.read_text().splitlines():
            if ENV_MENTION.search(line):
                match = ENV_NAME.search(line)
                name = match.group(1) if match else f"<unparsed: {line.strip()}>"
                found[(path.relative_to(SRC).as_posix(), name)] += 1
    assert found == ALLOWED, (
        "environment access under src/repro changed — pass configuration as "
        "arguments, or update ALLOWED with the reason in this file's docstring: "
        f"new {dict(found - ALLOWED)}, gone {dict(ALLOWED - found)}"
    )
