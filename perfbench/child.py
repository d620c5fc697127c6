"""One benchmark repetition: run ``repro.cli.main(argv)`` in this fresh
interpreter and write what was observed to a JSON file.

Usage: ``python3 perfbench/child.py SPEC.json`` where the spec holds
``root``, ``argv``, ``traced``, ``probe`` and ``result`` (the path to
write).  The process exits with the CLI's exit code, or 1 when the CLI
raised.

An untraced repetition installs only the one-shot set-up probe of
:func:`perfbench.layers.install_probe`.  A traced one wraps every layer of
:mod:`perfbench.layers` and writes its spans once, after the CLI returned.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path


def peak_rss_kb() -> int:
    """Peak resident set of this process image, in KiB.

    ``VmHWM`` covers only the address space created by ``exec``.  The
    ``ru_maxrss`` of a freshly exec'd process also holds the high-water mark
    of the parent's address space it replaced, so a parent that once held a
    large output would inflate every later repetition's figure.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    root = Path(spec["root"])
    # The checkout's own sources replace this script's directory on the path.
    sys.path[0:1] = [str(root / "src"), str(root)]
    from perfbench import layers
    from perfbench.tracing import Patches, Tracer

    tracer = Tracer() if spec["traced"] else None
    patches = Patches()
    marks: dict[str, float] = {}
    import_start = time.perf_counter()
    import repro.cli

    if tracer is not None:
        tracer.record("python.import", import_start, time.perf_counter())
        layers.install(tracer, patches)
    else:
        layers.install_probe(spec["probe"], marks, patches)
    exit_code = 1
    try:
        if tracer is not None:
            exit_code = tracer.call("cli.main", repro.cli.main, spec["argv"])
        else:
            exit_code = repro.cli.main(spec["argv"])
    except SystemExit as exc:  # argparse reports usage errors this way
        exit_code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
    observed = {"marks": marks, "peak_rss_kb": peak_rss_kb()}
    if tracer is not None:
        observed.update(tracer.document())
    Path(spec["result"]).write_text(json.dumps(observed), encoding="utf-8")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
