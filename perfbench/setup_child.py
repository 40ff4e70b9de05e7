"""One cold table build in a fresh process (the benchmark's set-up step).

Usage: python3 perfbench/setup_child.py '<json spec>'

The spec names the checkout root, an empty cache directory, the
(type, rank) pairs, the --threads value, and whether to trace. The child
runs `weightvar restrict` cold for each pair, timing the whole loop after
imports, then (untimed) digests every output. It prints one JSON line with
the time, the per-table digests and entry counts and, when traced, the
per-layer totals.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path


def main(spec: dict) -> dict:
    root = Path(spec["root"])
    sys.path.insert(0, str(root / "src"))
    from weightvar import cli
    from check import sha256
    tracer = None
    if spec.get("trace"):
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    outputs = []
    t0 = time.perf_counter()
    for i, (type_label, rank) in enumerate(spec["tables"]):
        if tracer is not None:
            tracer.query_id = i
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["restrict", "--type", type_label, "--rank", str(rank),
                             "--threads", str(spec["threads"]),
                             "--cache-dir", spec["cache_dir"]])
        outputs.append((f"{type_label}{rank}", code, out.getvalue(), err.getvalue()))
    seconds = time.perf_counter() - t0
    result = {"seconds": seconds, "tables": {}, "errors": []}
    for label, code, out, err in outputs:
        if code != 0 or err:
            result["errors"].append(f"{label}: exit {code} {err[:200]}")
            continue
        result["tables"][label] = {"sha256": sha256(out),
                                   "entries": len(json.loads(out)["entries"])}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_values()
        if spec.get("span_file"):
            result["spans"] = tracer.dump(spec["span_file"])
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
