"""sha256 digests of the files a pipeline run writes, and the BLAS key they hold under.

Fixed seeds give identical bytes only under one BLAS kernel: numpy's
OpenBLAS picks its kernel by CPU when it loads, and the kernels sum in
different orders.  Runs of `run_experiment(ExperimentConfig())` under the
SkylakeX, Haswell, Sandybridge and Prescott kernels all wrote the same
`data/`, the same uid, token-id and text columns in `decodes/*.tsv`, and the
same `reports/ilma_report.txt` and `reports/wer_matrix.tsv`; those parts are
compared on every machine.  The score columns of the decodes and the last
digits of the perplexities in `reports/ilma_report.kv` differed, and
`models/` matched only because checkpoints round to float32, so the rest is
compared in full only under the key the digests were recorded at.

Print the digests of a run's output directory as JSON:

    PYTHONPATH=src python tests/digests.py OUT_DIR
"""

import ctypes
import hashlib
import json
import os
import sys

import numpy as np

import mhat

EVERY_MACHINE = ("data/", "decodes/", "reports/ilma_report.txt", "reports/wer_matrix.tsv")
DECODE_COLUMNS = 3  # uid, token ids and text of a decode record


def blas_key() -> str:
    """'numpy <version> | OpenBLAS <version> | <kernel>' of numpy's bundled OpenBLAS."""
    lib = mhat._numpy_openblas()
    config, core = lib.scipy_openblas_get_config64_, lib.scipy_openblas_get_corename64_
    for fn in (config, core):
        fn.argtypes, fn.restype = [], ctypes.c_char_p
    return f"numpy {np.__version__} | {' '.join(config().decode().split()[:2])} | {core().decode()}"


def pipeline_digests(root: str) -> dict[str, dict[str, str]]:
    """sha256 per file under `root`, by '/'-separated relative path:
    "full" over every byte of every file, "every_machine" over the parts that
    no BLAS kernel changes (see `EVERY_MACHINE` and `DECODE_COLUMNS`)."""
    full, every = {}, {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path, "rb") as f:
                data = f.read()
            full[rel] = hashlib.sha256(data).hexdigest()
            if rel.startswith("decodes/"):
                data = b"".join(b"\t".join(line.split(b"\t")[:DECODE_COLUMNS]) + b"\n" for line in data.splitlines())
            if rel.startswith(EVERY_MACHINE):
                every[rel] = hashlib.sha256(data).hexdigest()
    return {"every_machine": dict(sorted(every.items())), "full": dict(sorted(full.items()))}


if __name__ == "__main__":
    got = pipeline_digests(sys.argv[1])
    print(json.dumps({"every_machine": got["every_machine"], "full": {blas_key(): got["full"]}}, indent=1))
