"""Span tracing of the public layer calls of `mhat`, installed from outside.

`Tracer.install()` replaces each listed function or method with a wrapper
that records its duration, the part of that duration its traced children
cover, and (for span-level names) one span: name, start, end, parent span
and operation id.  Module-level functions are replaced in every `mhat`
module that holds a reference, because modules import each other's
functions by name.  Nothing in `mhat` itself changes.

Hot per-hypothesis calls (scorer lookups, decoder evaluations, tensor
construction) are aggregated into counts and times rather than spans, so
the span list stays small enough to keep in memory.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# An operation is one training step, one utterance decode, one ILMA step or
# one LM training step.  It starts when one of these is entered outside
# another; backward and the optimizer step that follow belong to it.
OP_ROOTS = (
    "losses.mhat_loss",
    "lattice.hat_loss",
    "adapt.ilma_loss",
    "extlm.lm_loss",
    "decode.beam_search",
)

# (trace name, module, attribute path, hot)
TARGETS = (
    ("numerics.backward", "numerics", "Tensor.backward", False),
    ("model.encode", "model", "MhatModel.encode", False),
    ("model.encode", "model", "HatModel.encode", False),
    ("model.decoder_outputs", "model", "EmbeddingDecoder.outputs", False),
    ("model.decoder_eval", "model", "EmbeddingDecoder.output_np", True),
    ("model.arc_log_scores", "model", "MhatModel.arc_log_scores", False),
    ("model.arc_log_scores", "model", "HatModel.arc_log_scores", False),
    ("model.am_log_probs", "model", "MhatModel.am_log_probs", False),
    ("model.ilm_log_prob_rows", "model", "MhatModel.ilm_log_prob_rows", False),
    ("model.scorer_build", "model", "MhatModel.scorer", False),
    ("model.scorer_build", "model", "HatModel.scorer", False),
    *(
        ("decode.scorer", "model", f"{cls}.{meth}", True)
        for cls in ("MhatScorer", "HatScorer")
        for meth in ("context", "log_blank", "log_keep", "label_log_posteriors", "ilm_log_probs")
    ),
    ("lattice.forward_log_prob", "lattice", "forward_log_prob", False),
    ("lattice.forward", "lattice", "lattice_log_prob", False),
    ("lattice.hat_loss", "lattice", "hat_loss", False),
    ("losses.ilm_loss", "losses", "ilm_loss", False),
    ("losses.mhat_loss", "losses", "mhat_loss", False),
    ("losses.perplexity", "losses", "perplexity", False),
    ("adapt.ilma_loss", "adapt", "ilma_loss", False),
    ("adapt.ilm_snapshot", "adapt", "ilm_snapshot", False),
    ("adapt.run_ilma", "adapt", "run_ilma", False),
    ("extlm.next_log_prob_rows", "extlm", "ExternalLm.next_log_prob_rows", False),
    ("extlm.lm_loss", "extlm", "lm_loss", False),
    ("extlm.lm_perplexity", "extlm", "lm_perplexity", False),
    ("extlm.train_lm", "extlm", "train_lm", False),
    ("extlm.lm_scorer", "extlm", "LmScorer.next_log_probs", True),
    ("decode.beam_search", "decode", "beam_search", False),
    ("training.train_asr", "training", "train_asr", False),
    *(("training.optimizer_step", "training", f"{cls}.step", False) for cls in ("Sgd", "Momentum", "Adam")),
    ("data.gen_corpus", "data", "gen_corpus", False),
    ("evalcli.wer_counts", "evalcli", "wer_counts", False),
    ("evalcli.decode_corpus", "evalcli", "decode_corpus", False),
    ("evalcli.grid_search_lambdas", "evalcli", "grid_search_lambdas", False),
)


def _frames(args, kwargs):
    return len(args[1])  # beam_search(model, X, ...): T frames


def _cells(args, kwargs):
    return len(args[1]) * (len(args[2]) + 1)  # forward_log_prob(model, X, tokens): T*(U+1)


# exact work counts taken from call arguments, keyed by trace name
ARG_COUNTS = {"decode.beam_search": ("decode.frames", _frames),
              "lattice.forward_log_prob": ("lattice.cells", _cells)}


def merge_trace(into, new):
    """Add one (stats, counts) pair from `Tracer.take` to another (or None)."""
    if into is None:
        return {k: list(v) for k, v in new[0].items()}, dict(new[1])
    stats, counts = into
    for k, v in new[0].items():
        acc = stats.setdefault(k, [0, 0, 0])
        for j in range(3):
            acc[j] += v[j]
    for k, v in new[1].items():
        counts[k] = counts.get(k, 0) + v
    return into


class Tracer:
    """Collects spans and per-name (calls, total, self) times in memory."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int, int, int]] = []
        self.stats: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])  # calls, total ns, self ns
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [name, span id, child ns]
        self._next_id = 1
        self._op = 0
        self._op_depth = 0

    # -- collection ---------------------------------------------------------
    def take(self) -> tuple[dict[str, list[int]], dict[str, int]]:
        """Return and reset the aggregates gathered since the last call."""
        stats, counts = dict(self.stats), dict(self.counts)
        self.stats = defaultdict(lambda: [0, 0, 0])
        self.counts = defaultdict(int)
        return stats, counts

    def _wrap(self, name: str, fn, hot: bool):
        stack = self._stack
        is_root = name in OP_ROOTS
        arg_count = ARG_COUNTS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # a call nested in one of the same name (a scorer lookup calling
            # another) belongs to the outer call
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            if is_root and self._op_depth == 0:
                self._op += 1
                self.counts["ops"] += 1
            if arg_count is not None:
                self.counts[arg_count[0]] += arg_count[1](args, kwargs)
            parent = stack[-1][1] if stack else 0
            sid = self._next_id
            self._next_id += 1
            frame = [name, sid, 0]
            stack.append(frame)
            self._op_depth += is_root
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                self._op_depth -= is_root
                stack.pop()
                dur = end - start
                st = self.stats[name]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if not hot:
                    self.spans.append((name, start, end, sid, parent, self._op))

        return traced

    def _count_tensors(self, init):
        def counted(tensor, *args, **kwargs):
            if self._op_depth:
                self.counts["numerics.tensors"] += 1
            init(tensor, *args, **kwargs)

        return counted

    def install(self, package) -> None:
        """Wrap every target in the imported `mhat` package."""
        modules = [m for n, m in sys.modules.items() if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for name, mod_name, path, hot in TARGETS:
            mod = sys.modules[f"{package.__name__}.{mod_name}"]
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(name, cls.__dict__[meth], hot))
                continue
            fn = getattr(mod, path)
            wrapped = self._wrap(name, fn, hot)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, attr, wrapped)
        tensor = sys.modules[f"{package.__name__}.numerics"].Tensor
        tensor.__init__ = self._count_tensors(tensor.__init__)

    def span_records(self) -> dict:
        """Spans as columns, for writing out at the end of a run."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "columns": ["name", "start_ns", "end_ns", "id", "parent", "op"],
            "rows": [[index[s[0]], *s[1:]] for s in self.spans],
        }
