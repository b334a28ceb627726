"""perfbench/tracer.py wraps `mhat` by name from outside; these tests keep
its targets resolvable, its decode op count non-zero and its scorer lookup
counts equal to the table rows filled, without editing it."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_in_mhat():
    for name, mod_name, path, _ in load_tracer().TARGETS:
        mod = importlib.import_module(f"mhat.{mod_name}")
        if "." in path:
            cls_name, meth = path.split(".")
            # install() replaces the entry of the class's own __dict__
            assert meth in vars(getattr(mod, cls_name)), name
        else:
            assert callable(getattr(mod, path, None)), name


# run in a child process: install() rewraps `mhat` for the life of the process
GRID_UNDER_TRACER = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
import mhat
from mhat import evalcli as ev
from mhat.extlm import ExternalLm
t = tracer.Tracer()
t.install(mhat)
cfg = ev.ExperimentConfig(n_train=0, n_dev=3, n_test=0, n_adapt_text=0, d_f=8, label_dim=8, blank_dim=4,
                          joint_dim=6, lam_ext_grid=(0.0, 0.4), lam_ilm_grid=(0.0, 0.2))
exp = ev.make_experiment_data(cfg)
lm = ExternalLm(exp.vocab, embed_dim=8)
ev.grid_search_lambdas(ev.build_mhat(cfg, exp.vocab), lm, exp.tgt_dev, "ilme_subtract", cfg, log=lambda m: None)
stats, counts = t.take()
print(json.dumps({"ops": counts.get("ops", 0), "calls": stats["decode.beam_search"][0],
                  "frames": counts.get("decode.frames", 0), "utterances": len(exp.tgt_dev.items)}))
"""


def test_traced_grid_counts_decode_ops_and_frames():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (os.path.join(ROOT, "src"),
                                                                  os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", GRID_UNDER_TRACER, TRACER], env=env, capture_output=True,
                         text=True, check=True)
    seen = json.loads(out.stdout.splitlines()[-1])
    assert seen["calls"] == 1  # one corpus search per grid_search_lambdas call
    assert seen["ops"] > 0 and seen["frames"] > 0


# the matrix of perfbench's decode workload, decoded twice with the same
# models: a table kept from one call to the next would make the second pass
# do less work than the first
MATRIX_TWICE_UNDER_TRACER = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
import mhat
from mhat import decode as dec, evalcli as ev
from mhat.extlm import ExternalLm
t = tracer.Tracer()
t.install(mhat)
cfg = ev.ExperimentConfig(n_train=0, n_dev=0, n_test=4, n_adapt_text=0)
exp = ev.make_experiment_data(cfg)
lm = ExternalLm(exp.vocab, embed_dim=cfg.label_dim, seed=7)
mhat_model, hat_model = ev.build_mhat(cfg, exp.vocab), ev.build_hat(cfg, exp.vocab)
fused = dec.FusionConfig("ilme_subtract", 0.4, 0.2, lm)
configs = [(mhat_model, dec.NO_FUSION), (mhat_model, dec.FusionConfig("shallow", 0.4, 0.0, lm)), (mhat_model, fused),
           (hat_model, dec.NO_FUSION), (hat_model, fused)]
t.take()  # the set-up's spans
passes = []
for _ in range(2):
    for it in exp.tgt_test.items:
        for model, fusion in configs:
            dec.beam_search(model, it.features, cfg.beam, fusion)
    stats, counts = t.take()
    passes.append({"counts": counts, "calls": {name: v[0] for name, v in stats.items()}})
print(json.dumps(passes))
"""


def test_repeated_decodes_do_the_same_work():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (os.path.join(ROOT, "src"),
                                                                  os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", MATRIX_TWICE_UNDER_TRACER, TRACER], env=env, capture_output=True,
                         text=True, check=True)
    first, second = json.loads(out.stdout.splitlines()[-1])
    assert first["calls"]["model.decoder_eval"] > 0
    assert first == second


# the text path of perfbench's adapt workload, tiny: ILMA with held-out
# perplexities, then an LM epoch; its per-layer metrics read these counts
TEXT_UNDER_TRACER = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
import mhat
from mhat import adapt as ad, evalcli as ev, extlm as xl
t = tracer.Tracer()
t.install(mhat)
cfg = ev.ExperimentConfig(n_train=0, n_dev=0, n_test=0, n_adapt_text=40, d_f=8, label_dim=8, blank_dim=4,
                          joint_dim=6)
exp = ev.make_experiment_data(cfg)
text = exp.tgt_text.transcripts()
model = ev.build_mhat(cfg, exp.vocab)
model.trained_alpha = 0.1
ad.run_ilma(model, exp.tgt_text, ad.IlmaConfig(steps=3, batch_size=8), heldout_source=text[:5],
            heldout_target=text[5:10])
xl.train_lm(exp.tgt_text, xl.LmTrainConfig(epochs=1, batch_size=16, embed_dim=8))
stats, counts = t.take()
print(json.dumps({"calls": {name: v[0] for name, v in stats.items()}, "counts": counts}))
"""


def test_traced_text_path_counts_its_layers():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (os.path.join(ROOT, "src"),
                                                                  os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", TEXT_UNDER_TRACER, TRACER], env=env, capture_output=True,
                         text=True, check=True)
    seen = json.loads(out.stdout.splitlines()[-1])
    calls = seen["calls"]
    assert calls["adapt.ilma_loss"] == 3
    assert calls["extlm.lm_loss"] == 3  # 40 sentences in batches of 16
    assert calls["losses.perplexity"] == 4  # source and target, before and after
    assert calls["model.decoder_outputs"] > 0
    assert seen["counts"]["ops"] == 6 and seen["counts"]["numerics.tensors"] > 0


# one fused corpus decode per model, its scorers captured as they are built:
# perfbench's `extlm.lm_scorer_calls.*` and `decode.scorer_lookups.*` read
# these call counts as the number of table rows filled
FILLS_UNDER_TRACER = """
import importlib.util, json, sys
import numpy as np
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
import mhat
from mhat import decode as dec, evalcli as ev
from mhat.extlm import ExternalLm
t = tracer.Tracer()
t.install(mhat)
cfg = ev.ExperimentConfig(n_train=0, n_dev=0, n_test=4, n_adapt_text=0, d_f=8, label_dim=8, blank_dim=4,
                          joint_dim=6, hat_decoder_dim=8)
exp = ev.make_experiment_data(cfg)
lm = ExternalLm(exp.vocab, embed_dim=8, seed=7)
fusion = dec.FusionConfig("ilme_subtract", 0.4, 0.2, lm)
seen, built = [], []


def capture(owner):
    make = owner.scorer
    owner.scorer = lambda *a: built.append(make(*a)) or built[-1]


capture(lm)
for model in (ev.build_mhat(cfg, exp.vocab), ev.build_hat(cfg, exp.vocab)):
    capture(model)
    built.clear()
    t.take()
    dec.beam_search(model, [it.features for it in exp.tgt_test.items], cfg.beam, fusion)
    stats, _ = t.take()
    lm_scorer, scorer = sorted(built, key=lambda s: type(s).__name__ != "LmScorer")
    seen.append({"lm_calls": stats.get("extlm.lm_scorer", [0])[0], "lm_rows": int(np.count_nonzero(lm_scorer.filled)),
                 "lookups": stats.get("decode.scorer", [0])[0], "keys": int(np.count_nonzero(scorer.slot >= 0)),
                 "scorers": len(built)})
print(json.dumps(seen))
"""


def test_traced_lookups_count_the_rows_filled():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (os.path.join(ROOT, "src"),
                                                                  os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", FILLS_UNDER_TRACER, TRACER], env=env, capture_output=True,
                         text=True, check=True)
    for seen in json.loads(out.stdout.splitlines()[-1]):
        assert seen["scorers"] == 2  # one model scorer and one LM scorer serve the corpus
        assert seen["lm_calls"] == seen["lm_rows"] > 0
        assert seen["lookups"] == seen["keys"] > 0
