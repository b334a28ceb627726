"""Certifying analytic gradients against central finite differences.

Every loss in the package carries gradients produced by the built-in
reverse-mode engine (plus a closed-form occupancy rule for the lattice).
The certification contract is simple: sampled coordinates must agree with
(L(theta+h) - L(theta-h)) / 2h to a relative error of 1e-4.
"""

import numpy as np

from mhat import EncoderConfig, MhatModel, Vocabulary, gradient_check, hat_loss, ilm_loss, mhat_loss
from mhat.adapt import ilma_loss

rng = np.random.default_rng(7)
vocab = Vocabulary.default(4)
model = MhatModel(vocab, EncoderConfig(d_x=3, d_f=8), label_dim=8, blank_dim=4, joint_dim=6, seed=1)
teacher = MhatModel(vocab, EncoderConfig(d_x=3, d_f=8), label_dim=8, blank_dim=4, joint_dim=6, seed=9)

batch = [
    (rng.standard_normal((3, 3)), [1, 2]),
    (rng.standard_normal((2, 3)), [0]),
]
transcripts = [[1, 2, 0], [3, 1]]

losses = {
    "transducer loss": lambda p: hat_loss(model, batch),
    "combined loss (alpha=0.1)": lambda p: mhat_loss(model, batch, 0.1),
    "internal-LM loss": lambda p: ilm_loss(model, transcripts),
    "adaptation loss (rho=0.5)": lambda p: ilma_loss(model, teacher, transcripts, 0.5),
}

print(f"model has {model.params.size()} parameters; checking 200 sampled coordinates per loss\n")
for name, fn in losses.items():
    err = gradient_check(fn, model.params, h=1e-4, num_coords=200, rng=rng)
    print(f"{name:28s} max relative error {err:.2e}")

print("\nPer-group parameter counts (the unit of freezing):")
for group, count in model.param_counts().items():
    print(f"  {group:14s} {count}")
