"""Demo: the reverse-mode tensor core.

Builds a small computation, runs backward, and cross-checks the analytic
gradients against central finite differences.
"""

import numpy as np

from papnf import tensor as tz
from papnf.tensor import Tensor, grad_check

rng = np.random.default_rng(0)

# A toy two-layer computation: row-softmax attention-ish mixing, then a norm.
x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
w = Tensor(rng.normal(size=(5, 3)) / np.sqrt(5.0), requires_grad=True)

scores = tz.softmax_rows(x @ x.T)
mixed = scores @ x
out = tz.layernorm_rows(mixed @ w).tanh()
loss = (out * out).sum()

loss.backward()
print(f"loss = {loss.item():.6f}")
print(f"dloss/dx norm  = {np.linalg.norm(x.grad):.6f}")
print(f"dloss/dw norm  = {np.linalg.norm(w.grad):.6f}")


def rebuild(xt, wt):
    s = tz.softmax_rows(xt @ xt.T)
    o = tz.layernorm_rows((s @ xt) @ wt).tanh()
    return (o * o).sum()


err = grad_check(rebuild, [x, w])
print(f"max relative error vs finite differences: {err:.2e} (0 = within rounding noise)")

# Backward order is deterministic: same graph, same seeds, same gradients.
x2 = Tensor(x.data.copy(), requires_grad=True)
w2 = Tensor(w.data.copy(), requires_grad=True)
rebuild(x2, w2).backward()
print(f"bitwise repeatable backward: {np.array_equal(x.grad, x2.grad)}")
