"""Demo: the reverse-mode tensor core.

Builds a small computation from the ops the model runs, runs backward, and
cross-checks the analytic gradients against central finite differences.
"""

import numpy as np

from papnf import tensor as tz
from papnf.tensor import Tensor, grad_check

rng = np.random.default_rng(0)

# A toy forecaster: an affine map of 4 input rows to 6-step forecasts, whose
# rows serve as an ensemble, scored by the energy score against a target row
# that is itself the mean of a second affine map.
x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
W = Tensor(rng.normal(size=(6, 5)) / np.sqrt(5.0), requires_grad=True)
b = Tensor(np.zeros(6), requires_grad=True)
V = Tensor(rng.normal(size=(6, 5)) / np.sqrt(5.0))  # frozen: never grows a grad buffer


def loss_of(xt, Wt, bt):
    ensemble = tz.linear(xt, Wt, bt)
    target = tz.mean_rows(tz.linear(xt, V, bt))
    return tz.energy_score(ensemble, target)


loss = loss_of(x, W, b)
loss.backward()
print(f"loss = {loss.item():.6f}")
print(f"dloss/dx norm  = {np.linalg.norm(x.grad):.6f}")
print(f"dloss/dW norm  = {np.linalg.norm(W.grad):.6f}")
print(f"frozen V grad  = {V.grad}")

err = grad_check(loss_of, [x, W, b])
print(f"max relative error vs finite differences: {err:.2e} (0 = within rounding noise)")

# Backward order is deterministic: same graph, same seeds, same gradients.
x2, W2, b2 = (Tensor(t.data.copy(), requires_grad=True) for t in (x, W, b))
loss_of(x2, W2, b2).backward()
print(f"bitwise repeatable backward: {np.array_equal(x.grad, x2.grad)}")
