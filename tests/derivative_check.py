"""Central-difference check of a field's jet, for the tests.

fd_check compares a field's AD gradient and Hessian with central
differences of its values alone, so the comparison is independent of the
jet machinery.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class DerivativeReport:
    """Outcome of an AD-versus-central-difference comparison."""
    label: str
    grad_error: float   # max abs deviation / (1 + max |grad|)
    hess_error: float   # same scaling for the hessian
    step: float

    @property
    def ok(self):
        return self.grad_error <= 1e-6 and self.hess_error <= 1e-4


def fd_check(field, x, step=1e-5):
    """Compare AD gradient/hessian against central differences of values.

    Errors are scaled relative: max|ad - fd| / (1 + max|ad|).
    """
    x = np.asarray(x, dtype=float)
    jet = field.jet(x)
    k = x.shape[0]
    fd_grad = np.zeros(k)
    for i in range(k):
        e = np.zeros(k)
        e[i] = step
        fd_grad[i] = (field.value(x + e) - field.value(x - e)) / (2 * step)
    fd_hess = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            ei = np.zeros(k)
            ej = np.zeros(k)
            ei[i] = step
            ej[j] = step
            fd_hess[i, j] = (field.value(x + ei + ej) - field.value(x + ei - ej)
                             - field.value(x - ei + ej)
                             + field.value(x - ei - ej)) / (4 * step * step)
    grad = np.array(jet.gradient)
    hess = np.array(jet.hessian).reshape(k, k)
    gerr = np.abs(grad - fd_grad).max() / (1.0 + np.abs(grad).max())
    herr = np.abs(hess - fd_hess).max() / (1.0 + np.abs(hess).max())
    return DerivativeReport(field.label, float(gerr), float(herr), step)
