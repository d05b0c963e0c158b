"""The numpy ops of a training step on fixed inputs, at one BLAS thread.

`python tests/blas_probe.py` prints one SHA-256 of their results.  The ops
are the kinds `qtp train` runs: Generator draws, matmuls whose sums run over
the node axis (weight gradients), scatter-adds, row softmax by exp, log,
einsum row dots and an Adam update.  A host whose numpy or BLAS gives other
bits for them prints another digest, and `tests/train_pin.json`, which holds
the digest of the host that pinned `qtp train`'s bytes, does not apply there.
The probe does not import qtp, so a change to qtp never moves it.
"""

import hashlib
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402


def digest() -> str:
    rng = np.random.default_rng(11)
    n, f, h = 4000, 66, 128
    x = rng.standard_normal((n, f))
    w = rng.uniform(-0.3, 0.3, (f, h))
    src, dst = rng.integers(0, n, (2, 3 * n))
    z = x @ w
    agg = np.zeros_like(z)
    np.add.at(agg, dst, z[src])
    deg = np.bincount(dst, minlength=n) + 1.0
    act = agg / np.sqrt(deg)[:, None]
    act = np.maximum(act, 0.01 * act)
    e = np.exp(act - act.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    loss = -np.log(probs[:, 0]).mean()
    d = probs - 1.0 / h
    grad_w = x.T @ d
    grad_x = d @ w.T
    rows = np.einsum("ij,ij->i", agg, z)
    m = 0.1 * grad_w
    v = 0.001 * (grad_w * grad_w)
    step = 1e-3 * (m / (1 - 0.9)) / (np.sqrt(v / (1 - 0.999)) + 1e-8)
    out = hashlib.sha256()
    for a in (z, agg, probs, loss, grad_w, grad_x, rows, step, np.cumsum(deg),
              rng.permutation(n)):
        out.update(np.ascontiguousarray(a).tobytes())
    return out.hexdigest()


if __name__ == "__main__":
    print(digest())
