"""Host-speed calibration, so that timings compare across runs on a shared box.

On a shared 2-core virtual machine the speed of the host drifts by up to 2x in
phases that last from seconds to a minute, and every CPU-bound op drifts
with it. Raw median op times of one unchanged program then differ by 20-50 %
between runs of half a minute, far more than any change the benchmark must
detect.

So a fixed calibration kernel, plain numpy doing the same kind of work as
the workload's ops and no rakeuq code, runs before every op. An op time is
reported at reference speed: wall time x REF_MS / (median of the WINDOW
kernel times around the op). A change in rakeuq moves the op time and not
the kernel, so it shows in full. The raw times and the kernel time are
printed as well.
"""

import statistics
from time import perf_counter_ns

import numpy as np

WINDOW = 5


class HostSpeed:
    """A calibration kernel of one kind, and the times it took.

    ``kind`` matches the kernel to a workload's own mix of work, because
    interpreter-bound code and large BLAS calls speed up by different
    amounts when the host does:

    * "interp": a 42 x 42 eigh, 6 x 5 QR solves and a dict loop, like the fit
      chain on small campaigns and the harmonic scan;
    * "blas": a 480 x 480 matrix product and a 240 x 240 eigh, like the dense
      NM x NM algebra of a 24 x 20 campaign (NM = 480);
    * "vector": batched draws, an einsum, batched QR and SVD, and a 20 MB
      broadcast product reduced by einsum, like the sampling engines.

    A kernel suits a workload when log op time against log kernel time has
    slope near 1 while the host drifts; README.md records the slopes
    measured. REF_MS is each kernel's median time on a 2-core Intel Xeon
    virtual machine (2.0 GHz nominal) in its slower usual state.
    """

    REF_MS = {"interp": 4.5, "blas": 14.0, "vector": 17.0}

    def __init__(self, kind):
        self.kernel = getattr(self, "_" + kind)
        self.ref_ms = self.REF_MS[kind]
        rng = np.random.default_rng(0)
        self.rng = rng
        S = rng.standard_normal((42, 42))
        self.S = S @ S.T
        self.A = rng.standard_normal((6, 5))
        self.B = rng.standard_normal((6, 7))
        self.M = rng.standard_normal((480, 480))
        E = rng.standard_normal((240, 240))
        self.E = E @ E.T
        self.L = np.linalg.cholesky(np.eye(42) + 0.1)
        self.W = rng.standard_normal((7, 7))
        self.G = rng.standard_normal((36, 5))
        self.stack = rng.standard_normal((256, 6, 5))
        self.X = rng.standard_normal((256, 5, 7))
        self.G_pred = rng.standard_normal((360, 5))
        self.X_big = rng.standard_normal((1024, 5, 7))
        self.kernel_ms = []

    def _interp(self):
        for _ in range(3):
            np.linalg.eigh(self.S)
            for _ in range(20):
                q, r = np.linalg.qr(self.A)
                np.linalg.solve(r, q.T @ self.B)
            counts = {}
            for i in range(300):
                counts[i % 7] = counts.get(i % 7, 0) + i

    def _blas(self):
        self.M @ self.M
        np.linalg.eigh(self.E)

    def _vector(self):
        z = self.rng.standard_normal((512, 42)) @ self.L.T
        np.einsum("rm,bkm,tk->brt", self.W, z[:, :35].reshape(512, 5, 7), self.G)
        np.linalg.qr(self.stack)
        np.linalg.svd(self.X, compute_uv=False)
        D = self.G_pred @ self.X_big
        np.einsum("bpm,bpm->pm", D, D)

    def sample(self):
        """Time the kernel once; returns the index of this sample."""
        start = perf_counter_ns()
        self.kernel()
        self.kernel_ms.append((perf_counter_ns() - start) / 1e6)
        return len(self.kernel_ms) - 1

    def factor(self, index):
        """Scale from wall to reference time over the WINDOW samples centred
        on sample ``index``."""
        start = max(0, index - WINDOW // 2)
        return self.ref_ms / statistics.median(self.kernel_ms[start:start + WINDOW])
