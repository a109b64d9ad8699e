"""An independent PR-SPIDER, to check the package's two runners against.

Written from the algorithm and the README's contracts, not from the
package's code: plain Python loops over workers and samples, one gradient
per sample, worker sums taken left to right, and its own oracle-call and
round counts. From ``prspider`` it takes only the keyed draw,
``RngStream(seed).substream(worker, epoch, iteration, purpose).indices(
pool, size)``; the caller hands it the suite's data arrays.

A run starts every worker at ``x0`` and restarts: each worker's gradient
at the common point, over all its samples or, online, over a batch of
``n_b`` drawn under ``DRAW_INIT``, averaged in one round into every
worker's direction ``v``. Iteration ``t`` of epoch ``s`` records when
``(s * m + t) % metrics_every == 0``, moves every worker by
``x -= gamma * v`` and, unless ``t`` is the epoch's last, estimates
``v += mean_j (g_j(x) - g_j(x_prev))`` over a batch of ``B`` drawn under
``DRAW_INNER`` at ``(s, t + 1)``, two oracle calls a sample, ``x_prev``
being the iterate before the move. When ``t + 1 < m`` and ``I`` divides
``t + 1``, one round averages the iterates and the directions. Between
epochs one round averages the iterates and a restart at ``(s, m)``,
drawn under ``DRAW_RESTART``, follows.

A record at ``(s, t)`` holds the global value and squared gradient norm
at the mean iterate, every worker's value and gradient taken over all its
samples (its whole pool online), the mean squared distance of the
iterates from their mean, their sum ``fos``, and the oracle calls and
rounds so far.
"""

from __future__ import annotations

import math

from prspider.numerics import DRAW_INIT, DRAW_INNER, DRAW_RESTART, RngStream


def _dot(u, w) -> float:
    total = 0.0
    for a, b in zip(u, w):
        total += a * b
    return total


def _mean(vectors) -> list[float]:
    total = list(vectors[0])
    for vector in vectors[1:]:
        total = [a + b for a, b in zip(total, vector)]
    return [a / len(vectors) for a in total]


def _average(vectors) -> list[list[float]]:
    """Each worker's copy of the mean: one round's broadcast."""
    mean = _mean(vectors)
    return [list(mean) for _ in vectors]


def quadratic_samples(centers):
    """Per-sample ``(value, gradient)`` of ``0.5 ||x - c_j||^2``."""
    centers = centers.tolist()

    def sample(i, j, x):
        diff = [a - c for a, c in zip(x, centers[i][j])]
        return 0.5 * _dot(diff, diff), diff

    return sample


def sigmoid_samples(features, offsets):
    """Per-sample ``(value, gradient)`` of ``phi(<a_j, x> - b_j)``."""
    features, offsets = features.tolist(), offsets.tolist()

    def sample(i, j, x):
        a = features[i][j]
        t = _dot(a, x) - offsets[i][j]
        q = 1.0 + t * t
        slope = 2.0 * t / (q * q)
        return t * t / q, [slope * e for e in a]

    return sample


class Reference:
    """One reference run; read ``records``, ``draws``, ``ifo`` and ``rounds``.

    ``sample(i, j, x)`` gives worker ``i``'s sample ``j`` at ``x`` as
    ``(value, gradient)``, and ``counts[i]`` is worker ``i``'s sample count,
    its pool online. ``n_b=None`` runs the finite-sum variant. ``records``
    are ``(s, t, f_bar, grad_sq, consensus, fos, ifo, rounds)`` tuples,
    ``draws`` every batch drawn as ``(worker, indices)``, in the order
    drawn, and ``residuals`` each restart's ``||mean v - grad f(mean x)||``.
    """

    def __init__(
        self, sample, counts, x0, seed, *, gamma, I, m, B, S, n_b=None,
        metrics_every=1,
    ):
        self.sample, self.counts, self.n_b = sample, counts, n_b
        self.stream = RngStream(seed)
        self.records, self.draws, self.residuals = [], [], []
        self.ifo = self.rounds = 0
        N = len(counts)
        xs = [list(map(float, x0)) for _ in range(N)]
        vs = self.restart(xs, 0, 0, DRAW_INIT)
        for s in range(S):
            for t in range(m):
                if (s * m + t) % metrics_every == 0:
                    self.record(s, t, xs)
                prev = xs
                xs = [
                    [a - gamma * b for a, b in zip(x, v)] for x, v in zip(xs, vs)
                ]
                if t + 1 < m:
                    vs = [
                        self.estimate(i, s, t + 1, B, xs[i], prev[i], vs[i])
                        for i in range(N)
                    ]
                if t + 1 < m and (t + 1) % I == 0:
                    xs, vs = _average(xs), _average(vs)
                    self.rounds += 1
            if s < S - 1:
                xs = _average(xs)
                self.rounds += 1
                vs = self.restart(xs, s, m, DRAW_RESTART)

    def draw(self, i, s, t, purpose, size) -> list[int]:
        gen = self.stream.substream(i, s, t, purpose)
        idx = gen.indices(self.counts[i], size).tolist()
        self.draws.append((i, idx))
        return idx

    def grad_mean(self, i, x, idx) -> list[float]:
        return _mean([self.sample(i, j, x)[1] for j in idx])

    def restart(self, xs, s, t, purpose) -> list[list[float]]:
        # the workers' iterates are equal here: x0, or just averaged
        grads = []
        for i, count in enumerate(self.counts):
            if self.n_b is None:
                idx = list(range(count))
            else:
                idx = self.draw(i, s, t, purpose, self.n_b)
            self.ifo += len(idx)
            grads.append(self.grad_mean(i, xs[0], idx))
        vs = _average(grads)
        self.rounds += 1
        gap = [a - b for a, b in zip(vs[0], self.global_grad(xs[0]))]
        self.residuals.append(math.sqrt(_dot(gap, gap)))
        return vs

    def estimate(self, i, s, t, B, x, x_prev, v) -> list[float]:
        idx = self.draw(i, s, t, DRAW_INNER, B)
        self.ifo += 2 * B
        diffs = []
        for j in idx:
            new, old = self.sample(i, j, x)[1], self.sample(i, j, x_prev)[1]
            diffs.append([a - b for a, b in zip(new, old)])
        return [a + b for a, b in zip(v, _mean(diffs))]

    def global_grad(self, x) -> list[float]:
        return _mean(
            [self.grad_mean(i, x, range(count)) for i, count in enumerate(self.counts)]
        )

    def record(self, s, t, xs) -> None:
        x_bar = _mean(xs)
        values = [
            sum(self.sample(i, j, x_bar)[0] for j in range(count)) / count
            for i, count in enumerate(self.counts)
        ]
        grad = self.global_grad(x_bar)
        grad_sq = _dot(grad, grad)
        consensus = 0.0
        for x in xs:
            dev = [a - b for a, b in zip(x, x_bar)]
            consensus += _dot(dev, dev)
        consensus /= len(xs)
        f_bar = sum(values) / len(values)
        self.records.append(
            (s, t, f_bar, grad_sq, consensus, grad_sq + consensus, self.ifo,
             self.rounds)
        )
