"""Sparse system identification with lagged regressors.

A synthetic output driven by one of three candidate inputs is fit as an
ARX model whose blocks are the lag polynomials of each channel.  The
empirical-Bayes fit should keep only the output autoregression and the
single driving input, and predict well at several horizons.
"""

import numpy as np

from groupsparse import arx_cod, build_arx, fit_hglasso, gen_arx_series

series = gen_arx_series(T=600, seed=3)
train, test = series[:300], series[300:]

q = 10
prob = build_arx(train, q)
print("design: %d rows, %d channels x %d lags" % (prob.design.n,
                                                  prob.design.p, q))

res, trace = fit_hglasso(prob.y, prob.design, variant="hglc")
names = ["output"] + ["input %d" % i for i in range(1, prob.design.p)]
print("selected channels:", [names[i] for i in res.selected])
norms = [float(np.linalg.norm(res.theta[s])) for s in prob.design.slices]
for nm, bn in zip(names, norms):
    print("  %-8s lag-polynomial norm %.4f" % (nm, bn))

cods = arx_cod(prob, res.theta, test, 10)
print("\nprediction quality on held-out data:")
for k in (1, 2, 5, 10):
    print("  COD_%-2d = %.4f" % (k, cods[k - 1]))
