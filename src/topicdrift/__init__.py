"""Streaming nonparametric topic models with continuous-time topic drift.

The package ships three models over a shared corpus pipeline:

* ``online_hdp``: online two-level stick-breaking HDP (document-order
  streaming, no timestamps);
* ``drifting_topics``: the same HDP coupled to per-(topic, word) scalar
  Kalman tracks so topic-word distributions evolve in continuous time,
  plus an Active/Dead topic lifecycle;
* ``fixed_k_dtm``: an offline fixed-K baseline with drifting topics.

Supporting modules: ``distributions`` and ``information`` (elementary
densities, samplers, entropy measures), ``meanfield`` (the conjugate
Gaussian-Gamma coordinate-ascent example), ``kalman`` (the scalar
filter/smoother), ``dp_sim`` (CRP/franchise/drifting-dish simulators),
``corpus`` (parsers and the canonical format), ``evaluation`` and
``synthetic`` (the experiment harness), ``checkpoint`` (the one
checkpoint reader and writer: a JSON header plus base64 arrays),
``cli`` (pipelines).
"""

__version__ = "0.1.0"
