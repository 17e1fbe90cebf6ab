"""One scalar natural-parameter track through the filter and smoother.

A word's log-scale weight drifts over irregular timestamps; noisy
pseudo-observations arrive at some steps only.  The smoother fills the
gaps and trims the noise.  The same calls run a stack of tracks held on
leading axes, and the lower bound takes the track, its posterior and the
word counts as arrays of one shape.
"""

import numpy as np

from topicdrift.kalman import DriftConfig, ObservationTrack, kalman_lower_bound, kalman_posterior

rng = np.random.default_rng(2)

timestamps = np.array([0.0, 1.0, 4.0, 4.5, 9.0, 14.0, 15.0])
truth = np.cumsum(rng.normal(0, 0.25, size=7))
present = np.array([True, True, False, True, False, True, True])
observed = truth + rng.normal(0, 0.3, size=7)

track = ObservationTrack(timestamps, observed, 0.09, present)
cfg = DriftConfig(process_variance=0.0625, prior_mean=0.0, prior_variance=1.0)
post = kalman_posterior(track, cfg)

print(f"{'t':>5} {'truth':>8} {'obs':>8} {'filtered':>9} {'smoothed':>9} {'sm var':>8}")
for i, t in enumerate(timestamps):
    obs = f"{observed[i]:8.3f}" if present[i] else "       -"
    print(f"{t:5.1f} {truth[i]:8.3f} {obs} {post.forward_mean[i]:9.3f} "
          f"{post.smoothed_mean[i]:9.3f} {post.smoothed_var[i]:8.3f}")

# one word, seen 3 times at every step; a stack of tracks takes counts of its (words, steps) shape
bound = kalman_lower_bound(track, post, np.full(7, 3.0), cfg)
print(f"\nlower bound on the pseudo-observation likelihood: {bound:.4f} nats")
print("(smoothed interior steps borrow strength from both directions)")
