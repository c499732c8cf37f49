"""The benchmark's workloads: seeded synthetic datasets in three data regimes.

Whether a lower bound pays off depends on the data, so each workload is
chosen for a layer it stresses and a layer it leaves idle:

* clustered-w10: window points form separated clumps, so the single
  envelope box is loose and the advanced bounds carry the cascade (tc_dtw
  picks the clustering bound).
* iid-w10: the bypass case.  No bound prunes and almost every DTW abandons
  early, so bound changes should show no gain here while DTW-kernel and
  abandoning changes show the most.
* smooth-n100-w20: long, densely sampled series in the regime the paper
  targets for triangle bounds; a full DTW is 4x the cells of the other
  workloads, the envelope prunes most candidates, and per-query builds and
  tuning are largest.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    family: str  # generator function in mvdtw.synth
    num_series: int
    length: int
    dims: int
    window: int
    why: str

    def generate(self, seed: int):
        from mvdtw import synth

        return getattr(synth, self.family)(self.num_series, self.length, self.dims, seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "clustered-w10", "clustered_dataset", 200, 50, 3, 10,
            "clumped windows make the envelope loose, so the advanced bounds "
            "(lb_pc chosen by tc_dtw, lb_ti, lb_ad) carry the cascade",
        ),
        Workload(
            "iid-w10", "iid_noise_dataset", 200, 50, 3, 10,
            "bypass case: no bound prunes and most DTWs abandon early, so only "
            "DTW-kernel and abandoning changes should move it",
        ),
        Workload(
            "smooth-n100-w20", "smooth_walk_dataset", 200, 100, 3, 20,
            "long dense series where triangle bounds are meant to help; DTW is 4x "
            "the cells, the envelope prunes most, builds and tuning cost most",
        ),
    )
}
