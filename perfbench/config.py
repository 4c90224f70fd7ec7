"""Workload parameters of the repo benchmark.

``BENCHMARK.json`` fixes names, units, directions, bounds and the
one-line reason for each workload; the parameters each workload runs
with, its default seed and the served workload's SLO live here, next to
the code that reads them. Changing a value here changes the benchmark,
so it belongs in a change of its own that claims no speed-up.

Both workloads run serially in one process (``workers=1``, BLAS pinned
to one thread), sized for a 2-core host.
"""

from __future__ import annotations

#: Seed used when ``--seed`` is not given.
DEFAULT_SEED = 1

#: Fresh processes timed per run for ``setup_s`` (the median is
#: reported), spread evenly between the measured passes.
SETUP_PROBES = 11

#: A tail percentile is reported only with at least this many samples
#: strictly beyond it.
TAIL_MIN_BEYOND = 10

WORKLOADS: dict[str, dict] = {
    "mc-deep": {
        "type": "mc",
        # (antennas, modulation, SNR dB): fig8 and fig10 system sizes.
        "points": [[15, "4qam", 13.0], [10, "16qam", 20.0]],
        # Every kind must decide identically to the first on every frame.
        "kinds": ["sd", "sd-bestfs"],
        # One unit = one MonteCarloEngine.run of one kind at one point.
        # Search effort is heavy-tailed and set mostly by the channel, so
        # one frame per channel block: over seeds 1-10 the quartile
        # spread of frames per expanded node is 0.08 with 20 blocks of
        # one frame, 0.14 with 10 blocks of two.
        "channels_per_unit": 20,
        "frames_per_channel": 1,
        "groups": 14,
        # Typical time of one pass over all groups on a 2-core host; a
        # run makes round(seconds / pass_seconds) passes (at least 2).
        "pass_seconds": 6.0,
        # Groups traced / profiled in a --trace 1 run (a fixed prefix of
        # the plan, so their counts repeat exactly for a seed).
        "trace_groups": 3,
        "profile_groups": 1,
    },
    "served": {
        "type": "served",
        "n_antennas": 10,
        "modulation": "4qam",
        "snr_db": 10.0,
        "kind": "kbest",
        "n_streams": 32,
        "channel_blocks": 2,
        "profile": "bursty",
        "on_fraction": 0.25,
        # Per-stream mean rate: 32 streams x 40 Hz = 1280 frames/s
        # offered (virtual time), about 40 % of the serving capacity
        # measured on a 2-core host; ON bursts run at four times that.
        "rate_hz": 40.0,
        # A 6 s trace (about 7.7k frames offered) keeps the seed from
        # moving the batch sizes, and so frame_ms_p50, by more than a
        # few per cent, while a pass stays short enough for about ten
        # passes a run.
        "duration_s": 6.0,
        "max_batch": 32,
        "max_delay_s": 0.004,
        "max_queue": 256,
        # Fixed latency limit on the p95 arrival-to-delivery sojourn.
        "slo_s": 0.010,
        # Typical pass time on a 2-core host, checks included.
        "pass_seconds": 5.0,
    },
}
