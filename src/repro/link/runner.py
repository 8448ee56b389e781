"""Link workloads as self-contained jobs.

Link-level sweeps multiply fast: SNR grid x feedback delays x packet sizes
x enough packets per point to average.  Each operating point is an
independent simulation, so the natural unit of parallelism is a **job**: a
fully-specified, picklable :class:`LinkJob` that a worker process turns
into one JSON-safe result dict.  The experiment orchestrator runs them as
``link`` points (see :func:`job_from_options`).

Determinism is the design constraint.  Every job carries its own seed; the
channel RNG, the payload RNG, and the per-packet sub-seeds are all derived
from it inside the worker, never from global state, worker identity, or
scheduling order, so a sweep can be sharded across however many cores
exist without changing its numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.channels.base import Channel
from repro.channels.registry import channel_family, make_channel
from repro.core.params import DecoderParams, SpinalParams
from repro.link.protocol import LinkConfig, LinkSession, payload_for
from repro.link.stats import FlowStats

__all__ = ["LinkJob", "job_from_options", "run_job"]


@dataclass(frozen=True)
class LinkJob:
    """One self-contained link simulation (picklable, fully seeded).

    ``channel`` names a registered channel family (see
    :mod:`repro.channels.registry`): ``"awgn"``, ``"rayleigh"`` (honours
    ``coherence_time``, as in §8.3) or ``"bsc"``.
    """

    job_id: str
    seed: int
    snr_db: float
    n_packets: int = 4
    payload_bytes: int = 32
    params: SpinalParams = field(default_factory=SpinalParams)
    decoder_params: DecoderParams = field(default_factory=DecoderParams)
    config: LinkConfig = field(default_factory=LinkConfig)
    channel: str = "awgn"
    coherence_time: int = 10

    def make_channel(self, rng: np.random.Generator) -> Channel:
        # The registry validates the family name; coherence_time is simply
        # dropped for families that do not take it (every job carries the
        # field, but only rayleigh uses it).
        return make_channel(
            self.channel, self.snr_db, rng,
            {"coherence_time": self.coherence_time}, ignore_unknown=True)


def job_from_options(
    job_id: str,
    seed: int,
    snr_db: float,
    channel: str = "awgn",
    channel_options: dict | None = None,
    options: dict | None = None,
) -> LinkJob:
    """Rebuild a :class:`LinkJob` from JSON-safe pieces.

    This is the bridge the experiment orchestrator's ``"link"`` point kind
    crosses: a :class:`~repro.experiments.spec.PointSpec` carries only
    canonical-JSON data, so the protocol/code knobs arrive as plain dicts
    (``options``: ``n_packets``, ``payload_bytes``, ``params``,
    ``decoder``, ``config``) and the channel as a registry name plus
    family options.  The resulting job is exactly the one a hand-written
    ``runner.py`` sweep would build — the equality
    ``tests/test_experiments.py`` locks in.
    """
    opts = dict(options or {})
    known = {"job_id", "n_packets", "payload_bytes", "params", "decoder",
             "config"}
    unknown = set(opts) - known
    if unknown:
        # same discipline as the channel registry: a misspelled knob must
        # fail loudly, not silently fall back to a default whose wrong
        # result then gets cached under the typo'd content address
        raise ValueError(
            f"unknown link job options {sorted(unknown)}; "
            f"accepted: {sorted(known)}")
    channel_options = dict(channel_options or {})
    bad_channel_opts = set(channel_options) - set(
        channel_family(channel).options)
    if bad_channel_opts:
        # the same rule for the channel's knobs: a measure point's typo'd
        # channel option raises via the registry, so a link point's must too
        raise ValueError(
            f"channel family {channel!r} does not accept options "
            f"{sorted(bad_channel_opts)}; "
            f"accepted: {sorted(channel_family(channel).options)}")
    return LinkJob(
        job_id=job_id,
        seed=int(seed),
        snr_db=float(snr_db),
        n_packets=int(opts.get("n_packets", 4)),
        payload_bytes=int(opts.get("payload_bytes", 32)),
        params=SpinalParams(**dict(opts.get("params") or {})),
        decoder_params=DecoderParams(**dict(opts.get("decoder") or {})),
        config=LinkConfig(**dict(opts.get("config") or {})),
        channel=channel,
        coherence_time=int(channel_options.get("coherence_time", 10)),
    )


def run_job(job: LinkJob) -> dict:
    """Execute one job; everything random derives from ``job.seed``."""
    master = np.random.default_rng(job.seed)
    channel_rng = np.random.default_rng(master.integers(0, 2**63))
    payload_rng = np.random.default_rng(master.integers(0, 2**63))
    session = LinkSession(job.params, job.decoder_params,
                          job.make_channel(channel_rng), job.config,
                          flow=job.job_id)
    stats = FlowStats(job.job_id)
    for _ in range(job.n_packets):
        payload = payload_for(job.config, payload_rng, job.payload_bytes,
                              k=job.params.k)
        stats.add(session.send_packet(payload))
    out = stats.as_dict()
    out["job_id"] = job.job_id
    out["seed"] = job.seed
    out["snr_db"] = float(job.snr_db)
    out["channel"] = job.channel
    out["feedback_delay"] = job.config.feedback_delay
    return out
