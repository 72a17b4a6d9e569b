"""Bounded retry with exponential backoff and jitter.

:class:`~repro.campaign.retry.RetryPolicy` is the only thing here: the
net transport's NAK and join retries (:mod:`repro.net.supervision`) use
it.  Importing this package imports nothing else.
"""
