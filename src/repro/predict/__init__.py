"""Service-time prediction and deadline-aware scheduling.

The paper's characterization shows per-query service time is driven by
the matched postings volume — a quantity fully determined by statistics
the resident dictionary already holds at *admission* (term count,
per-term posting-list lengths).  This package turns that observation
into a serving-path feature, following the Hurry-up direction
(Nishtala et al., PAPERS.md):

- :class:`~repro.predict.features.QueryFeatures` /
  :func:`~repro.predict.features.extract_features` — admission-time
  features from the dictionary alone (no postings traversal);
- :class:`~repro.predict.predictor.ServiceTimePredictor` — a calibrated
  linear model with a log-space residual error model, fitted against
  measured native service times
  (:func:`~repro.predict.calibrate.calibrate_predictor`);
- :class:`~repro.predict.scheduler.DeadlineScheduler` — a declarative
  policy object, interpreted identically by the native engine
  (longest-predicted-first batch dispatch, deadline budget → Block-Max
  WAND early-termination depth) and the DES mixed-fleet broker
  (``core_speed``-aware routing on *predicted* demand) — the same
  dual-interpretation contract :class:`~repro.engine.hedging.
  HedgingPolicy` follows.

``scheduler=None`` everywhere keeps the seed's behaviour bit for bit.

The package re-exports nothing: low-level layers (the ISN, the DES
broker) import the submodule they need without triggering package
initialization cycles, and :mod:`repro.api` re-exports the public names.
"""
