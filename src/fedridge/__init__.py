"""Exact federated continual unlearning for ridge heads on frozen features.

Clients summarize every add/delete batch into fixed-size second-order
statistics; the server keeps an additive ledger of the retained set and
recovers a head equal (to floating-point tolerance) to centralized ridge
retraining after every round, by full recomputation or by incremental
inverse updates, with a Bayesian zero-KL certificate on top.
"""
