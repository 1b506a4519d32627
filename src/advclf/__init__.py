"""Adversarial re-weighting for imbalanced binary classification.

A generator network assigns a weight distribution over majority-class
samples; the discriminator trains against the re-weighted batches and is
the final classifier. Its modules cover tabular training, node-embedding
learning on graphs, and a numerical solver for the idealized
weight-distribution problem.
"""
