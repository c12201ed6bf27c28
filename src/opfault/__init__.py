"""Zero-shot bearing fault detection toolkit.

Trains a 1D operational GAN to learn the healthy-to-faulty vibration
transition on a source machine, synthesizes faulty segments for a target
machine from its real healthy segments, and trains a compact operational
detector on that synthetic data. All training runs on a small hand-rolled
numpy backprop engine and is deterministic under a fixed seed. Large
batches run as two fixed halves on two threads, with the loaded OpenBLAS
set to one thread each.
"""

__version__ = "0.1.0"
