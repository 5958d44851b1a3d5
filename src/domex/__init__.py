"""domex: source-free multi-source domain expansion for dense classifiers.

Given several classifiers pre-trained on separate source domains and an
unlabelled sample of a new domain, the package aligns the models' predictive
behaviour on the new domain while preserving what each learned originally,
then fuses them into a single classifier covering all domains at once. The
original training data is never touched.
"""

__version__ = "0.1.0"
