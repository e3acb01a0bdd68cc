"""Exact calculator for tensor-category decompositions and Ext dimensions.

Submodules:

* diagrams: Young-diagram arithmetic (conjugation, boxes, hooks, dimensions)
* combination: Combination, the one immutable Z-combination type for
  decompositions, Schur expansions and plethysms, and its builder
* symfunc: Littlewood-Richardson coefficients, Schur-basis products and the
  slot-wise LR product on pairs of partitions
* plethysm: closed-form powers of squares and tensor products
* grothendieck: composition-factor decompositions of tensor words
* poset: the quadruple index order, chains and the defect
* ext: injective-resolution terms, kernel layers, Ext dimensions
* symalg: symmetric-group-algebra constructions
* linalg: exact rank of sparse rational rows (fraction-free elimination)
* ospcat: the orthogonal/symplectic variant
* oracle: independent brute-force verifiers
* cli: command-line front end
"""

__version__ = "0.1.0"
