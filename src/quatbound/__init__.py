"""Finite prime supersets for quaternion discriminants over imaginary
quadratic fields of class number > 1."""
