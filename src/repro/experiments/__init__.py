"""Experiment harness: runners, figures, tables, reporting, and the
:data:`EXHIBITS` registry behind ``python -m repro <exhibit>``."""

from .figures import EXHIBITS

__all__ = ["EXHIBITS"]
