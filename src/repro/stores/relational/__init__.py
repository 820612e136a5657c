"""Simulated relational store (Postgres stand-in)."""

from repro.stores.relational.engine import RelationalStore

__all__ = ["RelationalStore"]
