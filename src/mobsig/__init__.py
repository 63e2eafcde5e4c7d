"""Deterministic discrete-event simulator for multi-access handover signaling.

The package models a mobile node's control plane as six message-passing
functional entities (resource management, handover orchestration, path
selection, flow management, the radio/network environment, and the mobility
daemons), replays make-before-break, break-before-make, and fast-handover
sequences over configurable scenarios, and checks recorded traces against
declarative sequence templates.
"""

__version__ = "0.1.0"
