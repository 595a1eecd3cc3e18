"""Dependency-annotated memory trace generation for the RMS workloads.

The paper's Memory+Logic study (Section 3) is driven by memory address
traces from two-threaded RMS (Recognition, Mining, Synthesis) benchmarks,
generated by a module running alongside a full-system simulator.  Every
trace record carries the usual fields (cpu id, access address, instruction
pointer) plus the unique id of an earlier record it depends on; the memory
hierarchy simulator honors those dependencies during replay.

This package rebuilds that trace-generation substrate synthetically: each
of the twelve Table 1 workloads is modeled by a kernel that walks the
documented data structures of its algorithm (dense/sparse matrices,
vectors, support-vector sets) with true inter-access dependency chains,
in blocks of numpy columns, and a two-thread SMP interleaver merges the
per-thread streams into the paper's trace format.
"""

from repro.traces.record import AccessType, TraceRecord, read_trace, write_trace
from repro.traces.generator import TraceGenerator, WorkloadSpec

__all__ = [
    "AccessType",
    "TraceRecord",
    "read_trace",
    "write_trace",
    "TraceGenerator",
    "WorkloadSpec",
]
