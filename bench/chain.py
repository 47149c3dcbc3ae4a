"""Chain family: k invertible-XOR blocks joined by inverting links.

Block i is ``a_i b_i -> c_i d_i`` with fig1's table (c = a, d = a xor b),
and ``link d_i -> a_{i+1}`` joins consecutive blocks.  Every ``b_i`` is pinned
to 1 as an input and ``d_{k-1}`` carries the driven output pin ``d=1``.  With
b = 1 each block maps a_i to a_{i+1} = a_i, so a_0 is the only free bit: the
input-constrained support has 2 assignments of 2^(4k), and the output pin
selects the single solution a_i = c_i = 0, b_i = d_i = 1.  The unsat variant
adds the output pin ``c_{k-1}=1``, which contradicts d_{k-1} = 1 because b = 1
forces c = not d.
"""
from __future__ import annotations

XOR_BODY = "00->00 ; 01->01 ; 10->11 ; 11->10"


def chain_dsl(k: int, unsat: bool = False) -> str:
    """DSL text of the k-block chain (4k nodes)."""
    if k < 1:
        raise ValueError("a chain needs at least one block")
    nodes = [f"{x}{i}" for i in range(k) for x in "abcd"]
    lines = ["nodes " + " ".join(nodes)]
    for i in range(k):
        lines.append(f"gate g{i} in(a{i},b{i}) out(c{i},d{i}) {{ {XOR_BODY} }}")
        if i + 1 < k:
            lines.append(f"link d{i} -> a{i + 1}")
    lines += [f"fix b{i}=1 input" for i in range(k)]
    if unsat:
        lines.append(f"fix c{k - 1}=1 output")
    lines += [f"fix d{k - 1}=1 output", f"drive d{k - 1}"]
    return "\n".join(lines) + "\n"


def chain_solutions(k: int, unsat: bool = False) -> list[str]:
    """The oracle's answer for the chain: every satisfying assignment."""
    return [] if unsat else ["0101" * k]
