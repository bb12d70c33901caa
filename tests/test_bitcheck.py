"""The same seed gives the same bits: training runs hashed by bitcheck (report,
weights, checkpoint bytes and validation reconstructions) twice in this
process and once in a fresh one."""

import bitcheck

RUNS = ["dc_rsn_fu_with_us", "vs_rsn"]


def test_same_bits_twice_in_process_and_in_a_fresh_process():
    first = bitcheck.run_all(RUNS)
    assert sorted(first) == sorted(RUNS)
    assert bitcheck.run_all(RUNS) == first
    assert bitcheck.run_tree(bitcheck.REPO, RUNS) == first
