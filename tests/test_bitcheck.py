"""The same seed gives the same bits: training runs hashed by bitcheck (report,
weights, checkpoint bytes and validation reconstructions) twice in this
process and once in a fresh one.  Also the wall-time masking of the
acceptance lines that ``bitcheck --acceptance`` compares."""

import bitcheck

RUNS = ["dc_rsn_fu_with_us", "vs_rsn"]


def test_same_bits_twice_in_process_and_in_a_fresh_process():
    first = bitcheck.run_all(RUNS)
    assert sorted(first) == sorted(RUNS)
    assert bitcheck.run_all(RUNS) == first
    assert bitcheck.run_tree(bitcheck.REPO, RUNS) == first


def test_criterion_lines_mask_wall_times_only():
    # pytest -q writes its progress marks on the line a criterion is printed on
    out = ("criterion  1 oracle equivalence: PASS  [dt 2.5e-15]\n"
           ".criterion  2 gradient suite: PASS  [worst rel err 1.2e-07 (conv), 53s, 20 seeds]\n"
           "..criterion  4 toy end-to-end: PASS  [zf 24.10 dB, n_b=1 +3.20 dB in 117s, n_b=3 +0.40 dB]\n"
           "E   AssertionError: criterion 9 refiner direction: vif 0.5\n"
           "F.criterion 11 mask properties: PASS  [4 kinds x 20 seeds]\n1 passed in 3.21s\n")
    assert bitcheck.criterion_lines(out) == [
        "criterion  1 oracle equivalence: PASS  [dt 2.5e-15]",
        "criterion  2 gradient suite: PASS  [worst rel err 1.2e-07 (conv), <t>s, 20 seeds]",
        "criterion  4 toy end-to-end: PASS  [zf 24.10 dB, n_b=1 +3.20 dB in <t>s, n_b=3 +0.40 dB]",
        "criterion 11 mask properties: PASS  [4 kinds x 20 seeds]"]


def test_missing_criterion_lines_count_as_differing(monkeypatch, capsys):
    # a run that stops after criterion 1 on both sides is no match
    monkeypatch.setattr(bitcheck, "acceptance_lines",
                        lambda tree: ["criterion  1 oracle equivalence: PASS"])
    assert bitcheck.compare_acceptance("tree", "REV") == bitcheck.CRITERIA - 1
    assert f"1 of {bitcheck.CRITERIA} criterion lines equal to REV" in capsys.readouterr().out
