"""One test per stegolink.acceptance criterion, test_NN_<name> by criterion number.

Each prints its [PASS]/[FAIL] line with the measured values (run with -s to see them all).
"""

from stegolink.acceptance import CRITERIA


def _criterion_test(criterion):
    def test():
        check = criterion()
        print(check.line())
        assert check.ok, f"{check.label}: {check.detail}"
    return test


for _number, _criterion in enumerate(CRITERIA, 1):
    globals()[f"test_{_number:02d}_{_criterion.__name__}"] = _criterion_test(_criterion)
