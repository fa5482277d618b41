"""Each correctness check passes on a good result and fails on a corrupted one.

    python3 -m pytest perfbench

The good results are built by hand, so these tests import nothing from
fiberband and run in milliseconds.
"""

import copy

import checks


def failed(results):
    return [name for name, ok in results if not ok]


# --- simulate ---------------------------------------------------------------

FROZEN = {
    "sidon5": {"steps": 1600, "seed": 1, "total_loss_pct": 2.177322881297228,
               "parseval_residual": 1.9195102704660528e-16},
}


def test_simulate_good():
    assert failed(checks.check_simulate(copy.deepcopy(FROZEN), FROZEN)) == []


def test_simulate_within_tolerance():
    got = copy.deepcopy(FROZEN)
    got["sidon5"]["total_loss_pct"] *= 1 + 0.1 * checks.SUMMARY_RTOL
    got["sidon5"]["parseval_residual"] = 3e-16
    assert failed(checks.check_simulate(got, FROZEN)) == []


def test_simulate_corrupted_value():
    got = copy.deepcopy(FROZEN)
    got["sidon5"]["total_loss_pct"] *= 1 + 10 * checks.SUMMARY_RTOL
    assert failed(checks.check_simulate(got, FROZEN)) == ["sidon5.total_loss_pct"]


def test_simulate_corrupted_count_and_missing_config():
    got = copy.deepcopy(FROZEN)
    got["sidon5"]["steps"] = 1599
    assert failed(checks.check_simulate(got, FROZEN)) == ["sidon5.steps"]
    assert failed(checks.check_simulate({}, FROZEN)) == ["sidon5.present"]


# --- sweep ------------------------------------------------------------------

def sweep_members():
    return [
        {"config": "sidon5", "filter": "distributed", "launch_J": 4.0e-12,
         "final_J": 3.9e-12, "discarded_J": 1.0e-13, "max_dev": 4e-4},
        {"config": "uniform5", "filter": "distributed", "launch_J": 4.0e-12,
         "final_J": 3.95e-12, "discarded_J": 5.0e-14, "max_dev": 0.3},
    ]


def test_sweep_good():
    assert failed(checks.check_sweep(sweep_members())) == []


def test_sweep_open_ledger():
    members = sweep_members()
    members[0]["discarded_J"] *= 1.001
    assert failed(checks.check_sweep(members)) == ["sidon5.distributed.ledger"]


def test_sweep_coupled_sidon_grid():
    members = sweep_members()
    members[0]["max_dev"] = 0.2
    assert failed(checks.check_sweep(members)) == ["sidon5.distributed.decoupled"]


# --- bounds -----------------------------------------------------------------

# lexicographically first optimal sets rooted at 1, as (N(k), witness)
TABLE = [(1, (1,)), (2, (1, 2)), (2, (1, 2)), (3, (1, 2, 4)), (3, (1, 2, 4)),
         (3, (1, 2, 4)), (4, (1, 2, 5, 7))]
BOUNDS = [10.0] * len(TABLE)
BOSE = {2: (1, 3), 3: (1, 3, 7)}


def test_bounds_good():
    assert failed(checks.check_bounds(TABLE, BOSE, BOUNDS)) == []


def test_bounds_wrong_row():
    table = list(TABLE)
    table[6] = (3, (1, 2, 4))
    assert failed(checks.check_bounds(table, BOSE, BOUNDS)) == ["N(7).published"]


def test_bounds_bad_witness():
    table = list(TABLE)
    table[6] = (4, (1, 2, 3, 7))  # 1 + 3 == 2 + 2
    assert failed(checks.check_bounds(table, BOSE, BOUNDS)) == ["N(7).witness"]


def test_bounds_bound_violated():
    bounds = list(BOUNDS)
    bounds[3] = 2.5
    assert failed(checks.check_bounds(TABLE, BOSE, bounds)) == ["N(4).bound"]


def test_bounds_bose_not_sidon():
    bose = {**BOSE, 3: (1, 2, 3)}
    assert failed(checks.check_bounds(TABLE, bose, BOUNDS)) == ["bose(3)"]


def test_golomb_table():
    assert [checks.golomb_n(k) for k in (1, 2, 4, 7, 12, 18, 26, 35, 45, 56)] == list(range(1, 11))
    assert checks.golomb_n(55) == 9


# --- plan -------------------------------------------------------------------

GOOD_CHECK = "energy-decoupled: no witness=(1, 3) vs (2, 2)\n"


def test_plan_good():
    assert failed(checks.check_plan({3: (1, 3, 7)}, (True, None), GOOD_CHECK)) == []


def test_plan_bad_sequence():
    assert failed(checks.check_plan({3: (1, 2, 3)}, (True, None), GOOD_CHECK)) == ["bose(3)"]


def test_plan_not_certified():
    verdict = (False, ((1, 2), (3, 4)))
    assert failed(checks.check_plan({3: (1, 3, 7)}, verdict, GOOD_CHECK)) == ["certify"]


def test_plan_wrong_witness():
    out = "energy-decoupled: no witness=(1, 2) vs (2, 2)\n"
    assert failed(checks.check_plan({3: (1, 3, 7)}, (True, None), out)) == ["check.uniform"]
